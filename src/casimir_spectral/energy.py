"""Zero-point energy of the coupled surface-plasmon modes.

All internal arithmetic is in the dimensionless energy

    Xi = U / (hbar omega_p) = (1/2) sum_modes [sqrt(n(z)) - sqrt(n(inf))],

summing every azimuthal sector with multiplicity 1 (m = 0) or 2 (m > 0)
and pairing coupled and isolated modes by sorted index within each
sector.  Local power-law exponents are reported against ln(1 + z/r_min).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import CasimirSpectralError, ConvergenceError
from .model import SystemConfig
from .spectral import mode_spectrum

DEFAULT_TOLERANCE = 1e-3
DEFAULT_L_CAP = 90
L_STEP = 5  # rung spacing, and first rung, of the convergence ladder


@dataclass(frozen=True)
class EnergySample:
    """Dimensionless zero-point energy at one gap."""

    z_over_rmin: float
    xi: float
    l_max_used: int
    converged: bool
    rel_change_last_step: float


def zero_point_energy(config: SystemConfig) -> EnergySample:
    """Xi at fixed truncation order config.l_max."""
    xi = 0.0
    if config.f_c != 0.0:
        xi = 0.5 * sum(
            block.multiplicity
            * float(np.sum(np.sqrt(block.eigenvalues) - np.sqrt(block.isolated)))
            for block in mode_spectrum(config)
        )
    return EnergySample(
        z_over_rmin=config.particle.gap / config.particle.spheroid.r_minor,
        xi=xi,
        l_max_used=config.l_max,
        converged=False,
        rel_change_last_step=math.nan,
    )


def convergence_ladder(
    config: SystemConfig,
    tolerance: float = DEFAULT_TOLERANCE,
    l_cap: int = DEFAULT_L_CAP,
) -> EnergySample:
    """Increase l_max until |delta Xi| / |Xi| <= tolerance.

    Raises ConvergenceError when the cap is reached without meeting the
    tolerance (expected as the gap goes to zero).
    """
    if not tolerance > 0.0:
        raise ValueError("tolerance must be positive")
    if l_cap < 2 * L_STEP:  # the ladder compares two rungs
        raise ValueError(f"l_cap must be >= {2 * L_STEP}")
    prev = None
    history = []
    for l in range(L_STEP, l_cap + 1, L_STEP):
        sample = zero_point_energy(config.with_l_max(l))
        history.append((l, sample.xi))
        if prev is not None:
            denom = abs(sample.xi) if sample.xi != 0.0 else 1.0
            rel = abs(sample.xi - prev.xi) / denom
            if rel <= tolerance:
                # xi from the finer rung; l_max_used is the smallest order
                # whose energy was already within tolerance
                return replace(
                    sample,
                    converged=True,
                    rel_change_last_step=rel,
                    l_max_used=prev.l_max_used,
                )
        prev = sample
    raise ConvergenceError(
        f"energy not converged to {tolerance:g} at l_max cap {l_cap} "
        f"(z/r_min = {config.particle.gap / config.particle.spheroid.r_minor:.4g})",
        diagnostics={"history": history},
    )


def local_exponents(samples) -> np.ndarray:
    """Centered-difference beta = -d ln|Xi| / d ln(1 + z/r_min) at each of
    the samples, given in ascending gap order; NaN at the edges and where
    Xi is zero or changes sign inside the stencil."""
    beta = np.full(len(samples), np.nan)
    for i in range(1, len(samples) - 1):
        lo, mid, hi = samples[i - 1], samples[i], samples[i + 1]
        xis = (lo.xi, mid.xi, hi.xi)
        if any(x == 0.0 for x in xis) or len({math.copysign(1.0, x) for x in xis}) > 1:
            continue
        num = math.log(abs(hi.xi)) - math.log(abs(lo.xi))
        den = math.log1p(hi.z_over_rmin) - math.log1p(lo.z_over_rmin)
        beta[i] = -num / den
    return beta


@dataclass(frozen=True)
class SweepRow:
    """One evaluated point in a parameter sweep: the config it was evaluated
    at, and its sample or, on failure, the error message."""

    config: SystemConfig
    sample: EnergySample | None
    error: str | None = None


def energy_sweep(
    configs,
    tolerance: float = DEFAULT_TOLERANCE,
    l_cap: int = DEFAULT_L_CAP,
) -> list:
    """One row per config, in the given order, from the convergence ladder:
    the one loop over sweep points.  A CasimirSpectralError at a point is
    recorded in its row and does not abort the sweep; any other exception
    propagates."""
    rows = []
    for config in configs:
        try:
            sample = convergence_ladder(config, tolerance=tolerance, l_cap=l_cap)
            error = None
        except CasimirSpectralError as exc:  # recorded, not raised
            sample, error = None, str(exc)
        rows.append(SweepRow(config, sample, error))
    return rows
