"""Zero-point energy of the coupled surface-plasmon modes.

All internal arithmetic is in the dimensionless energy

    Xi = U / (hbar omega_p) = (1/2) sum_modes [sqrt(n(z)) - sqrt(n(inf))],

summing every azimuthal sector with multiplicity 1 (m = 0) or 2 (m > 0)
and pairing coupled and isolated modes by sorted index within each
sector.  Local power-law exponents are reported against ln(1 + z/r_min).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from . import spectral
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


def zero_point_energy(config: SystemConfig, *, workspace=None) -> EnergySample:
    """Xi at fixed truncation order config.l_max."""
    xi = 0.0
    if config.f_c != 0.0:
        xi = 0.5 * sum(
            block.multiplicity
            * float((np.sqrt(block.eigenvalues) - np.sqrt(block.isolated)).sum())
            for block in mode_spectrum(config, workspace=workspace)
        )
    return EnergySample(
        z_over_rmin=config.particle.z_over_rmin,
        xi=xi,
        l_max_used=config.l_max,
        converged=False,
        rel_change_last_step=math.nan,
    )


def convergence_ladder(
    config: SystemConfig,
    tolerance: float = DEFAULT_TOLERANCE,
    l_cap: int = DEFAULT_L_CAP,
    *,
    workspace=None,
) -> EnergySample:
    """Increase l_max until |delta Xi| / |Xi| <= tolerance.

    The rungs share the spectral workspace given, or one of their own.

    Raises ConvergenceError when the cap is reached without meeting the
    tolerance (expected as the gap goes to zero).
    """
    if not tolerance > 0.0:
        raise ValueError("tolerance must be positive")
    if not isinstance(l_cap, numbers.Integral) or l_cap < 2 * L_STEP:
        # the ladder compares two rungs
        raise ValueError(f"l_cap must be an integer >= {2 * L_STEP}")
    workspace = workspace or spectral._Workspace()
    prev = None
    history = []
    for l in range(L_STEP, l_cap + 1, L_STEP):
        sample = zero_point_energy(config.with_l_max(l), workspace=workspace)
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
        f"energy not converged to {tolerance:g} at l_max {history[-1][0]}, the last "
        f"rung within the cap {l_cap} "
        f"(z/r_min = {config.particle.z_over_rmin:.4g})",
        diagnostics={"history": history},
    )


def local_exponents(samples) -> np.ndarray:
    """Centered-difference beta = -d ln|Xi| / d ln(1 + z/r_min) at each of
    the samples, given in ascending gap order; NaN at the edges, where
    Xi is zero or changes sign inside the stencil, and where the stencil's
    outer gaps are equal."""
    beta = np.full(len(samples), np.nan)
    for i in range(1, len(samples) - 1):
        lo, mid, hi = samples[i - 1], samples[i], samples[i + 1]
        xis = (lo.xi, mid.xi, hi.xi)
        if any(x == 0.0 for x in xis) or len({math.copysign(1.0, x) for x in xis}) > 1:
            continue
        num = math.log(abs(hi.xi)) - math.log(abs(lo.xi))
        den = math.log1p(hi.z_over_rmin) - math.log1p(lo.z_over_rmin)
        if den != 0.0:
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
    propagates.

    One spectral workspace serves every ladder of the sweep and goes when
    it returns or raises.  It keeps the coupling D of each particle that a
    later config repeats (the same spheroid at the same gap over another
    substrate) until the particle's last config: 0.67 MiB at most on fig1's
    default grid, and up to about 10 MiB per repeated particle whose ladder
    climbs to l_cap = 90.  It keeps the weighted Ferrers tables for every
    later gap and spheroid, within spectral._BLOCK_CELLS cells (2 MiB).
    """
    configs = list(configs)
    last = {config.particle: i for i, config in enumerate(configs)}
    workspace = spectral._Workspace(weighted={})
    rows = []
    for i, config in enumerate(configs):
        if last[config.particle] > i:
            workspace.D.setdefault(config.particle, {})
        try:
            sample = convergence_ladder(
                config, tolerance=tolerance, l_cap=l_cap, workspace=workspace
            )
            error = None
        except CasimirSpectralError as exc:  # recorded, not raised
            sample, error = None, str(exc)
        if last[config.particle] == i:
            workspace.D.pop(config.particle, None)
        rows.append(SweepRow(config, sample, error))
    return rows
