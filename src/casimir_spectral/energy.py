"""Zero-point energy of the coupled surface-plasmon modes.

All internal arithmetic is in the dimensionless energy

    Xi = U / (hbar omega_p) = (1/2) sum_modes [sqrt(n(z)) - sqrt(n(inf))],

summing every azimuthal sector with multiplicity 1 (m = 0) or 2 (m > 0)
and pairing coupled and isolated modes by sorted index within each
sector.  Local power-law exponents are reported against ln(1 + z/r_min).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import CasimirSpectralError, ConvergenceError, UndefinedExponentError
from .model import SystemConfig
from .spectral import mode_spectrum

DEFAULT_TOLERANCE = 1e-3
DEFAULT_L_CAP = 90
L_STEP = 5  # rung spacing, and first rung, of the convergence ladder


@dataclass(frozen=True)
class EnergySample:
    """Dimensionless zero-point energy at one gap."""

    z: float
    z_over_rmin: float
    xi: float
    l_max_used: int
    converged: bool
    rel_change_last_step: float


@dataclass(frozen=True)
class SweepResult:
    """Energy samples over a z-grid plus local power-law exponents."""

    samples: tuple
    label: dict = field(default_factory=dict)

    @property
    def z_over_rmin(self) -> np.ndarray:
        return np.array([s.z_over_rmin for s in self.samples])

    @property
    def xi(self) -> np.ndarray:
        return np.array([s.xi for s in self.samples])

    def local_exponents(self) -> np.ndarray:
        """beta at each interior grid point; NaN at the edges."""
        beta = np.full(len(self.samples), np.nan)
        for i in range(1, len(self.samples) - 1):
            try:
                beta[i] = local_exponent(self, i)
            except UndefinedExponentError:
                pass
        return beta


def zero_point_energy(config: SystemConfig) -> EnergySample:
    """Xi at fixed truncation order config.l_max."""
    if config.f_c == 0.0:
        xi = 0.0
    else:
        spectrum = mode_spectrum(config)
        xi = 0.5 * spectrum.mode_sum(np.sqrt)
    z = config.particle.gap
    return EnergySample(
        z=z,
        z_over_rmin=z / config.particle.spheroid.r_minor,
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


def local_exponent(sweep: SweepResult, index: int) -> float:
    """Centered-difference beta = -d ln|Xi| / d ln(1 + z/r_min)."""
    samples = sweep.samples
    if len(samples) < 3:
        raise UndefinedExponentError("need at least 3 samples")
    if index < 1 or index > len(samples) - 2:
        raise UndefinedExponentError("index must be interior to the grid")
    lo, mid, hi = samples[index - 1], samples[index], samples[index + 1]
    xis = (lo.xi, mid.xi, hi.xi)
    if any(x == 0.0 for x in xis) or len({math.copysign(1.0, x) for x in xis}) > 1:
        raise UndefinedExponentError(
            "energy is zero or changes sign inside the stencil"
        )
    num = math.log(abs(hi.xi)) - math.log(abs(lo.xi))
    den = math.log1p(hi.z_over_rmin) - math.log1p(lo.z_over_rmin)
    return -num / den


@dataclass(frozen=True)
class SweepRow:
    """One evaluated point in a parameter sweep: the config it was evaluated
    at, and its sample or, on failure, the error message."""

    label: dict
    config: SystemConfig
    sample: EnergySample | None
    error: str | None = None


def energy_sweep(
    make_config,
    z_over_rmin_grid,
    labels=((),),
    tolerance: float = DEFAULT_TOLERANCE,
    l_cap: int = DEFAULT_L_CAP,
) -> list:
    """Evaluate the Cartesian product labels x z-grid with the convergence
    ladder, the one loop over gaps.  A CasimirSpectralError at a point is
    recorded in its row and does not abort the sweep; any other exception
    propagates.

    ``make_config(label, z_over_rmin)`` must return a SystemConfig; it
    receives the grid values as given (no conversion to float).  Output
    ordering is deterministic: labels in given order, then z ascending.
    """
    results = []
    z_grid = sorted(z_over_rmin_grid)
    for label in labels:
        rows = []
        for z_rel in z_grid:
            cfg = make_config(label, z_rel)
            try:
                sample = convergence_ladder(cfg, tolerance=tolerance, l_cap=l_cap)
                error = None
            except CasimirSpectralError as exc:  # recorded, not raised
                sample, error = None, str(exc)
            rows.append(SweepRow(dict(label), cfg, sample, error))
        good = tuple(r.sample for r in rows if r.sample is not None)
        results.append((SweepResult(samples=good, label=dict(label)), rows))
    return results
