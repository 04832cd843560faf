"""Non-retarded plate-plate zero-point energy and the Proximity Force
Approximation of a particle's apex curvature.

The coupled surface-plasmon branch of a Drude half-space facing a static
dielectric across a gap z follows from the quasi-static reflection
condition r_metal(omega) r_sub exp(-2 k z) = 1:

    omega(k, z) = omega_p sqrt((1 + f_c exp(-2 k z)) / 2),

so the energy per unit area is

    V(z) = (hbar omega_p / (4 sqrt(2) pi)) z^{-2} I(f_c),
    I(f_c) = int_0^inf u (sqrt(1 + f_c exp(-2u)) - 1) du,

a pure z^{-2} law.  Energies are in units of hbar*omega_p, like the
spectral energy Xi, and lengths in the units of the gap.
Retardation (the large-distance regime) is out of scope.
"""

from __future__ import annotations

import math

from scipy.integrate import quad

from .errors import ContactError, SpecFunDomainError
from .model import SystemConfig


def mode_integral(f_c: float) -> float:
    """I(f_c) = int_0^inf u (sqrt(1 + f_c e^{-2u}) - 1) du for f_c in
    [-1, 1); I(0) = 0, strictly increasing.  For |f_c| <= 1/4, where the
    integrand cancels, it is the series sum_k C(1/2, k) f_c^k / (4 k^2)."""
    if not -1.0 <= f_c < 1.0:  # NaN fails too
        raise SpecFunDomainError(f"mode integral needs -1 <= f_c < 1, got f_c={f_c!r}")
    if abs(f_c) <= 0.25:  # the terms past k = 30 are below 1e-23 of the sum
        terms, coeff = [], 0.5 * f_c  # coeff = C(1/2, k) f_c^k
        for k in range(1, 31):
            terms.append(coeff / (4 * k * k))
            coeff *= (0.5 - k) / (k + 1) * f_c
        return math.fsum(terms)
    val, err = quad(
        lambda u: u * (math.sqrt(1.0 + f_c * math.exp(-2.0 * u)) - 1.0),
        0.0,
        40.0,
        epsabs=0.0,
        epsrel=1e-10,
        limit=200,
    )
    return val


def plate_energy_per_area(f_c: float, gap: float) -> float:
    """V(z) = (hbar omega_p / (4 sqrt(2) pi)) z^{-2} I(f_c) at gap z;
    negative for attractive contrast f_c < 0."""
    if not gap > 0.0:
        raise ContactError("plate gap must be positive")
    return mode_integral(f_c) / (4.0 * math.sqrt(2.0) * math.pi * gap**2)


def pfa_energy_sphere_plane(config: SystemConfig) -> float:
    """PFA interaction energy of the particle's apex curvature above the
    substrate, in units of hbar*omega_p: integral of the PFA force from
    infinity to the gap, = 2 pi R z V(z) for the z^{-2} plate law.

    R is the particle's apex radius of curvature.
    """
    R = config.particle.spheroid.apex_curvature_radius
    gap = config.particle.gap
    return 2.0 * math.pi * R * gap * plate_energy_per_area(config.f_c, gap)
