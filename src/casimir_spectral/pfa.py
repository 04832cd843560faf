"""Non-retarded plate-plate zero-point energy and the Proximity Force
Approximation for curved surfaces.

The coupled surface-plasmon branch of a Drude half-space facing a static
dielectric across a gap z follows from the quasi-static reflection
condition r_metal(omega) r_sub exp(-2 k z) = 1:

    omega(k, z) = omega_p sqrt((1 + f_c exp(-2 k z)) / 2),

so the energy per unit area is

    V(z) = (hbar omega_p / (4 sqrt(2) pi)) z^{-2} I(f_c),
    I(f_c) = int_0^inf u (sqrt(1 + f_c exp(-2u)) - 1) du,

a pure z^{-2} law.  Energies are in units of hbar*omega_p, like the
spectral energy Xi, and lengths in the units of the gap: V is an energy
per unit area and a force an energy per unit length.
Retardation (the large-distance z^{-3} force regime) is out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from scipy.integrate import quad

from .errors import ContactError
from .model import Medium, SystemConfig, contrast_fc

@dataclass(frozen=True)
class PlatePair:
    """A Drude metal half-space facing a static substrate across a gap."""

    substrate: Medium
    ambient_epsilon: float
    gap: float

    def __post_init__(self):
        if not self.gap > 0.0:
            raise ContactError("plate gap must be positive")
        contrast_fc(self.ambient_epsilon, self.substrate)

    @property
    def f_c(self) -> float:
        return contrast_fc(self.ambient_epsilon, self.substrate)


@dataclass(frozen=True)
class CurvedSurfacePFA:
    """Two curved surfaces with radii R1 (may be inf) and R2."""

    R1: float
    R2: float
    gap: float

    def __post_init__(self):
        if not (self.R1 > 0.0 and self.R2 > 0.0):
            raise ValueError("radii must be positive")
        if not self.gap > 0.0:
            raise ContactError("gap must be positive")

    @property
    def effective_radius(self) -> float:
        if math.isinf(self.R1):
            return self.R2
        if math.isinf(self.R2):
            return self.R1
        return self.R1 * self.R2 / (self.R1 + self.R2)


def mode_integral(f_c: float) -> float:
    """I(f_c) = int_0^inf u (sqrt(1 + f_c e^{-2u}) - 1) du; I(0) = 0,
    strictly increasing on [-1, 1)."""
    if f_c == 0.0:
        return 0.0
    val, err = quad(
        lambda u: u * (math.sqrt(1.0 + f_c * math.exp(-2.0 * u)) - 1.0),
        0.0,
        40.0,
        epsabs=0.0,
        epsrel=1e-10,
        limit=200,
    )
    return val


def plate_energy_per_area(pair: PlatePair) -> float:
    """V(z) = (hbar omega_p / (4 sqrt(2) pi)) z^{-2} I(f_c); negative for
    attractive contrast f_c < 0."""
    return mode_integral(pair.f_c) / (4.0 * math.sqrt(2.0) * math.pi * pair.gap**2)


def pfa_force(curved: CurvedSurfacePFA, pair: PlatePair) -> float:
    """F = 2 pi (R1 R2/(R1+R2)) V(z); R1 = inf reduces to F = 2 pi R V(z)."""
    V = plate_energy_per_area(replace(pair, gap=curved.gap))
    return 2.0 * math.pi * curved.effective_radius * V


def pfa_energy_sphere_plane(config: SystemConfig) -> float:
    """PFA interaction energy of the particle's apex curvature above the
    substrate, in units of hbar*omega_p: integral of the PFA force from
    infinity to the gap, = 2 pi R z V(z) for the z^{-2} plate law.

    R is the particle's apex radius of curvature.
    """
    R = config.particle.spheroid.apex_curvature_radius
    gap = config.particle.gap
    pair = PlatePair(config.substrate_medium, config.ambient_epsilon, gap)
    return 2.0 * math.pi * R * gap * plate_energy_per_area(pair)
