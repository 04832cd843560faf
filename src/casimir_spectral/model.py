"""Geometry and media of the spheroid-substrate system.

Conventions
-----------
* The spheroid's rotation (symmetry) axis is perpendicular to the substrate.
* ``r_major >= r_minor > 0``; a sphere has both equal.
* Prolate: symmetry axis half-length is ``r_major``; oblate: ``r_minor``.
* The gap ``z`` is the closest particle-substrate distance, so the center
  height is ``d = z + r_perp`` with ``r_perp`` the semi-axis along the
  surface normal.
* Oblate spheroidal coordinates use focal-ring radius ``F = e * r_major``
  and radial coordinate ``zeta0 = r_minor / F``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from enum import Enum

from .errors import ContactError, DegenerateCoordinateError, InvalidMediumError

class Family(str, Enum):
    PROLATE = "prolate"
    OBLATE = "oblate"
    SPHERE = "sphere"


@dataclass(frozen=True)
class Spheroid:
    """A spheroid with semi-axes ``r_major >= r_minor``."""

    r_major: float
    r_minor: float
    family: Family

    def __post_init__(self):
        object.__setattr__(self, "family", Family(self.family))
        if not (self.r_minor > 0.0 and math.isfinite(self.r_major)):
            raise ValueError("semi-axes must be positive and finite")
        if self.r_major < self.r_minor:
            raise ValueError("r_major must be >= r_minor")
        equal = self.r_major == self.r_minor
        if equal != (self.family is Family.SPHERE):
            raise ValueError("family must be 'sphere' iff r_major == r_minor")

    @classmethod
    def sphere(cls, radius: float) -> "Spheroid":
        return cls(radius, radius, Family.SPHERE)

    @classmethod
    def prolate(cls, r_major: float, r_minor: float) -> "Spheroid":
        return cls(r_major, r_minor, Family.PROLATE)

    @classmethod
    def oblate(cls, r_major: float, r_minor: float) -> "Spheroid":
        return cls(r_major, r_minor, Family.OBLATE)

    @property
    def eccentricity(self) -> float:
        return math.sqrt(1.0 - (self.r_minor / self.r_major) ** 2)

    @property
    def focal_scale(self) -> float:
        """Semi-focal distance (prolate) or focal-ring radius (oblate)."""
        if self.family is Family.SPHERE:
            raise DegenerateCoordinateError("sphere has no focal scale")
        return self.eccentricity * self.r_major

    @property
    def r_perp(self) -> float:
        """Semi-axis along the substrate normal."""
        if self.family is Family.OBLATE:
            return self.r_minor
        return self.r_major

    @property
    def r_par(self) -> float:
        """Semi-axis parallel to the substrate."""
        if self.family is Family.OBLATE:
            return self.r_major
        return self.r_minor

    @property
    def apex_curvature_radius(self) -> float:
        """Radius of curvature at the point closest to the substrate."""
        if self.family is Family.OBLATE:
            return self.r_major**2 / self.r_minor
        if self.family is Family.PROLATE:
            return self.r_minor**2 / self.r_major
        return self.r_major


def spheroid_xi0(spheroid: Spheroid) -> float:
    """Radial spheroidal coordinate of the surface.

    Prolate: xi0 = 1/e > 1.  Oblate: zeta0 = r_minor / (e * r_major) > 0.
    """
    if spheroid.family is Family.SPHERE:
        raise DegenerateCoordinateError(
            "spheroidal coordinate degenerates for a sphere; use the spherical branch"
        )
    e = spheroid.eccentricity
    if spheroid.family is Family.PROLATE:
        return 1.0 / e
    return spheroid.r_minor / (e * spheroid.r_major)


@dataclass(frozen=True)
class PlacedParticle:
    """A spheroid at gap ``gap`` above the substrate plane."""

    spheroid: Spheroid
    gap: float

    def __post_init__(self):
        if not (self.gap > 0.0 and math.isfinite(self.gap)):
            raise ContactError("gap must be positive (particle must not touch substrate)")

    @property
    def center_height(self) -> float:
        return self.gap + self.spheroid.r_perp

    @property
    def z_over_rmin(self) -> float:
        """The gap in units of the minor semi-axis, the sweep coordinate."""
        return self.gap / self.spheroid.r_minor


@dataclass(frozen=True)
class Medium:
    """Static substrate or ambient medium of dielectric constant epsilon;
    epsilon = inf is the perfect conductor.  The particle is always the
    Drude metal of the energy."""

    epsilon: float

    def __post_init__(self):
        if not self.epsilon > 0.0:
            raise InvalidMediumError("medium requires epsilon > 0 (inf: perfect conductor)")

    @classmethod
    def constant(cls, epsilon: float) -> "Medium":
        if not epsilon < math.inf:  # NaN fails too
            raise InvalidMediumError("constant medium requires finite epsilon")
        return cls(epsilon)

    @classmethod
    def perfect_conductor(cls) -> "Medium":
        return cls(math.inf)


def contrast_fc(ambient_epsilon: float, substrate: Medium) -> float:
    """Substrate contrast factor (eps_amb - eps_sub)/(eps_amb + eps_sub).

    A perfect conductor gives exactly -1.  Result lies in [-1, 1).
    """
    if not 0.0 < ambient_epsilon < math.inf:
        raise InvalidMediumError("ambient epsilon must be positive and finite")
    eps_sub = substrate.epsilon
    if eps_sub == math.inf:
        return -1.0
    return (ambient_epsilon - eps_sub) / (ambient_epsilon + eps_sub)


@dataclass(frozen=True)
class SystemConfig:
    """Full system description: placed Drude particle, media, truncation
    order."""

    particle: PlacedParticle
    substrate_medium: Medium
    ambient_epsilon: float = 1.0
    l_max: int = 10

    def __post_init__(self):
        # bool is an Integral, but True is no truncation order
        l_max = self.l_max
        if isinstance(l_max, bool) or not isinstance(l_max, numbers.Integral) or l_max < 1:
            raise ValueError("l_max must be an integer >= 1")
        # Keys f_c early so invalid media fail at construction.
        contrast_fc(self.ambient_epsilon, self.substrate_medium)

    @property
    def f_c(self) -> float:
        return contrast_fc(self.ambient_epsilon, self.substrate_medium)

    def with_l_max(self, l_max: int) -> "SystemConfig":
        return replace(self, l_max=l_max)
