"""Non-retarded dispersive energies between a spheroidal particle and a
flat substrate, via diagonalization of the multipolar surface-plasmon
coupling matrix, with a Proximity Force Approximation comparison.

`import casimir_spectral` loads numpy and scipy.linalg only; the PFA names
(`mode_integral`, `pfa_energy_sphere_plane`, `plate_energy_per_area`) load
`pfa`, and with it scipy.integrate, on first use.  ln(n!) is a port of the
Cephes code behind scipy.special.gammaln, bit for bit the same, so the core
does not load scipy.special; math.lgamma would move far-field Xi by up to
2.9e-10."""

__version__ = "0.1.0"

from .errors import (
    CasimirSpectralError,
    ConfigParseError,
    ContactError,
    ConvergenceError,
    UnphysicalModeError,
)
from .model import (
    Family,
    Medium,
    PlacedParticle,
    Spheroid,
    SystemConfig,
    contrast_fc,
)
from .spectral import (
    SectorModes,
    SpectralBlock,
    isolated_depolarization,
    mode_spectrum,
    spectral_block,
)
from .energy import (
    EnergySample,
    convergence_ladder,
    energy_sweep,
    local_exponents,
    zero_point_energy,
)

# PEP 562: the PFA names resolve on first access, so scipy.integrate loads then
_PFA_NAMES = ("mode_integral", "pfa_energy_sphere_plane", "plate_energy_per_area")


def __getattr__(name):
    if name in _PFA_NAMES:
        from . import pfa

        return getattr(pfa, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "__version__",
    "CasimirSpectralError",
    "ConfigParseError",
    "ContactError",
    "ConvergenceError",
    "UnphysicalModeError",
    "Family",
    "Medium",
    "PlacedParticle",
    "Spheroid",
    "SystemConfig",
    "contrast_fc",
    "SectorModes",
    "SpectralBlock",
    "isolated_depolarization",
    "mode_spectrum",
    "spectral_block",
    "EnergySample",
    "convergence_ladder",
    "energy_sweep",
    "local_exponents",
    "zero_point_energy",
    "mode_integral",
    "pfa_energy_sphere_plane",
    "plate_energy_per_area",
]
