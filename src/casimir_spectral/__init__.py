"""Non-retarded dispersive energies between a spheroidal particle and a
flat substrate, via diagonalization of the multipolar surface-plasmon
coupling matrix, with a Proximity Force Approximation comparison."""

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
    spectral_u,
)
from .spectral import (
    SpectralBlock,
    coupling_matrix_D,
    effective_polarizability,
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
from .pfa import (
    CurvedSurfacePFA,
    PlatePair,
    mode_integral,
    pfa_energy_sphere_plane,
    pfa_force,
    plate_energy_per_area,
)

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
    "spectral_u",
    "SpectralBlock",
    "coupling_matrix_D",
    "effective_polarizability",
    "isolated_depolarization",
    "mode_spectrum",
    "spectral_block",
    "EnergySample",
    "convergence_ladder",
    "energy_sweep",
    "local_exponents",
    "zero_point_energy",
    "CurvedSurfacePFA",
    "PlatePair",
    "mode_integral",
    "pfa_energy_sphere_plane",
    "pfa_force",
    "plate_energy_per_area",
]
