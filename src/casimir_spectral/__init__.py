"""Non-retarded dispersive energies between a spheroidal particle and a
flat substrate, via diagonalization of the multipolar surface-plasmon
coupling matrix, with a Proximity Force Approximation comparison."""

__version__ = "0.1.0"

from .errors import (
    CasimirSpectralError,
    ConfigParseError,
    ContactError,
    ConvergenceError,
    UndefinedExponentError,
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
    ModeSpectrum,
    SpectralBlock,
    coupling_matrix_D,
    effective_polarizability,
    isolated_depolarization,
    mode_frequencies,
    mode_spectrum,
    spectral_block,
)
from .energy import (
    EnergySample,
    SweepResult,
    convergence_ladder,
    energy_sweep,
    local_exponent,
    zero_point_energy,
)
from .pfa import (
    CurvedSurfacePFA,
    PlatePair,
    mode_integral,
    pfa_energy_sphere_plane,
    pfa_force,
    plate_energy_per_area,
    plate_mode_omega,
)

__all__ = [
    "__version__",
    "CasimirSpectralError",
    "ConfigParseError",
    "ContactError",
    "ConvergenceError",
    "UndefinedExponentError",
    "UnphysicalModeError",
    "Family",
    "Medium",
    "PlacedParticle",
    "Spheroid",
    "SystemConfig",
    "contrast_fc",
    "spectral_u",
    "ModeSpectrum",
    "SpectralBlock",
    "coupling_matrix_D",
    "effective_polarizability",
    "isolated_depolarization",
    "mode_frequencies",
    "mode_spectrum",
    "spectral_block",
    "EnergySample",
    "SweepResult",
    "convergence_ladder",
    "energy_sweep",
    "local_exponent",
    "zero_point_energy",
    "CurvedSurfacePFA",
    "PlatePair",
    "mode_integral",
    "pfa_energy_sphere_plane",
    "pfa_force",
    "plate_energy_per_area",
    "plate_mode_omega",
]
