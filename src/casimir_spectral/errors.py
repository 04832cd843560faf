"""Exception types shared across the package."""


class CasimirSpectralError(Exception):
    """Base class for all package-specific errors."""


class InvalidMediumError(CasimirSpectralError, ValueError):
    """A medium has non-physical parameters or is used in an unsupported role."""


class ContactError(CasimirSpectralError, ValueError):
    """Particle touches or penetrates the substrate (gap <= 0)."""


class DegenerateCoordinateError(CasimirSpectralError, ValueError):
    """Spheroidal coordinate requested for a sphere (aspect ratio exactly 1)."""


class SpecFunDomainError(CasimirSpectralError, ValueError):
    """Argument outside the domain of a special function."""


class SpecFunOverflowError(CasimirSpectralError, OverflowError):
    """Function values exceed double range; reduce l_max or change branch."""

    def __init__(self, message, m=None):
        super().__init__(message)
        self.m = m  # azimuthal order of the failing table, when known


class UnphysicalModeError(CasimirSpectralError, ValueError):
    """An eigenvalue left (0, 1): truncation too small or near-contact geometry."""


class ConvergenceError(CasimirSpectralError, RuntimeError):
    """Multipolar truncation ladder hit its cap without meeting tolerance."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class ContractViolationError(CasimirSpectralError, ValueError):
    """An internal matrix contract was violated: H is not square, finite
    or symmetric, D's weights have the wrong signs or D is not symmetric,
    or LAPACK returned info != 0."""


class OracleError(CasimirSpectralError, RuntimeError):
    """A reference oracle failed to converge to its declared tolerance."""


class MeshResolutionError(OracleError):
    """BEM mesh too coarse for the requested eigenvalue tolerance."""


class ConfigParseError(CasimirSpectralError, ValueError):
    """Run-configuration text could not be parsed."""

    def __init__(self, message, line=None, key=None):
        super().__init__(message)
        self.line = line
        self.key = key
