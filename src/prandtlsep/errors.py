"""Exception taxonomy shared by all modules."""


class PrandtlSepError(Exception):
    """Base class for all package errors."""


class UnsupportedInputError(PrandtlSepError):
    """Operation applied to an input outside its symbolic domain."""


class DegreeCapError(PrandtlSepError):
    """Polynomial degree exceeded the runaway-expansion guard."""


class InvalidProfileError(PrandtlSepError):
    """Profile violates a structural precondition (normalization, monotonicity)."""


class AlgebraCertificateError(PrandtlSepError):
    """An exact algebraic identity failed to certify."""


class DomainError(PrandtlSepError):
    """Numeric argument outside its admissible range."""


class InvalidInitialDataError(PrandtlSepError):
    """Constructed initial data violates its invariants on the grid."""


class TooFewNodesError(PrandtlSepError):
    """Grid too coarse for the requested stencil."""


class ExtrapolationError(PrandtlSepError):
    """Interpolation query outside the grid span."""


class SingularInputError(PrandtlSepError):
    """Input does not vanish fast enough at the wall for a non-local operator."""


class InvalidStateError(PrandtlSepError):
    """Marching state violates its invariants."""


class StepFailureError(PrandtlSepError):
    """Marching step could not be accepted before the step size underflowed."""


class InconsistentLambdaError(PrandtlSepError):
    """Rescaled profile fails the wall-slope normalization check."""


class FitFailureError(PrandtlSepError):
    """Nonlinear fit did not converge."""


class ConfigError(PrandtlSepError):
    """Run configuration invalid or out of documented range."""


class MissingArtifactError(PrandtlSepError):
    """Expected run artifact not found on disk."""
