"""Exception classes shared across the lab."""


class ParadiffError(Exception):
    """Base class for all errors raised by paradiff_lab."""


class AliasingRisk(ParadiffError):
    """A frequency-set operation could wrap around the lattice; the grid is
    too small for the support statement to be meaningful."""


class BadRadii(ParadiffError):
    """Modulation-function radii must satisfy 0 < r < R."""


class GridTooCoarse(ParadiffError):
    """The construction needs frequencies the grid cannot represent."""


class LevelOutOfRange(ParadiffError):
    """Dyadic level outside the range representable on this grid."""


class DepthUnsupported(ParadiffError):
    """Requested derivative depth exceeds the supported finite-difference order."""


class EmptyShell(ParadiffError):
    """A dyadic shell contains no lattice point."""


class NotAMultiplier(ParadiffError):
    """Symbol is not x-independent, so it cannot act as a Fourier multiplier."""


class GridMismatch(ParadiffError):
    """Operands live on different grids."""


class TooLarge(ParadiffError):
    """Dense-matrix or dense-symbol construction would exceed the size cap."""


class SupportViolation(ParadiffError):
    """A spectral support precondition failed; offending points are reported."""

    def __init__(self, message, offenders=None):
        super().__init__(message)
        self.offenders = offenders or []


class BadExponent(ParadiffError):
    """Exponent parameters (s, p, q, t, ...) outside the admissible range."""


class NotResolvable(ParadiffError):
    """No dyadic shell of the homogeneous partition meets the lattice."""


class ConfigError(ParadiffError):
    """Experiment configuration failed validation."""
