"""Exception types shared across the package.

The CLI maps SzquadError (bad inputs, violated preconditions) to exit code 2
and keeps exit code 1 for checks that ran but failed.
"""


class SzquadError(Exception):
    """Base class for all input/precondition errors raised by this package."""


class InvalidCoefficientsError(SzquadError):
    """A recurrence coefficient lies on or outside the unit circle."""


class InvalidDegreeError(SzquadError):
    """Polynomial degree exceeds the reversal degree."""


class ZerosNotInDiskError(SzquadError):
    """Schur-Cohn test failed: the polynomial has a zero outside the open unit disk.

    This is a legitimate outcome of the stability test, not an internal failure.
    """


class NotPositiveDefiniteError(SzquadError):
    """Toeplitz moment matrix is not positive definite (degenerate measure)."""


class ResolutionError(SzquadError):
    """Sample grid too coarse for the requested number of moments."""


class InvalidMeasureError(SzquadError):
    """Measure data is unusable (zero mass, negative density, missing moments)."""


class UnsupportedVariantError(SzquadError):
    """Operation not defined for this measure variant."""


class ArityError(SzquadError):
    """Mismatched sequence length (e.g. tail length != m)."""


class NodeCountError(SzquadError):
    """Node finder produced the wrong number of distinct nodes."""


class InternalConsistencyError(SzquadError):
    """Phase/winding bookkeeping failed; usually indicates corrupted coefficients."""


class PositivityViolationError(SzquadError):
    """A quadrature weight came out nonpositive or non-real beyond tolerance."""


class SymmetryViolationError(SzquadError):
    """Circle rule is not symmetric under phi -> 2*pi - phi."""


class LogSingularityError(SzquadError):
    """Density touches zero; log-based transforms are undefined."""


class DegenerateSpecError(SzquadError):
    """Series construction broke down (vanishing constant term)."""

