"""Exception types shared across the package, and the checks of scalar parameters."""

import math
from numbers import Integral, Real


class TvTomoError(Exception):
    """Base class for all package-specific errors."""


class InvalidDimensionError(TvTomoError, ValueError):
    """Grid or operator dimension outside its allowed range."""


class ShapeMismatchError(TvTomoError, ValueError):
    """Operands built for incompatible grid or vector sizes."""


class ResolutionMismatchError(TvTomoError, ValueError):
    """Resolutions that are not integer multiples of each other."""


class InvalidGeometryError(TvTomoError, ValueError):
    """Degenerate ray or inconsistent scan geometry."""


class ParameterError(TvTomoError, ValueError):
    """Out-of-range algorithm parameter (e.g. nonpositive alpha)."""


class SolverFailureError(TvTomoError, RuntimeError):
    """Interior-point or linear solver breakdown.

    Carries the achieved residual and, when available, the convergence
    report accumulated up to the failure.
    """

    def __init__(self, message, residual=None, report=None):
        super().__init__(message)
        self.residual = residual
        self.report = report


class NoSelectionError(TvTomoError, RuntimeError):
    """No regularization parameter satisfies the selection rule."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics


class OutOfRangeError(TvTomoError, ValueError):
    """Target value outside the interpolable range of a curve."""


class DegeneratePriorError(TvTomoError, ValueError):
    """Prior image whose forward projection vanishes."""


class FormatError(TvTomoError, ValueError):
    """Malformed file header or truncated payload."""

    def __init__(self, message, byte_offset=None):
        if byte_offset is not None:
            message = f"{message} (at byte offset {byte_offset})"
        super().__init__(message)
        self.byte_offset = byte_offset


class NoCornerWarning(UserWarning):
    """L-curve has no well-defined corner; falling back to max |curvature|."""


def check_count(name, value, minimum, error):
    """Raise ``error`` unless ``value`` is an integer >= minimum; a ``bool`` is not."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < minimum:
        raise error(f"{name} takes integers >= {minimum}, got {value!r}")


def check_real(name, value, error, strict=True):
    """Raise ``error`` unless ``value`` is a finite real > 0, or >= 0 when
    not ``strict``; a ``bool`` or ``str`` is not."""
    if isinstance(value, bool) or not isinstance(value, Real) or not (
            (0 < value if strict else 0 <= value) and value < math.inf):
        raise error(f"{name} takes finite reals {'>' if strict else '>='} 0.0, got {value!r}")
