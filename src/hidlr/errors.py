"""Exception types shared across the package, and the number checks that raise them."""

import math
import numbers


class HidlrError(Exception):
    """Base class for all package errors."""


class LengthMismatch(HidlrError):
    """Vector/layout dimensions disagree."""


class SingularFit(HidlrError):
    """Probe magnitudes were too degenerate to fit a quadratic."""


class NonFiniteLoss(HidlrError):
    """A loss evaluation produced NaN or Inf."""


class DimensionMismatch(HidlrError):
    """Dataset shape does not match the model architecture."""


class UnknownStrategy(HidlrError):
    """Unrecognised parameter-grouping strategy."""


class ParseError(HidlrError):
    """Malformed input file (config or CSV); message carries location."""


class MissingColumn(HidlrError):
    """CSV lacks a requested column."""


class ValidationError(HidlrError):
    """Config violates an invariant."""


def check_real(name: str, value) -> float:
    """``value`` as a float; a bool or a string that is not a number is an error."""
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise ValidationError(f"{name} must be a number, got {value!r}")


def check_positive(name: str, value) -> float:
    """``value`` as a float that is finite and > 0."""
    value = check_real(name, value)
    if not 0.0 < value < math.inf:
        raise ValidationError(f"{name} must be a finite number > 0, got {value}")
    return value


def check_int(name: str, value, low: int = 1, high=None) -> int:
    """``value`` as an int in ``[low, high]``; a bool or a non-integer is an error."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if high is not None and not low <= value <= high:
        raise ValidationError(f"{name} {value} outside [{low}, {high}]")
    if value < low:
        raise ValidationError(f"{name} must be >= {low}, got {value}")
    return int(value)
