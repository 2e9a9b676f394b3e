"""Exception types shared across the package, and the guards that name a bad argument.

Every numeric argument of a public function goes through ``_check_integer``,
``_check_real`` or ``_real_array`` before anything compares or computes with
it.  A bool is not a number, NaN and +-inf are rejected, and bounds are
inclusive (x > b is ``math.nextafter(b, math.inf)``).  Callers keep only
relations between guarded arguments (a < b), shape and non-numeric checks.
"""

import math
import numbers

import numpy as np


class ConfigError(ValueError):
    """An experiment configuration is inconsistent or incomplete."""


class BudgetError(RuntimeError):
    """Predicted cost of an estimator call exceeds the configured budget."""


class EvaluationError(RuntimeError):
    """A user-supplied function produced a non-finite value."""


_POSITIVE = math.nextafter(0.0, math.inf)  # the inclusive form of x > 0


def _bounds(low, high) -> str:
    lower = " > 0" if low == _POSITIVE else f" >= {low}"
    if high == math.inf:
        return "" if low == -math.inf else lower
    return f" <= {high}" if low == -math.inf else f" in [{low}, {high}]"


def _check_integer(name: str, value, low: int, high=math.inf) -> None:
    """Reject a bool, a non-integer, or an integer outside [low, high], naming ``name``."""
    integer = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if not (integer and low <= value <= high):
        raise ValueError(f"{name} must be an integer{_bounds(low, high)}, got {value!r}")


def _check_real(name: str, value, low: float = -math.inf, high: float = math.inf) -> float:
    """``value`` as a float; a ValueError names ``name`` unless it is a finite real number, not a bool, in [low, high]."""
    try:
        out = float(value) if isinstance(value, numbers.Real) and not isinstance(value, bool) else math.nan
    except OverflowError:  # an integer beyond the float range
        out = math.nan
    if not (math.isfinite(out) and low <= out <= high):
        raise ValueError(f"{name} must be a finite real number{_bounds(low, high)}, got {value!r}")
    return out


def _real_array(name: str, value, low: float = -math.inf, high: float = math.inf) -> np.ndarray:
    """``value`` as a float array; a ValueError names ``name`` unless it holds only finite real numbers in [low, high]."""
    out = np.asarray(value)
    if out.dtype.kind in "iuf":
        out = out.astype(float, copy=False)
        if np.all(np.isfinite(out) & (low <= out) & (out <= high)):
            return out
    raise ValueError(f"{name} must hold finite real numbers{_bounds(low, high)}, got {value!r}")


def _check_instance(name: str, value, cls: type) -> None:
    """Reject a ``value`` that is not a ``cls``, naming ``name``."""
    if not isinstance(value, cls):
        raise ValueError(f"{name} must be a {cls.__name__}, got {value!r}")
