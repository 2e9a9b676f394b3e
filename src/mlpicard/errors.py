"""Exception types shared across the package, and the guards that name a bad argument."""

import numbers

import numpy as np


class ConfigError(ValueError):
    """An experiment configuration is inconsistent or incomplete."""


class BudgetError(RuntimeError):
    """Predicted cost of an estimator call exceeds the configured budget."""


class EvaluationError(RuntimeError):
    """A user-supplied function produced a non-finite value."""


def _check_integer(name: str, value, low: int, high=None) -> None:
    """Reject a bool, a non-integer, or an integer outside [low, high], naming ``name``."""
    integer = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if not (integer and low <= value and (high is None or value <= high)):
        bounds = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ValueError(f"{name} must be an integer {bounds}, got {value!r}")


def _check_real(name: str, value) -> float:
    """``value`` as a float; a ValueError names ``name`` unless it is a real number other than a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(value)


def _real_array(name: str, value) -> np.ndarray:
    """``value`` as a float array; a ValueError names ``name`` unless it holds only real numbers."""
    out = np.asarray(value)
    if out.dtype.kind not in "iuf":
        raise ValueError(f"{name} must hold real numbers, got {value!r}")
    return out.astype(float, copy=False)
