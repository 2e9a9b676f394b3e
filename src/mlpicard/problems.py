"""Built-in test problems with known exact solutions.

Both problems expose the exact value-and-gradient pair, analytic
Lipschitz constants, and the analytic suprema the error bounds consume,
so convergence studies can report empirical error against truth and
compare it with the a-priori bound.
"""

from __future__ import annotations

import inspect
import math
from typing import Callable, Dict

import numpy as np

from .analysis import _exp
from .errors import _POSITIVE, _check_instance, _check_integer, _check_real, _real_array
from .mlp_core import Problem

__all__ = [
    "PROBLEMS",
    "build_problem",
    "heat_quadratic",
    "manufactured_sine",
    "pde_residual_fd",
]


def _finite(value: float) -> float | None:
    """An analytic bound input, or None (bound "n/a") where it overflowed."""
    return value if math.isfinite(value) else None


def _row_sum(x: np.ndarray) -> np.ndarray:
    """Sum over the last axis; on short rows numpy's per-row reduction costs about 25x a column add.

    Same bits up to the sign of a zero sum for d <= 7; numpy's pairwise order from 8.
    """
    d = x.shape[-1]
    if d > 7:
        return np.sum(x, axis=-1)
    total = x[..., 0]
    for i in range(1, d):
        total = total + x[..., i]
    return total


def heat_quadratic(dim: int, horizon: float = 1.0, box_radius: float = 3.0) -> Problem:
    """Zero nonlinearity with quadratic terminal g(x) = |x|^2.

    Exact solution u(t, x) = |x|^2 + d (T - t) with gradient 2x.  The
    terminal condition is only locally Lipschitz, so the problem
    declares an evaluation box |x|_inf <= box_radius on which each
    coordinate constant is 2 * box_radius.
    """
    _check_integer("dim", dim, 1)
    d, T = int(dim), _check_real("horizon", horizon, _POSITIVE)
    box_radius = _check_real("box_radius", box_radius, _POSITIVE)

    def terminal(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return _row_sum(x * x)

    def nonlinearity(t: float, x: np.ndarray, w: np.ndarray, z: np.ndarray) -> np.ndarray:
        return np.zeros(np.shape(w))

    def exact(t: float, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape[:-1] + (d + 1,))
        out[..., 0] = _row_sum(x * x) + d * (T - t)
        out[..., 1:] = 2.0 * x
        return out

    # all heat-operator images of u beyond k = 0 vanish, so the k = 0
    # sup over the box is both sup_u and the derivative ratio
    k0 = _finite(max(d * (box_radius * box_radius) + d * T, 2.0 * box_radius))
    return Problem(
        horizon=T,
        dim=d,
        terminal=terminal,
        nonlinearity=nonlinearity,
        lip_f=np.zeros(d + 1),
        lip_g=np.full(d, 2.0 * box_radius),
        exact=exact,
        sup_f0=0.0,
        sup_u=k0,
        deriv_ratio=k0,
        box_radius=float(box_radius),
        name="heat_quadratic",
    )


def manufactured_sine(
    dim: int,
    horizon: float = 1.0,
    c: float | None = None,
    beta: float = 0.5,
    gamma: float = 0.5,
) -> Problem:
    """Sine solution with a gradient-dependent nonlinearity.

    The exact solution is u(t, x) = sin(t + c * sum(x)); the source term
    is reverse-engineered so that

        f(t, x, w, z) = h(t, x) + beta sin(w) + gamma sin(z_1)

    makes the equation hold identically, with
    h = -cos(phi) + (d c^2 / 2) sin(phi) - beta sin(sin(phi))
    - gamma sin(c cos(phi)) and phi = t + c * sum(x).  Lipschitz data:
    L = (beta, gamma, 0, ..., 0) and K = (c, ..., c).

    Default c = 1/dim keeps the derivative growth mild enough that the
    error bounds stay finite and convergence is visible by level 4.
    """
    _check_integer("dim", dim, 1)
    d, T = int(dim), _check_real("horizon", horizon, _POSITIVE)
    c = _check_real("c", 1.0 / d if c is None else c, 0.0)
    beta, gamma = _check_real("beta", beta, 0.0), _check_real("gamma", gamma, 0.0)
    kappa = 0.5 * d * c * c

    def phase(t: float, x: np.ndarray) -> np.ndarray:
        return t + c * _row_sum(np.asarray(x, dtype=float))

    def terminal(x: np.ndarray) -> np.ndarray:
        return np.sin(phase(T, x))

    def source(t: float, x: np.ndarray) -> np.ndarray:
        phi = phase(t, x)
        sin_phi, cos_phi = np.sin(phi), np.cos(phi)
        return -cos_phi + kappa * sin_phi - beta * np.sin(sin_phi) - gamma * np.sin(c * cos_phi)

    def nonlinearity(t: float, x: np.ndarray, w: np.ndarray, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        return source(t, x) + beta * np.sin(np.asarray(w, dtype=float)) + gamma * np.sin(z[..., 0])

    def exact(t: float, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        phi = phase(t, x)
        out = np.empty(x.shape[:-1] + (d + 1,))
        out[..., 0] = np.sin(phi)
        out[..., 1:] = c * np.cos(phi)[..., None]
        return out

    lip_f = np.zeros(d + 1)
    lip_f[0] = beta
    lip_f[1] = gamma

    # the heat operator maps span{sin(phi), cos(phi)} to itself with
    # coefficient matrix [[-kappa, -1], [1, -kappa]]; its operator norm
    # is sqrt(1 + kappa^2) <= 1 + kappa, giving the closed-form ratio
    sup_f0 = math.sqrt(1.0 + kappa * kappa) + beta * math.sin(1.0) + gamma * math.sin(min(c, 0.5 * math.pi))
    log_growth = math.log1p(kappa)
    log_amp = math.log1p(c * d)
    deriv_ratio = _finite(_exp(max(k * log_growth + log_amp - 0.75 * math.lgamma(k + 1) for k in range(201))))

    return Problem(
        horizon=T,
        dim=d,
        terminal=terminal,
        nonlinearity=nonlinearity,
        lip_f=lip_f,
        lip_g=np.full(d, c),
        exact=exact,
        sup_f0=_finite(sup_f0),
        sup_u=max(1.0, c),
        deriv_ratio=deriv_ratio,
        box_radius=1.0,
        name="manufactured_sine",
    )


def pde_residual_fd(problem: Problem, t: float, x: np.ndarray) -> np.ndarray:
    """Central-difference residual du/dt + (1/2) Laplacian(u) + f at (t, x), with step h = 1e-4.

    Uses the exact solution's value component for the differences and
    its gradient component as the gradient argument of f.  ``x`` has
    shape (L, d); t must satisfy h <= t <= horizon - h.
    """
    _check_instance("problem", problem, Problem)
    if problem.exact is None:
        raise ValueError("residual check requires an exact solution")
    t, h = _check_real("t", t), 1e-4
    if not h <= t <= problem.horizon - h:
        raise ValueError(f"need h <= t <= horizon - h for central differences, got t={t}")
    x, d = _real_array("x", x), problem.dim
    if x.ndim != 2 or x.shape[1] != d:
        raise ValueError(f"x must have shape (L, {d}), got {x.shape}")

    def value(tt: float, xx: np.ndarray) -> np.ndarray:
        return np.asarray(problem.exact(tt, xx), dtype=float)[..., 0]

    du_dt = (value(t + h, x) - value(t - h, x)) / (2.0 * h)
    u0 = value(t, x)
    lap = np.zeros_like(u0)
    for i in range(d):
        shift = np.zeros(d)
        shift[i] = h
        lap += value(t, x + shift) - 2.0 * u0 + value(t, x - shift)
    lap /= h * h
    grad = np.asarray(problem.exact(t, x), dtype=float)[..., 1:]
    fval = np.asarray(problem.nonlinearity(t, x, u0, grad), dtype=float)
    return du_dt + 0.5 * lap + fval


PROBLEMS: Dict[str, Callable[..., Problem]] = {
    "heat_quadratic": heat_quadratic,
    "manufactured_sine": manufactured_sine,
}


def build_problem(name: str, dim: int, **overrides: float) -> Problem:
    """Instantiate a registered problem; the overrides are its builder's keywords."""
    if not (isinstance(name, str) and name in PROBLEMS):
        raise ValueError(f"unknown problem {name!r}; available: {sorted(PROBLEMS)}")
    builder = PROBLEMS[name]
    unknown = set(overrides) - set(inspect.signature(builder).parameters)  # dim is build_problem's own keyword
    if unknown:
        raise ValueError(f"unknown parameters for {name}: {sorted(unknown)}")
    return builder(dim=dim, **overrides)
