"""Closed-form error bounds, cost recursions and small special functions.

The bound formulas multiply factors like C^n 2^(n-1) e^M, which overflow
double precision quickly, so every bound is assembled in log space and
exponentiated once at the end.  The cost recursions are evaluated with
exact (arbitrary precision) integer arithmetic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import _POSITIVE, _check_instance, _check_integer, _check_real, _real_array

__all__ = [
    "BoundInputs",
    "binomial",
    "bound_nmq",
    "constant_C",
    "cost_fe_exact",
    "cost_rn_exact",
    "iterated_gl_upper_bound",
    "log_bound_nmq",
    "log_bound_nnn",
    "log_gamma",
    "norm_log_subadditivity_check",
]


def log_gamma(x: float) -> float:
    """log(Gamma(x)) for x > 0, from the C library's ``lgamma``."""
    return math.lgamma(_check_real("x", x, _POSITIVE))


def binomial(n: int, k: int) -> int:
    """Exact binomial coefficient C(n, k)."""
    _check_integer("n", n, 0)
    _check_integer("k", k, 0)
    return math.comb(n, k)


def count_increasing_chains(n: int, l0: int, j: int) -> int:
    """Number of integer chains l0 < l_1 < ... < l_j < n, by enumeration.

    Brute-force counterpart of ``binomial(n - l0 - 1, j)``; kept as an
    independent oracle for tests and the self-check.
    """
    _check_integer("n", n, 1)
    _check_integer("l0", l0, 0, n - 1)
    candidates = range(l0 + 1, n)
    return sum(1 for _ in itertools.combinations(candidates, j))


def norm_log_subadditivity_check(x, y, p: int, ord: float = 2) -> bool:
    """True iff 1 + |x+y|^p <= (1 + |y|)^p (1 + |x|^p) for real p >= 1 and the norm of order ord >= 1 (or inf)."""
    _check_real("p", p, 1.0)
    if ord != math.inf:
        ord = _check_real("ord", ord, 1.0)
    x, y = _real_array("x", x), _real_array("y", y)
    if x.shape != y.shape:
        raise ValueError("x and y must have the same shape")
    nx = np.linalg.norm(x, ord)
    ny = np.linalg.norm(y, ord)
    nxy = np.linalg.norm(x + y, ord)
    return bool(1.0 + nxy**p <= (1.0 + ny) ** p * (1.0 + nx**p))


def constant_C(T: float, t0: float, lip_f_l1: float) -> float:
    """Growth constant 2(sqrt(T-t0)+1) sqrt((T-t0) pi) (|L|_1 + 1) + 1."""
    T, t0, lip_f_l1 = _check_real("T", T), _check_real("t0", t0), _check_real("lip_f_l1", lip_f_l1, 0.0)
    if not t0 < T:
        raise ValueError(f"need t0 < T, got t0={t0}, T={T}")
    span = T - t0
    return 2.0 * (math.sqrt(span) + 1.0) * math.sqrt(span * math.pi) * (lip_f_l1 + 1.0) + 1.0


def iterated_gl_upper_bound(k: int, span: float) -> float:
    """Upper bound 2 (span*pi)^(k/2) / Gamma(k/2) for the iterated node sums."""
    _check_integer("k", k, 1)
    span = _check_real("span", span, 0.0)
    if span == 0.0:
        return 0.0
    return math.exp(math.log(2.0) + 0.5 * k * math.log(span * math.pi) - log_gamma(0.5 * k))


@dataclass(frozen=True)
class BoundInputs:
    """Everything the a-priori error bound needs.

    ``sup_f0`` bounds |f(t, x, 0, 0)| over the time-space domain, ``sup_u``
    bounds the sup norm of the exact value-and-gradient pair, and
    ``deriv_ratio`` is the supremum over k >= 0 of the sup norm of
    (1, grad) applied to the k-fold heat operator image of the exact
    solution, scaled by (k!)^(3/4) -- the scaling that matches the
    default smoothness split alpha = 1/4.  Callers choosing another
    alpha must supply the ratio scaled by (k!)^(1 - alpha) instead.
    """

    T: float
    t0: float
    lip_f_l1: float
    lip_g_l1: float
    sup_f0: float
    sup_u: float
    deriv_ratio: float
    n: int
    M: int
    Q: int
    alpha: float = 0.25

    def __post_init__(self):
        for name in ("n", "M", "Q"):
            _check_integer(name, getattr(self, name), 1)
        for name in ("lip_f_l1", "lip_g_l1", "sup_f0", "sup_u", "deriv_ratio"):
            _check_real(name, getattr(self, name), 0.0)
        _check_real("alpha", self.alpha, 0.0, 1.0)
        if not _check_real("t0", self.t0) < _check_real("T", self.T, _POSITIVE):
            raise ValueError(f"need t0 < T, got t0={self.t0}, T={self.T}")


def log_bound_nmq(inputs: BoundInputs) -> float:
    """Log of the (n, M, Q) error bound; -inf when the bound is exactly 0.

    The bound is the sum of a Monte Carlo term
    7 C^n 2^(n-1) e^M (sup_f0 + sup_u + max(sqrt(T-t0), sqrt(3)) |K|_1)
    / sqrt(M^(n-3)) and a quadrature term
    (14 (4C)^(n-1) + 1) T^(2Q+1) deriv_ratio / Q^(2 alpha Q).
    """
    _check_instance("inputs", inputs, BoundInputs)
    _check_integer("M", inputs.M, 2)
    n, M, Q = inputs.n, inputs.M, inputs.Q
    span = inputs.T - inputs.t0
    C = constant_C(inputs.T, inputs.t0, inputs.lip_f_l1)

    amplitude = inputs.sup_f0 + inputs.sup_u + max(math.sqrt(span), math.sqrt(3.0)) * inputs.lip_g_l1
    if amplitude > 0.0:
        log_mc = (
            math.log(7.0)
            + n * math.log(C)
            + (n - 1) * math.log(2.0)
            + M
            - 0.5 * (n - 3) * math.log(M)
            + math.log(amplitude)
        )
    else:
        log_mc = -math.inf

    if inputs.deriv_ratio > 0.0:
        log_coef = np.logaddexp(math.log(14.0) + (n - 1) * math.log(4.0 * C), 0.0)
        log_quad = (
            log_coef
            + (2 * Q + 1) * math.log(inputs.T)
            + math.log(inputs.deriv_ratio)
            - 2.0 * inputs.alpha * Q * math.log(Q)
        )
    else:
        log_quad = -math.inf

    return float(np.logaddexp(log_mc, log_quad))


def bound_nmq(inputs: BoundInputs) -> float:
    """The (n, M, Q) error bound itself, inf beyond the float range.  See :func:`log_bound_nmq`."""
    return _exp(log_bound_nmq(inputs))


def log_bound_nnn(inputs: BoundInputs) -> float:
    """Log of the diagonal bound: n = M = Q and alpha = 1/4."""
    _check_instance("inputs", inputs, BoundInputs)
    _check_integer("n", inputs.n, 2)
    diag = replace(inputs, M=inputs.n, Q=inputs.n, alpha=0.25)
    return log_bound_nmq(diag)


def _exp(log_value: float) -> float:
    try:
        return math.exp(log_value)
    except OverflowError:
        return math.inf


# highest level of the cost recursions, whose work grows as n^2: the
# estimator stops at level 6, the cost caps and tables at level 8
MAX_COST_LEVEL = 64


def _cost(n: int, M: int, Q: int, a: int, b: int) -> int:
    """C(n) of C(0) = 0, C(n) = a M^n + sum_{l<n} Q M^(n-l) (a + C(l) + [l>=1] (b + C(l-1)))."""
    for check in (("n", n, 0, MAX_COST_LEVEL), ("M", M, 1), ("Q", Q, 1)):
        _check_integer(*check)
    n, M, Q = int(n), int(M), int(Q)  # Python integers, so M^n cannot wrap
    c = [0]
    for m in range(1, n + 1):
        terms = (Q * M ** (m - l) * (a + c[l] + (b + c[l - 1] if l else 0)) for l in range(m))
        c.append(a * M**m + sum(terms))
    return c[n]


def cost_rn_exact(n: int, M: int, Q: int, d: int) -> int:
    """Exact count of scalar Gaussian draws made by one level-n estimate, for n <= ``MAX_COST_LEVEL``.

    Recursion: RN(0) = 0 and
    RN(n) = d M^n + sum_{l<n} Q M^(n-l) (d + RN(l) + [l>=1] RN(l-1)).
    """
    _check_integer("d", d, 1)
    return _cost(n, M, Q, int(d), 0)


def cost_fe_exact(n: int, M: int, Q: int) -> int:
    """Exact count of f and g evaluations made by one level-n estimate, for n <= ``MAX_COST_LEVEL``.

    Recursion: FE(0) = 0 and
    FE(n) = M^n + sum_{l<n} Q M^(n-l) (1 + FE(l) + [l>=1] (1 + FE(l-1))).
    """
    return _cost(n, M, Q, 1, 1)
