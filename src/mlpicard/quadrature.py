"""Gauss-Legendre quadrature on the reference interval (0, 1).

A rule of order Q holds the Q Legendre roots mapped to (0, 1) together
with weights normalized to integrate over (0, 1); it is exact for
polynomials of degree up to 2Q - 1.  Rules scale affinely to any
interval [a, b] by mapping nodes and multiplying weights by (b - a).

The module also exposes the nested node sums over chains
t0 < t1 < ... < tk < T weighted by 1/sqrt(t_{i+1} - t_i), their
closed-form reference product and the reference fractional-moment
sums -- the diagnostic quantities the self-check and the error bounds
are built from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import EvaluationError, _check_instance, _check_integer, _check_real

__all__ = [
    "GaussLegendreRule",
    "MAX_ORDER",
    "build_rule",
    "frac_moment_sum",
    "integrate",
    "iterated_gl_lhs",
    "iterated_gl_rhs",
    "scale_weight",
]

MAX_ORDER = 64

# interval-chain diagnostics enumerate Q^k node tuples; keep that finite
MAX_CHAIN_DEPTH = 8
MAX_CHAIN_ORDER = 10


@dataclass(frozen=True)
class GaussLegendreRule:
    """Order-Q rule on (0, 1): Q strictly increasing nodes in (0, 1) and positive weights summing to 1."""

    order: int
    nodes: np.ndarray
    weights: np.ndarray


def _legendre_value_and_deriv(q: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_q(x) and P_q'(x) on (-1, 1) via the three-term recurrence."""
    p_prev = np.ones_like(x)
    p = x.copy()
    for k in range(2, q + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    dp = q * (x * p - p_prev) / (x * x - 1.0)
    return p, dp


def build_rule(order: int) -> GaussLegendreRule:
    """Build the order-Q rule on (0, 1).

    Roots of the degree-Q Legendre polynomial are found by Newton
    iteration started from the Chebyshev angles cos(pi (i - 1/4) / (Q + 1/2)),
    stopped at |step| < 1e-15.  Weights come from the classical formula
    w = 2 / ((1 - x^2) P_Q'(x)^2) on [-1, 1]; nodes map to (0, 1) via
    s = (x + 1) / 2 and weights are halved so they integrate over (0, 1).
    The order is an integer 1 <= Q <= 64: beyond 64 the Newton start is no
    longer reliably inside the convergence basin at double precision.
    """
    _check_integer("order", order, 1, MAX_ORDER)
    return _cached_rule(int(order))


@lru_cache(maxsize=None)
def _cached_rule(q: int) -> GaussLegendreRule:
    """The rule of ``build_rule``, whose guard runs first: the cache hashes its argument."""
    i = np.arange(1, q + 1, dtype=float)
    x = np.cos(math.pi * (i - 0.25) / (q + 0.5))  # descending guesses
    for _ in range(100):
        p, dp = _legendre_value_and_deriv(q, x)
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) < 1e-15:
            break
    # enforce exact root antisymmetry; the recurrence is sign-symmetric in
    # floating point, so weights computed below come out exactly symmetric
    x = 0.5 * (x - x[::-1])
    _, dp = _legendre_value_and_deriv(q, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)

    nodes = ((x + 1.0) * 0.5)[::-1].copy()
    weights = (0.5 * w)[::-1].copy()
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return GaussLegendreRule(order=q, nodes=nodes, weights=weights)


# ``build_rule.__wrapped__`` is the uncached builder, as on an lru_cache function; timing scripts call it
build_rule.__wrapped__ = _cached_rule.__wrapped__


def scale_weight(rule: GaussLegendreRule, a: float, b: float, k: int) -> tuple[float, float]:
    """Node and weight of rank k (1-based) for the rule scaled to [a, b].

    Returns ``(a + c_k (b - a), (b - a) w_k)`` where ``(c_k, w_k)`` is the
    reference node/weight pair.
    """
    a, b = _check_interval(rule, a, b)
    _check_integer("rank k", k, 1, rule.order)
    span = b - a
    return a + rule.nodes[k - 1] * span, span * rule.weights[k - 1]


def integrate(rule: GaussLegendreRule, a: float, b: float, f: Callable[[float], float]) -> float:
    """Quadrature approximation of the integral of f over [a, b]."""
    a, b = _check_interval(rule, a, b)
    span = b - a
    total = 0.0
    for c, w in zip(rule.nodes, rule.weights):
        value = float(f(a + c * span))
        if not math.isfinite(value):
            raise EvaluationError(f"integrand returned non-finite value {value} at t={a + c * span}")
        total += span * w * value
    return total


def _check_interval(rule: GaussLegendreRule, a: float, b: float) -> tuple[float, float]:
    """``(a, b)`` as floats for a rule and a real interval a < b, else a ValueError naming the culprit."""
    _check_instance("rule", rule, GaussLegendreRule)
    a, b = _check_real("a", a), _check_real("b", b)
    if not a < b:
        raise ValueError(f"need a < b, got a={a}, b={b}")
    return a, b


def _check_chain_args(order: int, depth: int, t0: float, T: float) -> None:
    _check_integer("chain depth", depth, 1, MAX_CHAIN_DEPTH)
    _check_integer("chain order", order, 1, MAX_CHAIN_ORDER)
    if not _check_real("t0", t0) < _check_real("T", T):
        raise ValueError(f"need t0 < T, got t0={t0}, T={T}")


def iterated_gl_lhs(order: int, depth: int, t0: float, T: float) -> float:
    """Nested sum over increasing node chains t0 < t1 < ... < t_depth < T.

    Each t_{i+1} runs over the rule's nodes scaled to [t_i, T]; the
    summand is the product of the scaled weights divided by
    sqrt(t_{i+1} - t_i).  Enumerates order^depth chains, so both are
    guarded.
    """
    _check_chain_args(order, depth, t0, T)
    rule = build_rule(order)

    def recurse(t: float, remaining: int) -> float:
        total = 0.0
        for k in range(1, rule.order + 1):
            node, weight = scale_weight(rule, t, T, k)
            term = weight / math.sqrt(node - t)
            if remaining > 1:
                term *= recurse(node, remaining - 1)
            total += term
        return total

    return recurse(t0, depth)


def iterated_gl_rhs(order: int, depth: int, t0: float, T: float) -> float:
    """Reference-product form of :func:`iterated_gl_lhs`.

    Equals (T - t0)^(depth/2) times the product over i < depth of the
    reference sums sum_s w(s) (1 - s)^(i/2) / sqrt(s).
    """
    _check_chain_args(order, depth, t0, T)
    rule = build_rule(order)
    inv_sqrt = rule.weights / np.sqrt(rule.nodes)
    result = (T - t0) ** (0.5 * depth)
    for i in range(depth):
        result *= float(np.sum(inv_sqrt * (1.0 - rule.nodes) ** (0.5 * i)))
    return result


def frac_moment_sum(order: int, j: int) -> float:
    """Reference sum of w(s) (1 - s)^j / sqrt(s) over the rule's nodes.

    Bounded above by Gamma(1/2) Gamma(j+1) / Gamma(j+3/2) for every order
    and every real j >= 0.
    """
    j = _check_real("j", j, 0.0)
    rule = build_rule(order)
    return float(np.sum(rule.weights * (1.0 - rule.nodes) ** j / np.sqrt(rule.nodes)))
