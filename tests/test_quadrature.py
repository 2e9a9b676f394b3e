import math

import numpy as np
import pytest

from mlpicard.errors import EvaluationError
from mlpicard.quadrature import (
    MAX_ORDER,
    build_rule,
    frac_moment_sum,
    integrate,
    iterated_gl_lhs,
    iterated_gl_rhs,
    scale_weight,
)


def test_order_one_rule():
    rule = build_rule(1)
    assert rule.nodes == pytest.approx([0.5], abs=1e-15)
    assert rule.weights == pytest.approx([1.0], abs=1e-15)


def test_order_two_rule():
    rule = build_rule(2)
    lo = (1.0 - 1.0 / math.sqrt(3.0)) / 2.0
    hi = (1.0 + 1.0 / math.sqrt(3.0)) / 2.0
    assert rule.nodes == pytest.approx([lo, hi], abs=1e-15)
    assert rule.weights == pytest.approx([0.5, 0.5], abs=1e-15)


def test_order_five_integrates_degree_nine():
    # oracle: closed-form monomial integral of x^9 over [0, 1]
    rule = build_rule(5)
    assert integrate(rule, 0.0, 1.0, lambda t: t**9) == pytest.approx(0.1, abs=1e-13)


def test_rules_match_numpy_leggauss():
    # independent oracle: numpy's companion-matrix Gauss-Legendre nodes
    for order in (1, 2, 3, 5, 8, 13, 21, 34, 55, 64):
        rule = build_rule(order)
        x, w = np.polynomial.legendre.leggauss(order)
        np.testing.assert_allclose(rule.nodes, (x + 1.0) / 2.0, atol=5e-15)
        np.testing.assert_allclose(rule.weights, w / 2.0, atol=5e-15)


def test_polynomial_exactness_random_intervals():
    rng = np.random.default_rng(123)
    for order in range(1, 11):
        rule = build_rule(order)
        for _ in range(50):
            degree = int(rng.integers(0, 2 * order))
            a = float(rng.uniform(0.0, 9.0))
            b = float(a + rng.uniform(0.05, 10.0 - a))
            value = integrate(rule, a, b, lambda t: t**degree)
            truth = (b ** (degree + 1) - a ** (degree + 1)) / (degree + 1)
            assert abs(value - truth) <= 1e-11 * max(1.0, abs(truth))


def test_rule_invariants_all_orders():
    for order in range(1, MAX_ORDER + 1):
        rule = build_rule(order)
        assert rule.order == order
        assert np.all(rule.nodes > 0.0) and np.all(rule.nodes < 1.0)
        assert np.all(np.diff(rule.nodes) > 0.0)
        assert np.all(rule.weights > 0.0)
        assert abs(float(np.sum(rule.weights)) - 1.0) <= 1e-14
        assert np.max(np.abs(rule.nodes + rule.nodes[::-1] - 1.0)) <= 1e-14
        assert np.max(np.abs(rule.weights - rule.weights[::-1])) <= 1e-14


@pytest.mark.parametrize("order", [0, -1, 65, 1000, [3], 3.0])
def test_build_rule_rejects_bad_orders(order):
    # the guard runs before the cache, which would hash a list first ("unhashable type")
    with pytest.raises(ValueError):
        build_rule(order)


def test_rule_cache_keys_on_the_checked_order():
    assert build_rule(np.int64(3)) is build_rule(3)
    assert np.array_equal(build_rule.__wrapped__(3).nodes, build_rule(3).nodes)  # the uncached builder


def test_rule_arrays_are_immutable():
    rule = build_rule(4)
    with pytest.raises(ValueError):
        rule.nodes[0] = 0.0


def test_scale_weight_examples():
    assert scale_weight(build_rule(1), 0.0, 2.0, 1) == pytest.approx((1.0, 2.0), abs=1e-15)
    lo = (1.0 - 1.0 / math.sqrt(3.0)) / 2.0
    assert scale_weight(build_rule(2), 0.0, 1.0, 1) == pytest.approx((lo, 0.5), abs=1e-15)
    # oracle: direct affine map of the middle order-3 node (0.5, w2)
    rule = build_rule(3)
    node, weight = scale_weight(rule, 0.25, 1.0, 2)
    assert node == pytest.approx(0.625, abs=1e-15)
    assert weight == pytest.approx(0.75 * rule.weights[1], abs=1e-15)


def test_scale_weight_rejects():
    rule = build_rule(3)
    with pytest.raises(ValueError):
        scale_weight(rule, 1.0, 1.0, 1)
    with pytest.raises(ValueError):
        scale_weight(rule, 2.0, 1.0, 1)
    with pytest.raises(ValueError):
        scale_weight(rule, 0.0, 1.0, 0)
    with pytest.raises(ValueError):
        scale_weight(rule, 0.0, 1.0, 4)


def test_integrate_examples():
    assert integrate(build_rule(3), 0.0, 3.0, lambda t: 1.0) == pytest.approx(3.0, abs=1e-13)
    # exact for cubics at order 2; oracle: antiderivative t^4/4
    assert integrate(build_rule(2), 0.0, 1.0, lambda t: t**3) == pytest.approx(0.25, abs=1e-14)
    # oracle: closed form e - 1
    assert integrate(build_rule(4), 0.0, 1.0, math.exp) == pytest.approx(math.e - 1.0, abs=1e-9)


def test_integrate_rejects_bad_interval_and_values():
    rule = build_rule(2)
    with pytest.raises(ValueError):
        integrate(rule, 1.0, 0.0, lambda t: 1.0)
    with pytest.raises(EvaluationError):
        integrate(rule, 0.0, 1.0, lambda t: float("nan"))
    with pytest.raises(EvaluationError):
        integrate(rule, 0.0, 1.0, lambda t: float("inf"))


def test_iterated_lhs_single_level_is_reference_sum():
    for order in (1, 2, 5):
        rule = build_rule(order)
        expected = float(np.sum(rule.weights / np.sqrt(rule.nodes)))
        assert iterated_gl_lhs(order, 1, 0.0, 1.0) == pytest.approx(expected, rel=1e-14)


def test_iterated_identity_examples():
    # oracle: the reference-product right-hand side
    assert iterated_gl_lhs(3, 2, 0.0, 1.0) == pytest.approx(iterated_gl_rhs(3, 2, 0.0, 1.0), abs=1e-12)
    assert iterated_gl_lhs(4, 3, 0.5, 1.5) == pytest.approx(iterated_gl_rhs(4, 3, 0.5, 1.5), abs=1e-12)


def test_iterated_identity_grid():
    rng = np.random.default_rng(7)
    intervals = [(float(t0), float(t0 + span)) for t0, span in zip(rng.uniform(0, 2, 5), rng.uniform(0.2, 3, 5))]
    for order in range(1, 7):
        for depth in range(1, 6):
            for t0, T in intervals:
                lhs = iterated_gl_lhs(order, depth, t0, T)
                rhs = iterated_gl_rhs(order, depth, t0, T)
                assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(rhs))


def test_iterated_rhs_examples():
    rule = build_rule(3)
    expected = 2.0 * float(np.sum(rule.weights / np.sqrt(rule.nodes)))
    assert iterated_gl_rhs(3, 1, 0.0, 4.0) == pytest.approx(expected, rel=1e-14)
    rule = build_rule(2)
    s0 = float(np.sum(rule.weights / np.sqrt(rule.nodes)))
    s1 = float(np.sum(rule.weights * np.sqrt(1.0 - rule.nodes) / np.sqrt(rule.nodes)))
    assert iterated_gl_rhs(2, 2, 0.0, 1.0) == pytest.approx(s0 * s1, rel=1e-14)


def test_iterated_guards():
    with pytest.raises(ValueError):
        iterated_gl_lhs(3, 9, 0.0, 1.0)
    with pytest.raises(ValueError):
        iterated_gl_lhs(11, 2, 0.0, 1.0)
    with pytest.raises(ValueError):
        iterated_gl_lhs(3, 0, 0.0, 1.0)
    with pytest.raises(ValueError):
        iterated_gl_rhs(3, 2, 1.0, 1.0)
    # named before any comparison ("'>' not supported")
    with pytest.raises(ValueError, match=r"^chain order must be an integer in \[1, 10\], got \[3\]"):
        iterated_gl_lhs([3], 2, 0.0, 1.0)
    with pytest.raises(ValueError, match=r"^chain depth must be an integer in \[1, 8\], got 2.0"):
        iterated_gl_rhs(3, 2.0, 0.0, 1.0)
    with pytest.raises(ValueError, match=r"^order must be an integer in \[1, 64\], got \[3\]"):
        frac_moment_sum([3], 1)


def test_frac_moment_examples_and_bound():
    # single mid-node rule: weight 1 at s = 1/2 gives sqrt(2)
    assert frac_moment_sum(1, 0) == pytest.approx(math.sqrt(2.0), abs=1e-15)
    # j = 0 cap is the integral of 1/sqrt(s), namely 2, approached from below
    # (slowly: the integrand's endpoint singularity costs the spectral rate)
    assert frac_moment_sum(64, 0) < 2.0
    assert frac_moment_sum(64, 0) > frac_moment_sum(8, 0) > frac_moment_sum(1, 0)
    assert frac_moment_sum(64, 0) > 1.98
    # j = 1 cap: oracle integral of (1-s)/sqrt(s) over (0,1) equals 4/3
    assert frac_moment_sum(64, 1) <= 4.0 / 3.0
    for order in range(1, 11):
        for j in range(13):
            cap = math.exp(math.lgamma(0.5) + math.lgamma(j + 1) - math.lgamma(j + 1.5))
            assert frac_moment_sum(order, j) <= cap * (1.0 + 1e-13)
