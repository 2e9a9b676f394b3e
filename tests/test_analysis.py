import math
from dataclasses import replace

import numpy as np
import pytest

from mlpicard.analysis import (
    MAX_COST_LEVEL,
    BoundInputs,
    binomial,
    bound_nmq,
    constant_C,
    cost_fe_exact,
    cost_rn_exact,
    iterated_gl_upper_bound,
    log_bound_nmq,
    log_bound_nnn,
    norm_log_subadditivity_check,
)


def _inputs(**overrides):
    base = dict(
        T=1.0,
        t0=0.0,
        lip_f_l1=0.0,
        lip_g_l1=1.0,
        sup_f0=0.0,
        sup_u=0.0,
        deriv_ratio=0.0,
        n=2,
        M=2,
        Q=2,
        alpha=0.25,
    )
    base.update(overrides)
    return BoundInputs(**base)


def test_binomial():
    assert binomial(5, 2) == 10
    assert binomial(0, 0) == 1
    assert binomial(3, 5) == 0
    assert binomial(200, 100) == math.comb(200, 100)
    with pytest.raises(ValueError):
        binomial(-1, 0)


def test_log_subadditivity_trivial_cases():
    assert norm_log_subadditivity_check(np.zeros(3), np.array([1.0, -2.0, 0.5]), 4)
    assert norm_log_subadditivity_check(np.array([1.0, -2.0, 0.5]), np.zeros(3), 4)


def test_log_subadditivity_random():
    rng = np.random.default_rng(31)
    for _ in range(10_000):
        d = int(rng.integers(1, 7))
        p = int(rng.integers(1, 7))
        x = rng.normal(scale=4.0, size=d)
        y = rng.normal(scale=4.0, size=d)
        assert norm_log_subadditivity_check(x, y, p)


def test_constant_C_values():
    # oracle: 30-digit evaluation of 2 (sqrt(T-t0)+1) sqrt((T-t0) pi) (L1+1) + 1
    assert constant_C(1.0, 0.0, 0.0) == pytest.approx(8.08981540362206410919266993337, rel=1e-14)
    assert constant_C(1.0, 0.0, 1.0) == pytest.approx(15.1796308072441282183853398667, rel=1e-14)
    assert constant_C(1e-12, 0.0, 3.0) == pytest.approx(1.0, abs=1e-4)
    with pytest.raises(ValueError):
        constant_C(0.0, 0.0, 1.0)


def test_bound_zero_when_numerators_vanish():
    assert bound_nmq(_inputs(lip_g_l1=0.0)) == 0.0


def test_bound_frozen_value():
    # oracle: 30-digit evaluation of 7 C^2 2 e^2 sqrt(3) / sqrt(2^(2-3))
    value = bound_nmq(_inputs())
    assert value == pytest.approx(16583.2576511171626372946491787, rel=1e-12)


def test_bound_monotone_in_M_below_half_n():
    # the sampling term decreases in M while M < (n - 3) / 2; past that the
    # e^M factor wins, so monotonicity is checked in the decreasing regime,
    # with the M-independent quadrature term switched off
    prev = math.inf
    for M in range(2, 65):
        value = log_bound_nmq(_inputs(n=150, M=M, sup_u=1.0, deriv_ratio=0.0))
        assert value < prev
        prev = value


def test_bound_nnn_matches_general_formula():
    inputs = _inputs(n=3, M=3, Q=3, sup_f0=0.7, sup_u=1.1, deriv_ratio=2.0, lip_f_l1=1.0)
    assert log_bound_nnn(inputs) == pytest.approx(log_bound_nmq(inputs), rel=1e-14)


def test_bound_guards():
    with pytest.raises(ValueError):
        bound_nmq(_inputs(M=1))
    with pytest.raises(ValueError):
        log_bound_nnn(_inputs(n=1))
    with pytest.raises(ValueError):
        bound_nmq(_inputs(alpha=1.5))
    with pytest.raises(ValueError):
        bound_nmq(_inputs(sup_u=float("inf")))


def test_bound_beyond_the_float_range_is_inf():
    # e^M alone overflows a double from M = 710 on; the log bound stays finite
    assert math.isfinite(log_bound_nmq(_inputs(M=1000)))
    assert bound_nmq(_inputs(M=1000)) == math.inf


def test_bound_nnn_eventually_decays_to_zero():
    # in log space the diagonal bound grows until n is of the order of
    # (2 e C)^2 and then falls off like -(n/2) log n; check the tail
    inputs = _inputs(sup_f0=1.0, sup_u=1.0, deriv_ratio=1.0, lip_f_l1=1.0)
    values = [log_bound_nnn(replace(inputs, n=n, M=n, Q=n)) for n in (10**4, 10**5, 10**6)]
    assert values[0] > values[1] > values[2]
    assert values[2] < -1e6  # heading to zero, fast


def test_bound_log_rate_strictly_decreasing():
    # the per-level rate log(bound)/n falls monotonically from the start,
    # which is the testable log-space signature of the superexponential decay
    inputs = _inputs(sup_f0=1.0, sup_u=1.0, deriv_ratio=1.0, lip_f_l1=1.0)
    rates = [log_bound_nnn(replace(inputs, n=n, M=n, Q=n)) / n for n in range(2, 31)]
    assert all(a > b for a, b in zip(rates, rates[1:]))


def test_iterated_gl_upper_bound_values():
    assert iterated_gl_upper_bound(2, 1.0) == pytest.approx(2.0 * math.pi, rel=1e-14)
    assert iterated_gl_upper_bound(1, 1.0) == pytest.approx(2.0, rel=1e-14)
    # oracle: 2 (pi/4)^2 / Gamma(2) = pi^2 / 8
    assert iterated_gl_upper_bound(4, 0.25) == pytest.approx(1.23370055013616982735431137498, rel=1e-13)
    assert iterated_gl_upper_bound(3, 0.0) == 0.0
    with pytest.raises(ValueError):
        iterated_gl_upper_bound(0, 1.0)


def test_cost_base_cases_and_hand_value():
    assert cost_rn_exact(0, 5, 5, 3) == 0
    assert cost_fe_exact(0, 5, 5) == 0
    # oracle: hand evaluation of the recursion
    assert cost_rn_exact(1, 2, 2, 1) == 1 * 2 + 2 * 2 * (1 + 0)
    assert cost_fe_exact(1, 2, 2) == 2 + 2 * 2 * 1


def test_cost_guards():
    with pytest.raises(ValueError):
        cost_rn_exact(-1, 2, 2, 1)
    with pytest.raises(ValueError):
        cost_rn_exact(1, 0, 2, 1)
    with pytest.raises(ValueError):
        cost_rn_exact(1, 2, 2, 0)
    with pytest.raises(ValueError):
        cost_fe_exact(1, 2, 0)
    with pytest.raises(ValueError, match="^n must be an integer"):
        cost_rn_exact(2.5, 2, 2, 1)
    with pytest.raises(ValueError, match="^n must be an integer"):
        cost_fe_exact(True, 2, 2)
    # the recursions' work grows as n^2, so n is capped well above every level the package uses
    assert cost_fe_exact(MAX_COST_LEVEL, 1, 1) > cost_fe_exact(MAX_COST_LEVEL - 1, 1, 1)
    with pytest.raises(ValueError, match=r"^n must be an integer in \[0, 64\], got 65$"):
        cost_rn_exact(MAX_COST_LEVEL + 1, 1, 1, 1)
    with pytest.raises(ValueError, match=r"^n must be an integer in \[0, 64\], got 65$"):
        cost_fe_exact(MAX_COST_LEVEL + 1, 1, 1)


def _two_loop_costs(n, M, Q, d):
    """The two separate recursions the shared one replaced, kept as an oracle."""
    rn = [0]
    for m in range(1, n + 1):
        total = d * M**m
        for l in range(m):
            inner = d + rn[l] + (rn[l - 1] if l >= 1 else 0)
            total += Q * M ** (m - l) * inner
        rn.append(total)
    fe = [0]
    for m in range(1, n + 1):
        total = M**m
        for l in range(m):
            inner = 1 + fe[l] + ((1 + fe[l - 1]) if l >= 1 else 0)
            total += Q * M ** (m - l) * inner
        fe.append(total)
    return rn[n], fe[n]


def test_shared_cost_recursion_matches_the_two_loops():
    for n in range(9):
        for M in range(1, 7):
            for Q in range(1, 7):
                for d in (1, 2, 10):
                    assert (cost_rn_exact(n, M, Q, d), cost_fe_exact(n, M, Q)) == _two_loop_costs(n, M, Q, d)
