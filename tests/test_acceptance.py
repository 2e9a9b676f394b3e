"""Acceptance suite: one test per shipped guarantee, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).
"""

import math
import time

import numpy as np
import pytest

from mlpicard.analysis import (
    BoundInputs,
    binomial,
    cost_fe_exact,
    cost_rn_exact,
    count_increasing_chains,
    iterated_gl_upper_bound,
    log_bound_nnn,
    norm_log_subadditivity_check,
)
from mlpicard.cli import ExperimentConfig, run_convergence
from mlpicard.mlp_core import CostCounters, Problem, discrete_fk_residual, mc_l2_error, mlp_estimate
from mlpicard.problems import heat_quadratic, manufactured_sine
from mlpicard.quadrature import build_rule, frac_moment_sum, integrate, iterated_gl_lhs, iterated_gl_rhs


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}")


SINE_CONFIG = dict(problem="manufactured_sine", dim=2, params={"c": 0.5, "beta": 0.5, "gamma": 0.5})


@pytest.fixture(scope="session")
def convergence_rows():
    """Criterion-7 study, shared with the bound-dominance check."""
    config = ExperimentConfig(
        **SINE_CONFIG,
        x=[0.0, 0.0],
        t0=0.0,
        levels=[(k, k, k) for k in (1, 2, 3, 4)],
        replications=2000,
        seed=2024,
        threads=2,  # rows do not depend on the thread count (criterion 10); two halve this fixture's wall time
        reproducible=True,
    )
    start = time.perf_counter()
    rows = run_convergence(config)
    return rows, time.perf_counter() - start


def test_criterion_01_quadrature_exactness():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for order in range(1, 11):
        rule = build_rule(order)
        for _ in range(50):
            degree = int(rng.integers(0, 2 * order))
            a = float(rng.uniform(0.0, 9.0))
            b = float(a + rng.uniform(0.05, 10.0 - a))
            value = integrate(rule, a, b, lambda t: t**degree)
            truth = (b ** (degree + 1) - a ** (degree + 1)) / (degree + 1)
            worst = max(worst, abs(value - truth) / max(1.0, abs(truth)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-11 and elapsed < 1.0
    _report(1, ok, f"500 monomials, worst rel error {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-11
    assert elapsed < 1.0


def test_criterion_02_iterated_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    intervals = [(float(t0), float(t0 + span)) for t0, span in zip(rng.uniform(0, 2, 5), rng.uniform(0.2, 3, 5))]
    worst = 0.0
    for order in range(1, 7):
        for depth in range(1, 6):
            for t0, T in intervals:
                lhs = iterated_gl_lhs(order, depth, t0, T)
                rhs = iterated_gl_rhs(order, depth, t0, T)
                worst = max(worst, abs(lhs - rhs) / (1.0 + abs(rhs)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 10.0
    _report(2, ok, f"grid Q<=6, k<=5, 5 intervals, worst scaled gap {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-10
    assert elapsed < 10.0


def test_criterion_03_section_bounds():
    start = time.perf_counter()
    moment_ok = all(
        frac_moment_sum(order, j)
        <= math.exp(math.lgamma(0.5) + math.lgamma(j + 1) - math.lgamma(j + 1.5)) * (1 + 1e-13)
        for order in range(1, 11)
        for j in range(13)
    )
    rng = np.random.default_rng(202)
    intervals = [(float(t0), float(t0 + span)) for t0, span in zip(rng.uniform(0, 2, 5), rng.uniform(0.2, 3, 5))]
    dominance_ok = all(
        iterated_gl_lhs(order, depth, t0, T) <= iterated_gl_upper_bound(depth, T - t0) * (1 + 1e-12)
        for order in range(1, 7)
        for depth in range(1, 6)
        for t0, T in intervals
    )
    chains_ok = all(
        count_increasing_chains(n, l0, j) == binomial(n - l0 - 1, j)
        for n in range(1, 13)
        for l0 in range(n)
        for j in range(1, n - l0)
    )
    rng = np.random.default_rng(303)
    subadd_ok = all(
        norm_log_subadditivity_check(
            rng.normal(scale=3.0, size=d), rng.normal(scale=3.0, size=d), p
        )
        for d, p in zip(rng.integers(1, 7, 10_000), rng.integers(1, 7, 10_000))
    )
    elapsed = time.perf_counter() - start
    ok = moment_ok and dominance_ok and chains_ok and subadd_ok and elapsed < 10.0
    _report(
        3,
        ok,
        f"moments={moment_ok}, dominance={dominance_ok}, chains={chains_ok}, subadditivity={subadd_ok}, {elapsed:.2f}s",
    )
    assert ok


def test_criterion_04_degenerate_exactness():
    start = time.perf_counter()
    c = -1.375
    ok = True
    for dim in (1, 2, 3):
        problem = Problem(
            horizon=1.0,
            dim=dim,
            terminal=lambda x: np.full(np.asarray(x).shape[:-1], c),
            nonlinearity=lambda t, x, w, z: np.zeros(np.shape(w)),
            lip_f=np.zeros(dim + 1),
            lip_g=np.zeros(dim),
        )
        expected = np.zeros(dim + 1)
        expected[0] = c
        for n in (1, 2, 3):
            for M in (1, 2, 3):
                for Q in (1, 2, 3):
                    est = mlp_estimate(problem, n, M, Q, key=(n, M, Q), seed=n + M, s=0.5, x=np.zeros(dim))
                    ok = ok and bool(np.all(est.components == expected))
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    _report(4, ok, f"(c, 0, ..., 0) reproduced exactly over 81 parameter combinations, {elapsed:.2f}s")
    assert ok


def test_criterion_05_level_one_unbiasedness():
    start = time.perf_counter()
    problem = heat_quadratic(2, 1.0)
    x = np.array([1.0, 1.0])
    report = mc_l2_error(problem, 1, 2, 2, 0.0, x, 100_000, seed=505)
    mean = report.estimates.mean(axis=0)
    se = report.estimates.std(axis=0, ddof=1) / math.sqrt(report.replications)
    # Gaussian moment oracle: E g(x + W_T) = |x|^2 + d T = 4 at x=(1,1), d=2, T=1
    target = np.array([4.0, 2.0, 2.0])
    z = np.abs(mean - target) / se
    elapsed = time.perf_counter() - start
    ok = bool(np.all(z <= 4.0)) and elapsed < 30.0
    _report(5, ok, f"mean={np.round(mean, 4)}, oracle target {target}, max |z|={z.max():.2f}, {elapsed:.1f}s")
    assert ok


def test_criterion_06_discrete_feynman_kac_residual():
    start = time.perf_counter()
    problem = manufactured_sine(1, c=1.0, beta=0.5, gamma=0.5)
    res = discrete_fk_residual(problem, 2, 2, 2, 0.0, np.array([0.5]), 100_000, seed=606)
    elapsed = time.perf_counter() - start
    ok = res.within_radius and elapsed < 300.0
    _report(
        6,
        ok,
        f"residual={np.round(res.residual, 5)}, radius={np.round(res.radius, 5)}, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_07_convergence(convergence_rows):
    rows, elapsed = convergence_rows
    errs = [row["err_value"] for row in rows]
    ses = [row["se_value"] for row in rows]
    factor = errs[0] / errs[3]
    violations = sum(
        1
        for k in range(3)
        if errs[k + 1] > errs[k] + 2.0 * math.hypot(ses[k], ses[k + 1])
    )
    ok = factor >= 1.5 and violations <= 1 and elapsed < 600.0
    _report(
        7,
        ok,
        f"errors={[round(e, 4) for e in errs]}, n=1 vs n=4 factor {factor:.1f}, "
        f"{violations} two-SE violations, {elapsed:.0f}s",
    )
    assert ok


def test_criterion_08_cost_model():
    start = time.perf_counter()
    exact_ok = True
    for d in range(1, 6):
        problem = heat_quadratic(d, 1.0)
        x = np.zeros(d)
        for n in range(1, 5):
            for M in range(1, 5):
                for Q in range(1, 5):
                    counters = CostCounters()
                    mlp_estimate(problem, n, M, Q, key=(d, n), seed=808, s=0.5, x=x, counters=counters)
                    exact_ok = exact_ok and counters.gaussians_drawn == cost_rn_exact(n, M, Q, d)
                    exact_ok = exact_ok and counters.function_evals == cost_fe_exact(n, M, Q)
    cap_ok = all(
        cost_rn_exact(N, N, N, d) <= 8 * d * N ** (2 * N) for N in range(1, 9) for d in (1, 10, 100)
    )
    elapsed = time.perf_counter() - start
    ok = exact_ok and cap_ok and elapsed < 30.0
    _report(8, ok, f"counters==recursion on 320 runs: {exact_ok}, closed-form caps: {cap_ok}, {elapsed:.1f}s")
    assert ok


def test_criterion_09_bound_formulas(convergence_rows):
    rows, _ = convergence_rows
    start = time.perf_counter()
    problem = manufactured_sine(2, c=0.5, beta=0.5, gamma=0.5)
    inputs = {
        "T": problem.horizon,
        "t0": 0.0,
        "lip_f_l1": float(np.sum(problem.lip_f)),
        "lip_g_l1": float(np.sum(problem.lip_g)),
        "sup_f0": problem.sup_f0,
        "sup_u": problem.sup_u,
        "deriv_ratio": problem.deriv_ratio,
        "alpha": 0.25,
    }
    logs = [log_bound_nnn(BoundInputs(n=n, M=n, Q=n, **inputs)) for n in range(2, 11)]
    finite_ok = all(math.isfinite(v) for v in logs)
    decreasing_ok = all(a > b for a, b in zip(logs, logs[1:]))
    dominance_ok = all(
        row["err_value"] <= row["bound"] for row in rows if row["n"] >= 2 and row["bound"] != "n/a"
    )
    elapsed = time.perf_counter() - start
    ok = finite_ok and decreasing_ok and dominance_ok and elapsed < 1.0
    _report(
        9,
        ok,
        f"finite on 2..10: {finite_ok}; log-bound decreasing on 2..10: {decreasing_ok} "
        f"(closed form grows ~(2eC)^n/n^(n/2) until n~(2eC)^2, so strict decrease starts "
        f"far beyond 10; the per-level rate log(bound)/n does decrease); "
        f"empirical errors below bound: {dominance_ok}; {elapsed:.2f}s",
    )
    assert ok


def test_criterion_10_determinism_across_thread_counts(tmp_path):
    from mlpicard.cli import main

    start = time.perf_counter()
    outputs = []
    for threads in ("1", "3"):
        out = tmp_path / f"threads_{threads}.csv"
        code = main(
            [
                "converge",
                "--problem",
                "manufactured_sine",
                "--dim",
                "2",
                "--param",
                "c=0.5",
                "--diagonal",
                "2",
                "--reps",
                "60",
                "--seed",
                "1010",
                "--threads",
                threads,
                "--reproducible",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        outputs.append(out.read_bytes())
    elapsed = time.perf_counter() - start
    ok = outputs[0] == outputs[1]
    _report(10, ok, f"byte-identical CSVs across thread counts 1 and 3, {elapsed:.1f}s")
    assert ok
