import dataclasses
import itertools
import math
import os
import re
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest

from mlpicard import _bits, mlp_core, selfcheck
from mlpicard.analysis import cost_fe_exact, cost_rn_exact
from mlpicard.errors import BudgetError, ConfigError, EvaluationError
from mlpicard.mlp_core import (
    CostCounters,
    Problem,
    check_request,
    discrete_fk_residual,
    mc_l2_error,
    mlp_estimate,
)
from mlpicard.problems import heat_quadratic, manufactured_sine


def constant_problem(dim: int, c: float) -> Problem:
    return Problem(
        horizon=1.0,
        dim=dim,
        terminal=lambda x: np.full(np.asarray(x).shape[:-1], c),
        nonlinearity=lambda t, x, w, z: np.zeros(np.shape(w)),
        lip_f=np.zeros(dim + 1),
        lip_g=np.zeros(dim),
        exact=None,
        name="constant",
    )


def zero_problem(dim: int) -> Problem:
    return Problem(
        horizon=1.0,
        dim=dim,
        terminal=lambda x: np.zeros(np.asarray(x).shape[:-1]),
        nonlinearity=lambda t, x, w, z: np.zeros(np.shape(w)),
        lip_f=np.zeros(dim + 1),
        lip_g=np.zeros(dim),
        exact=lambda t, x: np.zeros(np.asarray(x).shape[:-1] + (dim + 1,)),
        name="zero",
    )


def test_level_zero_is_zero_vector():
    problem = manufactured_sine(3)
    est = mlp_estimate(problem, 0, 4, 4, key=(5,), seed=9, s=0.5, x=np.array([1.0, -1.0, 0.5]))
    assert np.array_equal(est.components, np.zeros(4))


def test_constant_terminal_is_exact_for_all_parameters():
    c = 2.75
    for dim in (1, 2, 3):
        problem = constant_problem(dim, c)
        x = np.linspace(-1.0, 1.0, dim)
        for n in (1, 2, 3):
            for M in (1, 2, 3):
                for Q in (1, 2, 3):
                    counters = CostCounters()
                    est = mlp_estimate(problem, n, M, Q, key=(n, M), seed=31 * n + Q, s=0.25, x=x, counters=counters)
                    assert est.value == c
                    assert np.all(est.gradient == 0.0)
                    assert counters.gaussians_drawn > 0


def test_estimate_is_bitwise_deterministic():
    # repeated runs agree bitwise (test_estimator_contracts); a different key gives a different estimate
    problem = manufactured_sine(2)
    a = mlp_estimate(problem, 2, 2, 2, key=(1, 2), seed=77, s=0.125, x=np.array([0.3, -0.4]))
    c = mlp_estimate(problem, 2, 2, 2, key=(1, 3), seed=77, s=0.125, x=np.array([0.3, -0.4]))
    assert not np.array_equal(a.components, c.components)


def test_unbiased_gaussian_moments_heat_level_one():
    # oracle: E[g(x + W_T)] = |x|^2 + d T and the gradient identity
    # E[(g(x + W_T) - g(x)) W_T / T] = 2x
    problem = heat_quadratic(2, 1.0)
    x = np.array([1.0, 1.0])
    report = mc_l2_error(problem, 1, 2, 2, 0.0, x, 20_000, seed=4)
    mean = report.estimates.mean(axis=0)
    se = report.estimates.std(axis=0, ddof=1) / math.sqrt(report.replications)
    target = np.array([4.0, 2.0, 2.0])
    assert np.all(np.abs(mean - target) <= 4.0 * se)


def test_counters_match_cost_recursions():
    problem = manufactured_sine(2, c=0.5)
    x = np.zeros(2)
    for n in range(4):
        for M in (1, 2, 3):
            for Q in (1, 2, 3):
                counters = CostCounters()
                mlp_estimate(problem, n, M, Q, key=(), seed=n + M + Q, s=0.5, x=x, counters=counters)
                assert counters.gaussians_drawn == cost_rn_exact(n, M, Q, 2)
                assert counters.function_evals == cost_fe_exact(n, M, Q)


def test_counters_scale_with_replications():
    problem = manufactured_sine(1)
    counters = CostCounters()
    reps = 7
    mc_l2_error(problem, 2, 2, 2, 0.0, np.zeros(1), reps, seed=3, counters=counters)
    assert counters.gaussians_drawn == reps * cost_rn_exact(2, 2, 2, 1)
    assert counters.function_evals == reps * cost_fe_exact(2, 2, 2)


@pytest.mark.parametrize("d, n, M, Q, R", [(1, 1, 1, 1, 3), (2, 2, 3, 2, 5), (3, 2, 2, 3, 4), (1, 2, 3, 3, 7)])
def test_residual_counters_match_the_recursions(d, n, M, Q, R):
    # per replication: a level-n estimate; the right-hand side's (Q+1) d path Gaussians, one g and Q f
    # evaluations, and Q level-(n-1) estimates
    counters = CostCounters()
    discrete_fk_residual(manufactured_sine(d), n, M, Q, 0.1, np.full(d, 0.2), R, seed=3, counters=counters)
    gaussians = R * (cost_rn_exact(n, M, Q, d) + (Q + 1) * d + Q * cost_rn_exact(n - 1, M, Q, d))
    evals = R * (cost_fe_exact(n, M, Q) + 1 + Q + Q * cost_fe_exact(n - 1, M, Q))
    assert (counters.gaussians_drawn, counters.function_evals) == (gaussians, evals)
    if (d, n, M, Q) == (1, 1, 1, 1):  # by hand: 2 Gaussians, one g and one f on each side of each replication
        assert (counters.gaussians_drawn, counters.g_evals, counters.f_evals) == (12, 6, 6)


def test_mc_l2_error_thread_count_invariance():
    problem = manufactured_sine(2)
    x = np.array([0.2, -0.1])
    one = mc_l2_error(problem, 2, 2, 2, 0.0, x, 25, seed=11, threads=1)
    three = mc_l2_error(problem, 2, 2, 2, 0.0, x, 25, seed=11, threads=3)
    assert np.array_equal(one.estimates, three.estimates)
    assert one.value_error == three.value_error
    assert one.grad_se == three.grad_se


def test_mc_l2_error_more_threads_than_replications():
    problem = manufactured_sine(1)
    few = mc_l2_error(problem, 1, 2, 2, 0.0, np.zeros(1), 3, seed=2, threads=8)
    one = mc_l2_error(problem, 1, 2, 2, 0.0, np.zeros(1), 3, seed=2, threads=1)
    assert np.array_equal(few.estimates, one.estimates)


def _outputs_under_cap(monkeypatch, cap):
    """Estimates and counters on a small grid, with the fold cap set to ``cap``."""
    monkeypatch.setattr(mlp_core, "_FOLD_CAP", cap)
    out = []
    for dim in (1, 2):
        problem = manufactured_sine(dim)
        x = np.linspace(-0.4, 0.3, dim)
        for n in (1, 2, 3):
            for M in (1, 2, 3):
                for Q in (1, 2, 3):
                    for s in (0.0, 0.25):
                        counters = CostCounters()
                        est = mlp_estimate(problem, n, M, Q, key=(n, M, Q), seed=17, s=s, x=x, counters=counters)
                        out.append((est.components, vars(counters)))
        for threads in (1, 2, 3):
            counters = CostCounters()
            report = mc_l2_error(problem, 3, 2, 3, 0.25, x, 5, seed=19, threads=threads, counters=counters)
            out.append((report.estimates, vars(counters)))
    return out


def test_node_fold_cap_does_not_change_outputs(monkeypatch):
    # cap 0 never folds, 40 folds part of the nodes in some calls, 10**12
    # always folds all of them; the default folds these small blocks fully
    default = _outputs_under_cap(monkeypatch, mlp_core._FOLD_CAP)
    for cap in (0, 40, 10**12):
        for (a, ca), (b, cb) in zip(default, _outputs_under_cap(monkeypatch, cap)):
            assert np.array_equal(a, b)
            assert ca == cb


def test_lane_chunks_do_not_change_outputs(monkeypatch):
    # caps that force chunks of 1, 7 and 64 lanes, and the default cap, at
    # 1, 2 and 3 threads; the residual's left-hand side runs on one thread
    def study(problem, n, M, Q, s, reps):
        def run(threads):
            counters = CostCounters()
            x = np.linspace(-0.4, 0.3, problem.dim)
            report = mc_l2_error(problem, n, M, Q, s, x, reps, seed=23, key=(2,), threads=threads, counters=counters)
            return report.estimates, vars(counters)

        return M**n * Q * problem.dim, run

    def residual(threads):
        res = discrete_fk_residual(manufactured_sine(1), 2, 3, 2, 0.25, np.full(1, 0.2), 50, seed=4)
        return np.concatenate([res.residual, res.radius]), {}

    default = mlp_core._LANE_CAP
    cases = [study(manufactured_sine(2), 3, 2, 3, 0.25, 130), study(heat_quadratic(3, 1.0), 2, 3, 2, 0.0, 23)]
    for block, run in cases + [(3**2 * 2 * 1, residual)]:
        outputs = []
        for cap in (default, block, 7 * block, 64 * block):
            monkeypatch.setattr(mlp_core, "_LANE_CAP", cap)
            outputs += [run(threads) for threads in (1, 2, 3)]
        for estimates, counters in outputs[1:]:
            assert np.array_equal(estimates, outputs[0][0])
            assert counters == outputs[0][1]


@pytest.mark.parametrize("variation", tuple(selfcheck._VARIATIONS)[1:])
def test_estimator_contracts(variation):
    # selfcheck's determinism cases under the variation: bit-identical to their default runs, counters equal
    # to the cost recursions times the lanes, and the caller's x untouched; a failure names case and variation
    if variation == "numpy" and _bits._KERNEL is None:
        pytest.skip("the compiled kernel did not load")
    ok, detail = selfcheck._check_determinism((variation,))
    assert ok, detail


def test_estimator_cases_reach_the_layouts_they_guard(monkeypatch):
    # d on both sides of the d <= 7 row sums, a zero f, a study with fewer replications than threads-3 has
    # threads, residual checks (per-lane start times), a strided x, and studies split at chunk edges by
    # one-lane chunks
    cases = selfcheck._estimator_cases()
    assert {case.problem.dim for case in cases} >= {1, 2, 3, 8, 10}
    assert any(not case.problem.nonlinearity(0.5, np.ones((3, case.problem.dim)), np.ones(3),
                                             np.ones((3, case.problem.dim))).any() for case in cases)
    studies = [case for case in cases if case.kind == "study"]
    assert any(case.reps < 3 for case in studies) and any(case.kind == "residual" for case in cases)
    assert any(not case.x.flags.c_contiguous for case in cases)
    chunks = _record_chunks(monkeypatch)
    monkeypatch.setattr(mlp_core, "_LANE_CAP", 1)
    for case in studies:
        mc_l2_error(case.problem, case.n, case.M, case.Q, case.s, case.x, case.reps, key=case.key)
    assert len(chunks) == sum(case.reps for case in studies) > len(studies)


def _record_chunks(monkeypatch):
    """Record (rep_lo, rep_hi) of every ``_replication_batch`` call, which returns zeros instead of estimates."""
    chunks = []

    def record(problem, plan, seed, key, s, x, counters, rep_lo, rep_hi):
        chunks.append((rep_lo, rep_hi))
        return np.zeros((rep_hi - rep_lo, problem.dim + 1))

    monkeypatch.setattr(mlp_core, "_replication_batch", record)
    return chunks


def _assert_plan(chunks, reps, block, threads):
    """Contiguous non-empty chunks covering 0..reps, under the cap unless one lane, at least one per thread."""
    chunks = sorted(chunks)
    assert [lo for lo, _ in chunks] == [0] + [hi for _, hi in chunks[:-1]]
    assert chunks[-1][1] == reps
    assert all(lo < hi and ((hi - lo) * block <= mlp_core._LANE_CAP or hi - lo == 1) for lo, hi in chunks)
    assert len(chunks) >= min(threads, reps)


def test_lane_planner_chunks(monkeypatch):
    chunks = _record_chunks(monkeypatch)
    for dim, n, M, Q in ((2, 4, 4, 4), (10, 4, 4, 4), (1, 1, 1, 1), (3, 5, 5, 5)):
        problem = manufactured_sine(dim)
        block = M**n * Q * dim
        for reps in (2, 3, 64, 1000, 4097):
            for threads in (1, 2, 3, 8):
                chunks.clear()
                mc_l2_error(problem, n, M, Q, 0.0, np.zeros(dim), reps, threads=threads)
                _assert_plan(chunks, reps, block, threads)
    # the benchmark studies keep their plans: sine d=2 and heat d=10 at n=M=Q=4
    chunks.clear()
    mc_l2_error(manufactured_sine(2), 4, 4, 4, 0.0, np.zeros(2), 64, threads=1)
    assert chunks == [(0, 64)]
    chunks.clear()
    mc_l2_error(heat_quadratic(10, 1.0), 4, 4, 4, 0.0, np.zeros(10), 32, threads=2)
    assert sorted(chunks) == [(0, 16), (16, 32)]
    # both sides of the residual check: the right-hand side's lanes each make
    # a level-(n-1) call over Q lanes, a block of Q M^(n-1) Q d Gaussians
    rhs_chunks = []

    def record_rhs(problem, plan, seed, key, s, x, counters, rep_lo, rep_hi):
        rhs_chunks.append((rep_lo, rep_hi))
        return np.ones((rep_hi - rep_lo, problem.dim + 1))

    monkeypatch.setattr(mlp_core, "_residual_rhs", record_rhs)
    for cap in (mlp_core._LANE_CAP, 200):
        monkeypatch.setattr(mlp_core, "_LANE_CAP", cap)
        for dim, n, M, Q in ((1, 1, 1, 1), (2, 2, 2, 3), (3, 2, 3, 3)):
            for reps in (2, 3, 1000, 40_000):
                chunks.clear()
                rhs_chunks.clear()
                discrete_fk_residual(manufactured_sine(dim), n, M, Q, 0.0, np.zeros(dim), reps)
                _assert_plan(chunks, reps, M**n * Q * dim, 1)
                _assert_plan(rhs_chunks, reps, Q * M ** (n - 1) * Q * dim, 1)
    assert len(rhs_chunks) > 1


def test_one_thread_builds_no_executor(monkeypatch):
    # a point estimate, a one-thread study and a residual check run their lanes on the caller
    def refuse(*args, **kwargs):
        raise AssertionError("built a ThreadPoolExecutor")

    monkeypatch.setattr(mlp_core, "ThreadPoolExecutor", refuse)
    problem = manufactured_sine(2)
    mlp_estimate(problem, 2, 2, 2, x=np.zeros(2))
    mc_l2_error(problem, 2, 2, 2, 0.0, np.zeros(2), 5, threads=1)
    discrete_fk_residual(problem, 1, 2, 2, 0.0, np.zeros(2), 4)
    with pytest.raises(AssertionError, match="ThreadPoolExecutor"):  # two threads do build one
        mc_l2_error(problem, 2, 2, 2, 0.0, np.zeros(2), 5, threads=2)


def _added_mb(call: str, cap: int) -> float:
    """Peak RSS in MB that ``call`` adds in a fresh process with ``_LANE_CAP`` = cap."""
    script = textwrap.dedent(
        f"""
        import resource, sys
        import numpy as np
        from mlpicard import mlp_core
        from mlpicard.problems import heat_quadratic, manufactured_sine

        mlp_core._LANE_CAP = int(sys.argv[1])
        base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        {call}
        print((resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - base) / 1024)
        """
    )
    # an exec'd process's ru_maxrss starts at the peak of the image it
    # replaced, so the call runs as a grandchild of a small launcher, not
    # as a child of this test process
    launcher = "import subprocess, sys; sys.exit(subprocess.run(sys.argv[1:]).returncode)"
    cmd = [sys.executable, "-c", launcher, sys.executable, "-c", script, str(cap)]
    return float(subprocess.run(cmd, capture_output=True, text=True, check=True, env=_child_env()).stdout)


def _child_env() -> dict:
    """The environment of a fresh interpreter that imports the package this test imported,
    also when only pytest's path holds it."""
    src = os.path.dirname(os.path.dirname(mlp_core.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_study_memory_is_bounded_by_one_chunk():
    # heat d=10 at n=1, M=1000, Q=4 has a top block of 40,000 Gaussians per
    # replication, so 200 replications as one batch add well over 100 MB
    call = "mlp_core.mc_l2_error(heat_quadratic(10, 1.0), 1, 1000, 4, 0.0, np.zeros(10), 200, seed=3)"
    assert _added_mb(call, 10**12) >= 100.0  # one batch
    assert _added_mb(call, mlp_core._LANE_CAP) <= 25.0


def test_residual_memory_is_bounded_by_one_chunk():
    # both sides of a sine d=3, n=2, M=Q=3 residual over 40,000 replications
    # as one batch each add about 130 MB
    call = "mlp_core.discrete_fk_residual(manufactured_sine(3), 2, 3, 3, 0.1, np.full(3, 0.2), 40_000, seed=9)"
    assert _added_mb(call, 10**12) >= 100.0
    assert _added_mb(call, mlp_core._LANE_CAP) <= 25.0


def test_kernel_path_never_imports_scipy(tmp_path):
    # pytest's own process has loaded scipy already, so a fresh interpreter runs every entry
    script = textwrap.dedent(
        """
        import sys
        import numpy as np
        import mlpicard
        from mlpicard import _bits, cli
        from mlpicard.problems import manufactured_sine

        if _bits._KERNEL is None:
            print(_bits._FALLBACK_REASON)
            sys.exit(10)
        problem = manufactured_sine(2)
        study = lambda: mlpicard.mc_l2_error(problem, 2, 2, 2, 0.0, np.zeros(2), 6, seed=5, threads=2)
        mlpicard.mlp_estimate(problem, 3, 3, 3, x=np.zeros(2))
        kernel = study()
        mlpicard.discrete_fk_residual(problem, 1, 2, 2, 0.0, np.zeros(2), 50, seed=3)
        argv = ["converge", "--dim", "2", "--x", "random-in-box", "--diagonal", "2", "--reps", "4", "--out"]
        assert cli.main(argv + [sys.argv[1]]) == 0
        assert "scipy.special" not in sys.modules
        # the numpy references' first draw imports scipy, on a pool thread
        _bits._KERNEL = None
        reference = study()
        assert "scipy.special" in sys.modules
        assert reference.estimates.tobytes() == kernel.estimates.tobytes()
        """
    )
    cmd = [sys.executable, "-c", script, str(tmp_path / "study.csv")]
    done = subprocess.run(cmd, capture_output=True, text=True, env=_child_env())
    if done.returncode == 10:
        pytest.skip(f"numpy fallback runs: {done.stdout.strip()}")
    assert done.returncode == 0, done.stderr


def test_shifted_points_match_numpy():
    # the numpy stand-in gives numpy's broadcast add on the node groups of selfcheck's cases
    cases = [args for name, args in selfcheck._kernel_cases(np.random.default_rng(41)) if name == "shifted_points"]
    for x, dw, y, m, B, Q, d, k0, g in cases:
        mlp_core._points_numpy(x, dw, y, m, B, Q, d, k0, g)
        assert y.tobytes() == (x[None, :, None] + dw[:, :, k0 : k0 + g]).tobytes(), (m, B, g, Q, d, k0)


def test_level_zero_children_pass_zero_inputs(monkeypatch):
    # at n = 1 every f call is on level-0 estimates: read-only views of +0.0
    # (a -0.0 would change f's bits) in the shapes (L,) and (L, d)
    seen = []

    def nonlinearity(t, x, w, z):
        seen.append((x.shape, w, z))
        return np.zeros(np.shape(w))

    problem = dataclasses.replace(manufactured_sine(3), nonlinearity=nonlinearity)
    for kernel in (_bits._KERNEL, None):
        monkeypatch.setattr(_bits, "_KERNEL", kernel)
        seen.clear()
        mlp_estimate(problem, 1, 2, 3, x=np.zeros(3))
        mc_l2_error(problem, 1, 3, 2, 0.0, np.zeros(3), 4)
        assert len(seen) == 2
        for (lanes, d), w, z in seen:
            assert w.shape == (lanes,) and z.shape == (lanes, d) and d == 3
            assert not (w.any() or z.any() or np.signbit(w).any() or np.signbit(z).any())
            assert not (w.flags.writeable or z.flags.writeable)


def _trace_calls(monkeypatch):
    """Record the block B * M^n * Q * d of every ``_mlp_batch`` call."""
    calls = []
    inner = mlp_core._mlp_batch

    def traced(problem, n, M, Q, plan, h0, h1, s, x, counters):
        calls.append(x.shape[0] * M**n * Q * x.shape[1])
        return inner(problem, n, M, Q, plan, h0, h1, s, x, counters)

    monkeypatch.setattr(mlp_core, "_mlp_batch", traced)
    return calls


def test_node_fold_call_count_and_block_cap(monkeypatch):
    # the fold cap changes after a first call has cached the request's plan, so a cap kept in the plan fails here
    problem = manufactured_sine(2)
    calls = _trace_calls(monkeypatch)
    mlp_estimate(problem, 3, 3, 3, key=(1,), seed=2, x=np.zeros(2))
    assert len(calls) == 5  # levels 3, 2, 1, 1 and 2, 1, 1: level-0 estimates are zeros without a call
    assert max(calls) <= max(mlp_core._FOLD_CAP, calls[0])
    # a cap between the top block (162) and a full fold's deepest block
    # (4,374) stops folding part-way down the recursion
    for cap in (200, 500, 2000):
        monkeypatch.setattr(mlp_core, "_FOLD_CAP", cap)
        calls.clear()
        mlp_estimate(problem, 3, 3, 3, key=(1,), seed=2, x=np.zeros(2))
        assert max(calls) <= max(cap, calls[0])


def test_plan_is_read_only_flat_in_M_and_sized_by_the_recursion():
    # a plan's arrays, its rule's included, are read-only and hold the same bytes at M = 2 and M = 10^6; its blocks
    # are M^l Q d Gaussians at every level, and its rule, ranks and chains those of its key, for every request
    # check_request accepts at d = 1 and 2 with M, Q <= 4
    def arrays(value):
        if isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, tuple):  # the plan and its children
            for item in value:
                yield from arrays(item)
        elif dataclasses.is_dataclass(value):  # the rule
            for item in vars(value).values():
                yield from arrays(item)

    assert not any(a.flags.writeable for a in arrays(mlp_core._plan(3, 2, 3, 2)))
    assert len({sum(a.nbytes for a in arrays(mlp_core._plan(1, M, 4, 1))) for M in (2, 10**6)}) == 1
    accepted = 0
    for d, n, M, Q in itertools.product((1, 2), range(mlp_core.MAX_LEVEL + 1), range(1, 5), range(1, 5)):
        try:
            check_request(manufactured_sine(d), n, M, Q, 0.0, np.zeros(d))
        except BudgetError:
            continue
        plan, accepted = mlp_core._plan(n, M, Q, d), accepted + 1
        assert (plan.block, [c.block for c in plan.children]) == (M**n * Q * d, [M**l * Q * d for l in range(n)])
        assert (plan.rule.order, plan.ranks.tolist(), plan.chains.tolist()) == (Q, [*range(1, Q + 1)],
                                                                               [[l] for l in range(-n, n + 1)])
    assert accepted > 180


def test_problem_output_shapes_are_checked():
    def problem(terminal, nonlinearity):
        return Problem(
            horizon=1.0,
            dim=2,
            terminal=terminal,
            nonlinearity=nonlinearity,
            lip_f=np.zeros(3),
            lip_g=np.zeros(2),
        )

    good_g = lambda x: np.zeros(np.asarray(x).shape[:-1])
    good_f = lambda t, x, w, z: np.zeros(np.shape(w))
    scalar_f = problem(good_g, lambda t, x, w, z: 0.0)
    with pytest.raises(ConfigError, match=r"nonlinearity returned shape \(\), expected \(\d+,\)"):
        mlp_estimate(scalar_f, 2, 2, 2, x=np.zeros(2))
    long_g = problem(lambda x: np.zeros(np.asarray(x).shape[0] + 1), good_f)
    with pytest.raises(ConfigError, match=r"terminal returned shape \(2,\), expected \(1,\)"):
        mlp_estimate(long_g, 1, 2, 2, x=np.zeros(2))
    with pytest.raises(ConfigError, match="nonlinearity"):
        discrete_fk_residual(scalar_f, 1, 2, 2, 0.0, np.zeros(2), 10)
    long_exact = dataclasses.replace(heat_quadratic(2, 1.0), exact=lambda t, x: np.zeros(5))
    with pytest.raises(ConfigError, match=r"exact returned shape \(5,\), expected \(1, 3\)"):
        mc_l2_error(long_exact, 1, 2, 2, 0.0, np.zeros(2), 4)


def test_problem_outputs_must_be_real_numbers():
    # a cast would drop a complex part with a ComplexWarning, and fail on text with numpy's own ValueError
    base = manufactured_sine(2)
    outputs = {"nonlinearity": lambda t, x, w, z: w + 1j, "terminal": lambda x: np.full(len(x), "a"),
               "exact": lambda t, x: base.exact(t, x) + 0j}
    for name, fn in outputs.items():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match=f"^problem.{name} returned values that are not real numbers"):
                mc_l2_error(dataclasses.replace(base, **{name: fn}), 2, 2, 2, 0.0, np.zeros(2), 4)


@pytest.mark.parametrize("name", ["terminal", "nonlinearity", "exact"])
def test_problem_functions_get_read_only_arguments(name):
    # a function that writes into its x raises a ConfigError that names it, on pool threads too, and
    # the caller's own x keeps its values and its flags
    problem = manufactured_sine(2)
    fn = getattr(problem, name)

    def mutating(*args):
        x = args[0 if name == "terminal" else 1]
        x += 1.0
        return fn(*args)

    problem = dataclasses.replace(problem, **{name: mutating})
    x = np.array([0.3, -0.2])
    error = f"problem.{name} wrote into its read-only arguments"
    if name != "exact":  # a point estimate does not call exact
        with pytest.raises(ConfigError, match=error):
            mlp_estimate(problem, 2, 2, 2, x=x)
    with pytest.raises(ConfigError, match=error):
        mc_l2_error(problem, 2, 2, 2, 0.0, x, 4, threads=2)
    assert x.tolist() == [0.3, -0.2] and x.flags.writeable


def test_other_value_errors_of_f_reach_the_caller_unchanged():
    def nonlinearity(t, x, w, z):
        raise ValueError("domain")

    problem = dataclasses.replace(manufactured_sine(2), nonlinearity=nonlinearity)
    with pytest.raises(ValueError, match="^domain$") as raised:
        mlp_estimate(problem, 1, 1, 1, x=np.zeros(2))
    assert type(raised.value) is ValueError  # not a ConfigError


def test_negative_zero_start_time_runs_as_positive_zero():
    # check_request lets s = -0.0 through; f and exact see no time with its sign bit set, and every output
    # has the bytes of the s = +0.0 run
    base, times = manufactured_sine(2), []

    def record(fn):
        def recorded(t, *args):
            times.append(bool(np.signbit(t).any()))
            return fn(t, *args)

        return recorded

    problem = dataclasses.replace(base, nonlinearity=record(base.nonlinearity), exact=record(base.exact))
    runs = []
    for s in (-0.0, 0.0):
        report = mc_l2_error(problem, 2, 2, 2, s, np.full(2, 0.3), 4, seed=5)
        residual = discrete_fk_residual(problem, 1, 2, 2, s, np.full(2, 0.3), 4, seed=5)
        estimate = mlp_estimate(problem, 2, 2, 2, s=s, x=np.full(2, 0.3), seed=5)
        runs.append([a.tobytes() for a in (report.component_errors, report.estimates, residual.residual,
                                           residual.radius, estimate.components)])
    assert len(times) > 4 and not any(times)
    assert runs[0] == runs[1]


def test_mc_l2_error_zero_problem_is_exact():
    report = mc_l2_error(zero_problem(2), 2, 2, 2, 0.0, np.zeros(2), 10, seed=0)
    assert np.all(report.component_errors == 0.0)
    assert np.all(report.component_ses == 0.0)
    assert report.value_error == 0.0 and report.grad_error == 0.0


def test_mc_l2_error_decreases_with_level_heat():
    # repeated-run sign test: the level-3 diagonal beats level 2 in the
    # value component in at least 7 of 8 independent studies
    problem = heat_quadratic(2, 1.0)
    x = np.array([0.5, -0.25])
    wins = 0
    for study in range(8):
        e2 = mc_l2_error(problem, 2, 2, 2, 0.0, x, 400, seed=100 + study).value_error
        e3 = mc_l2_error(problem, 3, 3, 3, 0.0, x, 400, seed=100 + study).value_error
        wins += 1 if e3 < e2 else 0
    assert wins >= 7


def test_mc_l2_error_requires_exact_and_replications():
    problem = constant_problem(2, 1.0)
    with pytest.raises(ValueError):
        mc_l2_error(problem, 1, 2, 2, 0.0, np.zeros(2), 10, seed=0)
    with pytest.raises(ValueError):
        mc_l2_error(heat_quadratic(2, 1.0), 1, 2, 2, 0.0, np.zeros(2), 1, seed=0)
    for reps, threads, message in ((2.5, 1, "replications must be an integer >= 2, got 2.5"),
                                   (True, 1, "replications must be an integer >= 2, got True"),
                                   (10, True, "threads must be an integer in [1, 256], got True"),
                                   (10, 2.0, "threads must be an integer in [1, 256], got 2.0")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            mc_l2_error(heat_quadratic(2, 1.0), 1, 2, 2, 0.0, np.zeros(2), reps, seed=0, threads=threads)
    numpy_ints = mc_l2_error(heat_quadratic(2, 1.0), np.int64(1), np.int32(2), np.int64(2), 0.0, np.zeros(2), np.int64(4), threads=np.int64(2))
    python_ints = mc_l2_error(heat_quadratic(2, 1.0), 1, 2, 2, 0.0, np.zeros(2), 4)
    assert np.array_equal(numpy_ints.estimates, python_ints.estimates)


def test_request_caps_replications_and_threads():
    # replication r becomes an int64 key label; each thread runs a chunk. Only the guard runs here.
    problem, x = manufactured_sine(2), np.zeros(2)
    check_request(problem, 1, 1, 1, 0.0, x, replications=2**63, threads=mlp_core.MAX_THREADS)
    with pytest.raises(ValueError, match=r"^replications must be an integer in \[2, 9223372036854775808\], got 18446744073709551616$"):
        check_request(problem, 1, 1, 1, 0.0, x, replications=2**64)
    for threads in (mlp_core.MAX_THREADS + 1, 10**6):
        with pytest.raises(ValueError, match=rf"^threads must be an integer in \[1, 256\], got {threads}$"):
            check_request(problem, 1, 1, 1, 0.0, x, replications=2, threads=threads)


def test_budget_guards(monkeypatch):
    problem = manufactured_sine(2)
    x = np.zeros(2)
    with pytest.raises(BudgetError):
        mlp_estimate(problem, 7, 2, 2, x=x)
    with pytest.raises(BudgetError):
        mlp_estimate(problem, 6, 30, 2, x=x)  # cost_rn_exact >= d M^n = 1.5e9 Gaussians, above the budget
    # the budget is fixed: no entry point takes a keyword that raises it
    for keyword in ("max_level", "max_gaussians"):
        with pytest.raises(TypeError):
            mlp_estimate(problem, 3, 3, 3, x=x, **{keyword: 10**12})
        with pytest.raises(TypeError):
            mc_l2_error(problem, 1, 1, 1, 0.0, x, 2, **{keyword: 10**12})
        with pytest.raises(TypeError):
            check_request(problem, 1, 1, 1, 0.0, x, **{keyword: 10**12})
    monkeypatch.setattr(mlp_core, "MAX_GAUSSIANS", 10)
    with pytest.raises(BudgetError):
        mlp_estimate(problem, 3, 3, 3, x=x)
    with pytest.raises(ValueError):
        mlp_estimate(problem, -1, 2, 2, x=x)
    with pytest.raises(ValueError):
        mlp_estimate(problem, 2, 0, 2, x=x)
    for n, M, Q, name in ((2.5, 2, 2, "n"), (True, 2, 2, "n"), (2, 2.0, 2, "M"), (2, 2, "2", "Q"), (2, 2, False, "Q")):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            mlp_estimate(problem, n, M, Q, x=x)


def test_keys_must_be_sequences():
    # an iterator would pass the guard and then reach the sampler empty, giving the root key's estimate
    problem, x = manufactured_sine(2), np.zeros(2)
    calls = (
        lambda: mlp_estimate(problem, 1, 1, 1, key=iter((5,)), x=x),
        lambda: mc_l2_error(problem, 1, 1, 1, 0.0, x, 2, key=(k for k in (5,))),
        lambda: discrete_fk_residual(problem, 1, 1, 1, 0.0, x, 2, key={5}),
    )
    for call in calls:
        with pytest.raises(ValueError, match="^key must be a sequence of integers, got "):
            call()
    expected = mlp_estimate(problem, 2, 2, 2, key=(5, 7), x=x).components
    for key in ([5, 7], range(5, 9, 2), np.array([5, 7])):
        assert np.array_equal(mlp_estimate(problem, 2, 2, 2, key=key, x=x).components, expected)


def test_domain_validation():
    problem = manufactured_sine(2)
    with pytest.raises(ValueError):
        mlp_estimate(problem, 1, 2, 2, s=1.0, x=np.zeros(2))
    with pytest.raises(ValueError):
        mlp_estimate(problem, 1, 2, 2, s=-0.1, x=np.zeros(2))
    with pytest.raises(ValueError):
        mlp_estimate(problem, 1, 2, 2, s=0.0, x=np.zeros(3))
    with pytest.raises(ValueError):
        mlp_estimate(problem, 1, 2, 2, s=0.0, x=np.array([np.nan, 0.0]))
    for s in (None, "0.5", np.zeros(1), 0.5j, False, 10**400):  # False would be s = 0.0; 10**400 overflows a float
        with pytest.raises(ValueError, match=f"^s must be a finite real number >= 0.0, got {re.escape(repr(s))}$"):
            mlp_estimate(problem, 1, 2, 2, s=s, x=np.zeros(2))
    for x in (["a", "b"], [1 + 2j, 0], [None, 0.0], np.array([True, False])):
        with pytest.raises(ValueError, match=f"^x must hold finite real numbers, got {re.escape(repr(x))}$"):
            mlp_estimate(problem, 1, 2, 2, x=x)


def test_collapsed_time_nodes_are_rejected_before_any_work():
    # near the horizon a nested call's first Gauss-Legendre node rounds onto its start, so dW / (t - s) would divide
    # by zero and the estimate would raise EvaluationError after all its work; the request guard names the request
    problem = manufactured_sine(1)
    for n, Q, s in ((1, 2, 1 - 1e-16), (1, 16, 1 - 1e-14), (3, 64, 0.999999)):
        message = rf"^s={re.escape(repr(s))} is too close to horizon=1.0 for n={n}, Q={Q}: the first time node "
        with pytest.raises(ValueError, match=message):
            mlp_estimate(problem, n, 1, Q, s=s, x=np.zeros(1))
    for n, Q, s in ((1, 2, 1 - 1e-15), (3, 64, 0.99999)):  # as near as these run, with finite output
        assert np.isfinite(mlp_estimate(problem, n, 1, Q, s=s, x=np.zeros(1)).components).all()


def test_non_finite_terminal_raises():
    problem = Problem(
        horizon=1.0,
        dim=1,
        terminal=lambda x: np.full(np.asarray(x).shape[:-1], np.nan),
        nonlinearity=lambda t, x, w, z: np.zeros(np.shape(w)),
        lip_f=np.zeros(2),
        lip_g=np.zeros(1),
    )
    with pytest.raises(EvaluationError):
        mlp_estimate(problem, 1, 2, 2, x=np.zeros(1))
    with pytest.raises(EvaluationError, match="residual"):  # heat's g overflows at x = 1e200
        discrete_fk_residual(heat_quadratic(1), 1, 1, 1, 0.0, np.array([1e200]), 2)


def test_overflowing_point_raises_one_error_and_no_warning():
    # |x|^2 overflows heat's g to inf: the estimate's non-finite check speaks, numpy's warnings do not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EvaluationError, match="^estimator produced non-finite components$"):
            mlp_estimate(heat_quadratic(2), 2, 2, 2, x=np.full(2, 1e200))


def test_lipschitz_smoke_under_point_perturbation():
    problem = manufactured_sine(2)
    base = mlp_estimate(problem, 2, 2, 2, key=(4,), seed=8, s=0.0, x=np.array([0.1, 0.2]))
    delta = 1e-3
    moved = mlp_estimate(problem, 2, 2, 2, key=(4,), seed=8, s=0.0, x=np.array([0.1 + delta, 0.2]))
    assert abs(moved.value - base.value) <= 1000.0 * delta


def test_fk_residual_f_zero_value_component():
    # with f = 0 both sides reduce to the same terminal expectation, so the
    # residual is pure Monte Carlo noise and sits inside its radius
    problem = heat_quadratic(1, 1.0)
    res = discrete_fk_residual(problem, 1, 2, 1, 0.0, np.array([0.5]), 40_000, seed=21)
    assert res.within_radius


def test_fk_residual_level_two_sine():
    problem = manufactured_sine(1, c=1.0)
    res = discrete_fk_residual(problem, 2, 2, 2, 0.0, np.array([0.25]), 30_000, seed=6)
    assert res.radius.shape == (2,)
    assert res.within_radius


def test_terminal_draw_reproducible_via_sample_path():
    # key discipline: the i-th terminal sample of a level-n call under root
    # key k draws the path keyed k + (0, -i); with a linear terminal and
    # f = 0, n = M = 1 exposes that draw exactly
    from mlpicard.randomness import sample_path

    problem = Problem(
        horizon=1.0,
        dim=2,
        terminal=lambda x: np.asarray(x)[..., 0],
        nonlinearity=lambda t, x, w, z: np.zeros(np.shape(w)),
        lip_f=np.zeros(3),
        lip_g=np.array([1.0, 0.0]),
    )
    est = mlp_estimate(problem, 1, 1, 1, key=(3,), seed=9, s=0.25, x=np.zeros(2))
    path = sample_path(9, (3, 0, -1), 2, 0.25, [1.0])
    dw = path.increments[0]
    assert est.value == dw[0]
    assert np.array_equal(est.gradient, dw[0] * dw / 0.75)


def test_fk_residual_guards():
    problem = manufactured_sine(1)
    x = np.zeros(1)
    with pytest.raises(ValueError):
        discrete_fk_residual(problem, 0, 2, 2, 0.0, x, 100)
    with pytest.raises(ValueError):
        discrete_fk_residual(problem, 3, 2, 2, 0.0, x, 100)
    with pytest.raises(ValueError):
        discrete_fk_residual(problem, 2, 4, 2, 0.0, x, 100)
    with pytest.raises(ValueError):
        discrete_fk_residual(manufactured_sine(4), 1, 2, 2, 0.0, np.zeros(4), 100)
    # malformed fields are named by the request guard before the small-instance guard compares them
    for n, M, name in (("2", 2, "n"), (None, 2, "n"), (1, "2", "M"), (1, None, "M")):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            discrete_fk_residual(problem, n, M, 2, 0.0, x, 100)
