"""The package names the benchmark under ``bench/`` binds, checked on one tiny run.

``bench/tracing.py`` wraps layer boundaries by module attribute and reads
call arguments by position; ``bench/run.py`` and ``bench/workloads.py``
read a few more names.  A rename or a reordered signature breaks the
benchmark without failing any test of the package, so this test imports
those files read-only, as ``bench/tests`` does, and drives them.
"""

import contextlib
import io
import os
import sys
from unittest import mock

import numpy as np

from mlpicard import cli, mlp_core, problems

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
sys.path.insert(0, BENCH)

import run as bench_run  # noqa: E402
from tracing import Tracer, cold_build_rule_ms  # noqa: E402


def test_benchmark_bindings_trace_a_point_and_a_study():
    tracer = Tracer()
    params = {"c": 0.5, "beta": 0.5, "gamma": 0.5}
    # workloads.Runner builds its problem with dim by keyword and the workload's params
    problem = tracer.wrap_problem(problems.build_problem("manufactured_sine", dim=2, **params))
    # every keyword bench/workloads.py and bench/run.py pass to the config
    config = cli.ExperimentConfig(problem="manufactured_sine", dim=2, params=dict(params), x=[0.25, -0.5],
                                  levels=[(2, 2, 2)], replications=2, seed=1, threads=1, reproducible=True)
    build = cli.build_problem
    # workloads.Runner rebinds cli.build_problem to wrap the problem a study builds
    wrapped_build = mock.patch.object(cli, "build_problem", lambda *a, **k: tracer.wrap_problem(build(*a, **k)))
    with tracer.install(), wrapped_build:
        # _mlp_batch's n (argument 1) and x (argument 8) label and count the level spans
        mlp_core.mlp_estimate(problem, 2, 2, 2, key=(3,), seed=1, x=np.zeros(2))
        # _replication_batch's rep_lo and rep_hi (arguments 7 and 8) count the replications
        (row,) = cli.run_convergence(config)
    assert [c for c in cli.COLUMNS if c not in row] == []
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        cli.write_rows([row], "csv", None)  # as run.determinism_gate writes its CSV
    assert text.getvalue().splitlines() == [",".join(cli.COLUMNS), ",".join(str(row[c]) for c in cli.COLUMNS)]
    assert row["wall_ms"] == 0.0

    work = {}
    for span in tracer.spans:
        work[span[1]] = work.get(span[1], 0) + span[7]
    for name in ("mlp_core.level2", "randomness.normals", "randomness.states", "mlp_core.replication_batch"):
        assert work.get(name, 0) > 0, (name, work)
    # check_request reaches cost_rn_exact through mlp_core's module global, which the tracer rebinds
    for name in ("analysis.cost_rn_exact", "mlp_core.mlp_estimate", "mlp_core.mc_l2_error", "cli.run_convergence",
                 "problems.f", "problems.g"):
        assert name in work, (name, sorted(work))
    assert work["mlp_core.replication_batch"] == 2

    assert set(bench_run.machine_record()) >= {"cpu", "nproc", "python", "numpy", "scipy", "have_numba", "bit_path"}
    assert cold_build_rule_ms(2, repeats=1) > 0.0  # quadrature.build_rule.__wrapped__
