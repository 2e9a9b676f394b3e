"""Tests of the benchmark itself, on tiny inputs.

Run from the repository root: python3 -m pytest bench/tests -q
"""

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run as bench_run  # noqa: E402
from tracing import _covered  # noqa: E402
from workloads import WORKLOADS, Runner  # noqa: E402

# the real levels, or one lower, with a handful of replications so a run takes seconds
TINY = {
    "study": dataclasses.replace(
        WORKLOADS["study_heat_d10_t2"], name="tiny_study", level=(3, 3, 3), replications=4,
        tol_value=math.inf, tol_grad=math.inf,
    ),
    "point": dataclasses.replace(
        WORKLOADS["point_sine_d2"], name="tiny_point", level=(2, 2, 2), tol_value=math.inf, tol_grad=math.inf,
    ),
}


def _declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@pytest.mark.parametrize("kind", sorted(TINY))
def test_every_metric_is_emitted_with_its_unit(kind):
    record = bench_run.measure(TINY[kind], seed=3, seconds=0.2, trace=True, setup_probes=1)
    assert record["correct"], (record["gates"], record["failures"])
    assert all(record["gates"].values())
    for traced, section in ((False, "end_to_end"), (True, "per_layer")):
        line = bench_run.result_line(dict(record, trace=int(traced)))
        declared = _declared(section)
        assert {k: v["unit"] for k, v in line["metrics"].items()} == declared
        assert all(math.isfinite(v["value"]) for v in line["metrics"].values())
    assert all(v > 0 for k, v in record["end_to_end"].items() if k != "fail_frac")
    assert record["end_to_end"]["fail_frac"] == 0.0


@pytest.mark.parametrize("kind", sorted(TINY))
def test_nan_nonlinearity_raises_fail_frac_instead_of_crashing(kind):
    def nan_f(problem):
        return dataclasses.replace(problem, nonlinearity=lambda t, x, w, z: np.full(np.shape(w), np.nan))

    record = bench_run.measure(TINY[kind], seed=4, seconds=0.2, trace=True, wrap_problem=nan_f, setup_probes=1)
    assert record["end_to_end"]["fail_frac"] > 0.0
    assert record["failed"] == record["attempted"] >= 1
    assert not record["correct"]
    assert any("EvaluationError" in f for f in record["failures"])


def test_wrong_estimate_fails_the_accuracy_gate():
    def shifted_g(problem):
        return dataclasses.replace(problem, terminal=lambda x, g=problem.terminal: g(x) + 10.0)

    outcome = Runner(WORKLOADS["point_sine_d2"], 5, shifted_g).run_op(0)
    assert outcome.error is not None and "above tolerance" in outcome.error
    assert Runner(WORKLOADS["point_sine_d2"], 5).run_op(0).error is None


def test_self_time_covers_children_on_two_threads():
    # two overlapping workers inside [0, 100] cover [10, 70]; one outside is clipped
    assert _covered([(10, 50), (30, 70), (90, 130)], 0, 100) == 70
    assert _covered([(20, 30), (10, 60)], 0, 100) == 50
    assert _covered([], 0, 100) == 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "point_sine_d2", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
