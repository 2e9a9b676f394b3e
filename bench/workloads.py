"""Benchmark workloads: inputs derived from the workload seed, one
operation per call, and the correctness gates each operation must pass.

A study operation is one ``cli.run_convergence`` call at one level; a
point operation is one ``mlp_estimate`` call.  The program sees only the
inputs derived here (estimator seed, key, evaluation point), never the
workload seed itself.
"""

from __future__ import annotations

import contextlib
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Optional
from unittest import mock

import numpy as np

from mlpicard import cli, mlp_core, problems
from mlpicard.analysis import cost_fe_exact, cost_rn_exact

# Independent input streams per workload seed, so that adding draws to
# one purpose never shifts the inputs of another.
OPS, WARM_UP, DETERMINISM, SPEEDUP = range(4)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``tol_value`` / ``tol_grad`` bound the error against ``problem.exact``:
    for a study, the RMS errors ``err_value`` / ``err_grad`` of the row;
    for a point, the absolute value error and the largest absolute
    gradient error of the single estimate.  README.md says how they were
    set.
    """

    name: str
    kind: str  # "study" or "point"
    problem: str
    dim: int
    level: tuple  # (n, M, Q)
    replications: int  # estimates per operation
    threads: int
    tol_value: float
    tol_grad: float
    params: dict = field(default_factory=dict)


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            name="study_sine_d2",
            kind="study",
            problem="manufactured_sine",
            dim=2,
            params={"c": 0.5, "beta": 0.5, "gamma": 0.5},
            level=(4, 4, 4),
            replications=64,
            threads=1,
            tol_value=0.24,
            tol_grad=0.63,
        ),
        Workload(
            name="study_heat_d10_t2",
            kind="study",
            problem="heat_quadratic",
            dim=10,
            params={"box_radius": 3.0},
            level=(4, 4, 4),
            replications=32,
            threads=2,
            tol_value=2.9,
            tol_grad=4.8,
        ),
        Workload(
            name="point_sine_d2",
            kind="point",
            problem="manufactured_sine",
            dim=2,
            params={"c": 0.5, "beta": 0.5, "gamma": 0.5},
            level=(3, 3, 3),
            replications=1,
            threads=1,
            tol_value=2.1,
            tol_grad=5.6,
        ),
    )
}


@dataclass(frozen=True)
class Outcome:
    """One operation: program wall time, estimates completed, the gate
    failure (None when every gate passed), the exact output for bitwise
    comparison between runs, and the (value, gradient) errors the
    tolerances are applied to."""

    seconds: float
    replications: int
    error: Optional[str]
    output: bytes
    errors: tuple = (math.nan, math.nan)


class Runner:
    """Runs a workload's operations for one workload seed.

    ``wrap_problem`` maps each problem the program builds to the one it
    uses; tracing and tests use it to wrap or replace ``terminal`` and
    ``nonlinearity``.
    """

    def __init__(self, workload: Workload, seed: int, wrap_problem: Optional[Callable] = None):
        self.workload = workload
        self.seed = seed
        self.wrap_problem = wrap_problem
        self.problem = problems.build_problem(workload.problem, dim=workload.dim, **workload.params)
        self.target = wrap_problem(self.problem) if wrap_problem else self.problem
        n, M, Q = workload.level
        self.rn = cost_rn_exact(n, M, Q, workload.dim)
        self.fe = cost_fe_exact(n, M, Q)

    def inputs(self, stream: int, i: int):
        """(estimator seed, key, evaluation point) of operation i of a stream."""
        rng = np.random.default_rng([self.seed, stream, i])
        est_seed = int(rng.integers(0, 2**63))
        key = (int(rng.integers(0, 2**31)),)
        r = self.problem.box_radius
        x = rng.uniform(-r, r, size=self.workload.dim)
        return est_seed, key, x

    def run_op(self, i: int, stream: int = OPS, replications: Optional[int] = None,
               threads: Optional[int] = None) -> Outcome:
        """Operation i of a stream; a raised error is a failed operation."""
        start = time.perf_counter()
        try:
            if self.workload.kind == "study":
                return self._study(i, stream, replications or self.workload.replications,
                                   threads or self.workload.threads)
            return self._point(i, stream)
        except Exception as exc:  # counted into fail_frac, the run goes on
            return Outcome(time.perf_counter() - start, 0, f"{type(exc).__name__}: {exc}", b"")

    def warm_up(self) -> Outcome:
        """The smallest operation that runs every code path of the workload."""
        return self.run_op(0, WARM_UP, replications=2)

    def _problem_hook(self):
        if self.wrap_problem is None:
            return contextlib.nullcontext()
        build = cli.build_problem
        return mock.patch.object(cli, "build_problem", lambda *a, **k: self.wrap_problem(build(*a, **k)))

    def _study(self, i: int, stream: int, replications: int, threads: int) -> Outcome:
        wl = self.workload
        est_seed, _, x = self.inputs(stream, i)
        config = cli.ExperimentConfig(
            problem=wl.problem,
            dim=wl.dim,
            params=dict(wl.params),
            x=list(x),
            levels=[tuple(wl.level)],
            replications=replications,
            seed=est_seed,
            threads=threads,
        )
        with self._problem_hook():
            start = time.perf_counter()
            (row,) = cli.run_convergence(config)
            seconds = time.perf_counter() - start
        output = repr([row[c] for c in cli.COLUMNS if c != "wall_ms"]).encode()
        errors = (row["err_value"], row["err_grad"])
        return Outcome(seconds, replications, self._check_row(row, errors), output, errors)

    def _check_row(self, row: dict, errors: tuple) -> Optional[str]:
        if row["rn_obs"] != row["rn_pred"] or row["fe_obs"] != row["fe_pred"]:
            return f"counters {row['rn_obs']}/{row['fe_obs']} != predicted {row['rn_pred']}/{row['fe_pred']}"
        stats = [row[c] for c in ("err_value", "se_value", "err_grad", "se_grad")]
        if not all(math.isfinite(v) for v in stats):
            return f"non-finite error statistics {stats}"
        return self._check_tolerance(errors)

    def _check_tolerance(self, errors: tuple) -> Optional[str]:
        if not (errors[0] <= self.workload.tol_value and errors[1] <= self.workload.tol_grad):
            return f"errors {errors[0]:.4g}/{errors[1]:.4g} above tolerance"
        return None

    def _point(self, i: int, stream: int) -> Outcome:
        n, M, Q = self.workload.level
        est_seed, key, x = self.inputs(stream, i)
        counters = mlp_core.CostCounters()
        start = time.perf_counter()
        est = mlp_core.mlp_estimate(self.target, n, M, Q, key=key, seed=est_seed, s=0.0, x=x, counters=counters)
        seconds = time.perf_counter() - start
        err = np.abs(est.components - self.problem.exact(0.0, x[None, :])[0])
        errors = (float(err[0]), float(err[1:].max()))
        return Outcome(seconds, 1, self._check_point(counters, errors), est.components.tobytes(), errors)

    def _check_point(self, counters, errors: tuple) -> Optional[str]:
        if counters.gaussians_drawn != self.rn or counters.function_evals != self.fe:
            return f"counters {counters.gaussians_drawn}/{counters.function_evals} != predicted {self.rn}/{self.fe}"
        return self._check_tolerance(errors)
