"""Outside-in layer trace.

The tracer wraps the functions one module of the package calls in the
next, at the names the caller binds, and keeps one span per call in
memory: id, name, start, end, parent, thread, operation and a work
count.  Rebinding ``mlp_core._mlp_batch`` sees every recursive call,
because the recursion calls itself through that module global.  The
problem's ``terminal`` and ``nonlinearity`` are wrapped through
``dataclasses.replace``.  Nothing in the package is edited.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import json
import statistics
import threading
import time
from collections import defaultdict
from typing import Callable, Optional, Union
from unittest import mock

import numpy as np

from mlpicard import cli, mlp_core, randomness
from mlpicard.analysis import cost_fe_exact, cost_rn_exact
from mlpicard.quadrature import build_rule

LEVELS = range(5)
OP = "bench.op"


def _size(args, result) -> int:
    return int(np.size(result))


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = -1
        self._next_id = itertools.count(1).__next__
        self._local = threading.local()
        self._main = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, name: Union[str, Callable], count: Optional[Callable] = None) -> Callable:
        """``fn`` recording one span per call.

        A span opened on a thread with no open span (a worker of the
        replication fan-out) takes as parent the innermost open span of
        the thread that created the tracer, which runs the operations.
        """

        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (self._main[-1] if self._main else 0)
            sid = self._next_id()
            stack.append(sid)
            result = None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                label = name(args) if callable(name) else name
                work = count(args, result) if count is not None and result is not None else 0
                self.spans.append((sid, label, start, end, parent, threading.get_ident(), self.op, work))

        return traced

    def wrap_problem(self, problem):
        return dataclasses.replace(
            problem,
            terminal=self.wrap(problem.terminal, "problems.g", _size),
            nonlinearity=self.wrap(problem.nonlinearity, "problems.f", _size),
        )

    def install(self) -> contextlib.ExitStack:
        """Rebind the layer boundaries; closing the stack restores them."""
        stack = contextlib.ExitStack()

        def patch(module, attr, name, count=None):
            stack.enter_context(mock.patch.object(module, attr, self.wrap(getattr(module, attr), name, count)))

        # _mlp_batch(problem, n, M, Q, rule, h0, h1, s, x, counters): count the lanes B of x
        patch(mlp_core, "_mlp_batch", lambda a: f"mlp_core.level{a[1]}", lambda a, r: a[8].shape[0])
        # _replication_batch(problem, n, M, Q, rule, seed, key, rep_lo, rep_hi, ...)
        patch(mlp_core, "_replication_batch", "mlp_core.replication_batch", lambda a, r: int(a[8] - a[7]))
        patch(mlp_core, "_standard_normals", "randomness.normals", _size)
        patch(mlp_core, "_extend_state", "randomness.states", lambda a, r: r[0].size)
        patch(mlp_core, "cost_rn_exact", "analysis.cost_rn_exact")
        patch(mlp_core, "mlp_estimate", "mlp_core.mlp_estimate")
        patch(randomness, "uniforms_from_states", "bits.uniforms", _size)
        patch(randomness, "ndtri", "randomness.ndtri", _size)
        patch(cli, "cost_rn_exact", "analysis.cost_rn_exact")
        patch(cli, "mc_l2_error", "mlp_core.mc_l2_error")
        patch(cli, "run_convergence", "cli.run_convergence")
        return stack

    def run_op(self, runner, i: int):
        """Operation i of ``runner`` under a root span of its own."""
        self.op = i
        return self.wrap(runner.run_op, OP)(i)

    def write(self, path: str) -> None:
        columns = ["id", "name", "start_ns", "end_ns", "parent", "thread", "op", "work"]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"columns": columns, "spans": self.spans}, fh)

    def summarize(self, workload) -> dict:
        """Per-layer metrics: counts per operation, self times, shares of wall time.

        A span's self time is its duration minus the part of its interval
        covered by its children, which may run on other threads.  A share
        is self time over the wall time of the traced operations, so with
        two busy threads the shares sum to up to 2.
        """
        children = defaultdict(list)
        for sid, _, start, end, parent, *_ in self.spans:
            children[parent].append((start, end))
        self_ns, dur_ns, work, calls = (defaultdict(int) for _ in range(4))
        for sid, name, start, end, *_rest, n in self.spans:
            self_ns[name] += end - start - _covered(children.get(sid, ()), start, end)
            dur_ns[name] += end - start
            work[name] += n
            calls[name] += 1

        ops = calls[OP]
        wall = dur_ns[OP]
        n, M, Q = workload.level

        def share(name):
            return self_ns[name] / wall

        def per_unit(name, unit_work):
            return self_ns[name] / unit_work if unit_work else 0.0

        levels = [f"mlp_core.level{l}" for l in range(n + 1)]
        glue = sum(self_ns[lv] for lv in levels)
        level_calls = sum(calls[lv] for lv in levels)
        # one center terminal value per call of level >= 1 is shared by its
        # samples and, by the counters' contract, carries no cost
        centers = sum(work[f"mlp_core.level{l}"] for l in range(1, n + 1))
        g_sampled = work["problems.g"] - centers
        busy, imbalance = self._thread_use(workload.threads)

        metrics = {
            "bits.uniforms": work["bits.uniforms"] / ops,
            "bits.ns_per_uniform": per_unit("bits.uniforms", work["bits.uniforms"]),
            "bits.share": share("bits.uniforms"),
            "randomness.normals": work["randomness.normals"] / ops,
            "randomness.ndtri_ns_per_normal": per_unit("randomness.ndtri", work["randomness.ndtri"]),
            "randomness.ndtri_share": share("randomness.ndtri"),
            "randomness.states": work["randomness.states"] / ops,
            "randomness.ns_per_state": per_unit("randomness.states", work["randomness.states"]),
            "randomness.key_share": share("randomness.states"),
            "problems.f_evals": work["problems.f"] / ops,
            "problems.g_evals": g_sampled / ops,
            "problems.f_ns_per_eval": per_unit("problems.f", work["problems.f"]),
            "problems.g_ns_per_eval": per_unit("problems.g", work["problems.g"]),
            "problems.f_share": share("problems.f"),
            "problems.g_share": share("problems.g"),
            "mlp_core.calls": level_calls / ops,
            "mlp_core.glue_share": glue / wall,
            "mlp_core.glue_us_per_call": glue / max(level_calls, 1) / 1e3,
            "mlp_core.max_lanes": max(
                (s[7] * M ** int(s[1][len("mlp_core.level"):]) for s in self.spans if s[1] in levels), default=0
            ),
            "mlp_core.thread_busy_share": busy,
            "mlp_core.thread_imbalance": imbalance,
            "analysis.budget_us_per_op": dur_ns["analysis.cost_rn_exact"] / ops / 1e3,
            "cli.overhead_share": (dur_ns["cli.run_convergence"] - dur_ns["mlp_core.mc_l2_error"]) / wall,
        }
        for l in LEVELS:
            metrics[f"mlp_core.level{l}.calls"] = calls[f"mlp_core.level{l}"] / ops
            metrics[f"mlp_core.level{l}.self_share"] = share(f"mlp_core.level{l}")

        estimates = ops * workload.replications
        checks = {
            "normals_equal_cost_rn_exact": work["randomness.normals"] == estimates * cost_rn_exact(n, M, Q, workload.dim),
            "f_plus_g_equal_cost_fe_exact": work["problems.f"] + g_sampled == estimates * cost_fe_exact(n, M, Q),
        }
        return {"metrics": metrics, "checks": checks}

    def _thread_use(self, threads: int) -> tuple[float, float]:
        """Busy share of the fan-out threads and their imbalance.

        The workers are the replication chunks of ``mc_l2_error`` or, for
        single-point operations, the ``mlp_estimate`` calls.  Busy share is
        worker time over ``threads`` times their parents' wall time;
        imbalance is the mean over parents of slowest worker over mean
        worker, minus one.
        """
        workers = [s for s in self.spans if s[1] == "mlp_core.replication_batch"]
        if not workers:
            workers = [s for s in self.spans if s[1] == "mlp_core.mlp_estimate"]
        by_parent = defaultdict(list)
        for s in workers:
            by_parent[s[4]].append(s[3] - s[2])
        parent_ns = sum(s[3] - s[2] for s in self.spans if s[0] in by_parent)
        if not parent_ns:
            return 0.0, 0.0
        busy = sum(sum(d) for d in by_parent.values()) / (threads * parent_ns)
        imbalance = float(np.mean([max(d) / np.mean(d) - 1.0 for d in by_parent.values()]))
        return busy, imbalance


def cold_build_rule_ms(Q: int, repeats: int = 21) -> float:
    """Median time of an uncached ``quadrature.build_rule(Q)``.

    The rule is cached after its first build, so the traced operations
    only ever see cache hits; the cost that set-up pays is the cold build.
    """
    times = []
    for _ in range(repeats):
        start = time.perf_counter_ns()
        build_rule.__wrapped__(Q)
        times.append(time.perf_counter_ns() - start)
    return statistics.median(times) / 1e6


def _covered(intervals, start: int, end: int) -> int:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total, reach = 0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total
