"""mlpicard benchmark: one workload, measured end to end or traced layer by layer.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Untraced (``--trace 0``), the run prints the end-to-end metrics of
BENCHMARK.json; traced (``--trace 1``) it repeats the same operations with
every layer boundary wrapped and prints the per-layer metrics.  Every run
first checks that a small study gives byte-identical output at one and two
threads, then gates every operation (counters against the cost recursions,
errors against the exact solution); a failed gate counts as a failed
operation.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A results file with
the machine record, every metric and the gates goes to .bench_results/,
and a traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(ROOT, ".bench_results")

SETUP_PROBES = 5  # fresh interpreters per run; setup_s is their median
WINDOWS = 5  # latency_ms_p90 is the median of this many windows' p90
# End-to-end metrics that go to the results file but not into BENCHMARK.json,
# whose metrics must never read 0 and must repeat within their bound.
UNBOUNDED_UNITS = {"latency_ms_p99": "ms", "fail_frac": "fraction"}
TRACE_MAX_OPS = 50  # bounds the spans a traced point run keeps in memory
SPEEDUP_REQUESTS = 20  # point requests timed with one and with two clients


def declared_units() -> dict:
    """{"end_to_end": {name: unit}, "per_layer": {name: unit}} from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")}


def import_package():
    """Import mlpicard from this checkout's src/ and nowhere else."""
    init = os.path.join(SRC, "mlpicard", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"error: {init} not found; run from a checkout of the repository")
    sys.path.insert(0, SRC)
    import mlpicard

    if os.path.realpath(mlpicard.__file__) != os.path.realpath(init):
        raise SystemExit(f"error: imported mlpicard from {mlpicard.__file__}, not {init}")
    return mlpicard


def machine_record() -> dict:
    import numpy
    import scipy
    from mlpicard import _bits

    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "have_numba": _bits.HAVE_NUMBA,
        "bit_path": "numba" if _bits.HAVE_NUMBA else "numpy Philox",
    }


def setup_seconds(workload, seed: int, probes: int) -> float:
    """Median over fresh interpreters of import-to-first-warm-up-operation time."""
    spec = json.dumps(dataclasses.asdict(workload))
    times = []
    for _ in range(probes):
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), spec, str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT, check=False,
        )
        if done.returncode != 0:
            raise RuntimeError(f"setup probe failed: {done.stderr.strip()}")
        times.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def determinism_gate(runner) -> bool:
    """A small sine study (levels n=M=Q=1..2, 60 replications, reproducible)
    must write byte-identical CSV at one and at two threads."""
    from mlpicard import cli

    from workloads import DETERMINISM

    seed = runner.inputs(DETERMINISM, 0)[0]
    outputs = []
    for threads in (1, 2):
        config = cli.ExperimentConfig(
            problem="manufactured_sine", dim=2, levels=[(1, 1, 1), (2, 2, 2)], replications=60,
            seed=seed, threads=threads, reproducible=True,
        )
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            cli.write_rows(cli.run_convergence(config), "csv", None)
        outputs.append(text.getvalue().encode())
    return outputs[0] == outputs[1]


def run_loop(runner, seconds: float, run_op, limit=None) -> list:
    """Operations 0, 1, 2, ... while the next one, at the median time so
    far, still ends within ``seconds`` (at least one operation)."""
    outcomes = []
    start = time.perf_counter()
    while not outcomes or (
        time.perf_counter() - start + statistics.median(o.seconds for o in outcomes) <= seconds
        and (limit is None or len(outcomes) < limit)
    ):
        outcomes.append(run_op(runner, len(outcomes)))
    return outcomes


def end_to_end(outcomes: list, setup_s: float) -> dict:
    """The end-to-end metrics of one untraced pass.

    Bursts of load from outside the process slow a few seconds of a run,
    so the timings are medians: ``reps_per_s`` is the median over operations
    of replications completed (none if the operation failed) per second,
    and ``latency_ms_p90`` is the median over ``WINDOWS`` consecutive
    windows of operations of each window's 90th percentile.  A window of
    one or two study calls gives about its slowest call.  The run's 99th
    percentile is recorded too, unbounded: outside load sets it.
    """
    latencies = [o.seconds * 1e3 for o in outcomes]
    cuts = [len(latencies) * k // WINDOWS for k in range(WINDOWS + 1)]
    windows = [latencies[lo:hi] for lo, hi in zip(cuts, cuts[1:]) if hi > lo]
    failed = sum(o.error is not None for o in outcomes)
    return {
        "reps_per_s": statistics.median((0 if o.error else o.replications) / o.seconds for o in outcomes),
        "latency_ms_p50": statistics.median(latencies),
        "latency_ms_p90": statistics.median(_percentile(w, 90) for w in windows),
        "latency_ms_p99": _percentile(latencies, 99),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
        "fail_frac": failed / len(outcomes),
    }


def _percentile(values: list, q: int) -> float:
    return max(values) if len(values) < 2 else statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def speedup_2v1(runner) -> float:
    """Wall time of the same work at one thread over two threads (untraced)."""
    from concurrent.futures import ThreadPoolExecutor

    from workloads import SPEEDUP

    def timed(threads: int) -> float:
        start = time.perf_counter()
        if runner.workload.kind == "study":
            runner.run_op(0, SPEEDUP, threads=threads)
        else:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                list(pool.map(lambda i: runner.run_op(i, SPEEDUP), range(SPEEDUP_REQUESTS)))
        return time.perf_counter() - start

    return timed(1) / timed(2)


def measure(workload, seed: int, seconds: float, trace: bool, wrap_problem=None,
            setup_probes: int = SETUP_PROBES) -> dict:
    """Run one workload and return its result record."""
    from workloads import Runner

    record = {"workload": workload.name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "machine": machine_record(), "spec": dataclasses.asdict(workload)}
    setup_s = setup_seconds(workload, seed, setup_probes)
    runner = Runner(workload, seed, wrap_problem)
    gates = {"determinism_threads_1_vs_2": determinism_gate(runner)}
    runner.warm_up()
    # a traced run splits its time between the untraced and the traced pass
    outcomes = run_loop(runner, seconds / 2 if trace else seconds, lambda r, i: r.run_op(i))
    record["end_to_end"] = end_to_end(outcomes, setup_s)
    record["latencies_ms"] = [o.seconds * 1e3 for o in outcomes]
    all_outcomes = list(outcomes)

    if trace:
        from tracing import Tracer, cold_build_rule_ms

        speedup = speedup_2v1(runner)
        tracer = Tracer()
        traced_runner = Runner(workload, seed, _compose(tracer.wrap_problem, wrap_problem))
        with tracer.install():
            traced = run_loop(traced_runner, seconds / 2, tracer.run_op, limit=min(len(outcomes), TRACE_MAX_OPS))
        summary = tracer.summarize(workload)
        layer = summary["metrics"]
        layer["mlp_core.speedup_2v1"] = speedup
        layer["quadrature.build_rule_ms"] = cold_build_rule_ms(workload.level[2])
        untraced_s = sum(o.seconds for o in outcomes[: len(traced)])
        layer["trace.overhead_frac"] = sum(o.seconds for o in traced) / untraced_s - 1.0
        record["per_layer"] = layer
        gates.update(summary["checks"])
        gates["traced_equals_untraced_bitwise"] = all(
            t.output == u.output for t, u in zip(traced, outcomes) if t.error is None and u.error is None
        )
        all_outcomes += traced
        os.makedirs(RESULTS, exist_ok=True)
        tracer.write(os.path.join(RESULTS, f"spans-{workload.name}-seed{seed}.json"))

    failed = [o for o in all_outcomes if o.error is not None]
    record["gates"] = gates
    record["attempted"] = len(all_outcomes)
    record["failed"] = len(failed)
    record["failures"] = sorted({o.error for o in failed})[:10]
    record["correct"] = all(gates.values()) and not failed
    return record


def _compose(outer, inner):
    return outer if inner is None else (lambda problem: outer(inner(problem)))


def result_line(record: dict) -> dict:
    """The last line of standard output: per-layer metrics if traced, else end-to-end.

    The ``UNBOUNDED_UNITS`` metrics are printed and recorded but left out
    here; the line carries fail_frac as ``failed`` / ``attempted``.
    """
    kind = "per_layer" if record["trace"] else "end_to_end"
    metrics = {name: {"value": record[kind][name], "unit": unit} for name, unit in declared_units()[kind].items()}
    return {"correct": record["correct"], "attempted": record["attempted"], "failed": record["failed"],
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("need --seed >= 0 and --seconds > 0")

    import_package()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; available: {sorted(WORKLOADS)}")
    record = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))

    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    m = record["machine"]
    print(f"# {args.workload} seed={args.seed}: {m['cpu']}, nproc={m['nproc']}, Python {m['python']}, "
          f"numpy {m['numpy']}, scipy {m['scipy']}, bits: {m['bit_path']}")
    units = dict(UNBOUNDED_UNITS, **declared_units()["end_to_end"], **declared_units()["per_layer"])
    for kind in ("end_to_end", "per_layer")[: 1 + args.trace]:
        for name, value in record[kind].items():
            print(f"{name} = {value:.6g} {units[name]}")
    print(f"gates: {record['gates']}; {record['failed']} of {record['attempted']} operations failed")
    for failure in record["failures"]:
        print(f"failure: {failure}")
    print(f"results: {os.path.relpath(path, ROOT)}")
    print(json.dumps(result_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
