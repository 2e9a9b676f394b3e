"""Experiment driver: convergence studies and the self-check, with
CSV/JSON output.

``ExperimentConfig`` holds what a study samples; the output format and
path go straight from ``--format`` and ``--out`` to ``write_rows``, and
the seed comes from ``--seed`` (default 0).  Malformed input, an
unusable ``--out`` included, exits 2 before any level is sampled.

Exit codes: 0 success, 2 configuration error, 3 self-check failure,
4 cost budget exceeded, 5 evaluation error (a study whose estimates
come out non-finite); with 2, 4 and 5 no output is written.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ._bits import uniforms_from_states
from .analysis import BoundInputs, bound_nmq, cost_fe_exact, cost_rn_exact
from .errors import BudgetError, ConfigError, EvaluationError
from .mlp_core import MAX_LEVEL, CostCounters, Problem, check_request, mc_l2_error
from .problems import build_problem
from .randomness import state_for_key
from .selfcheck import run_selfcheck

__all__ = ["ExperimentConfig", "main", "run_convergence", "write_rows"]

COLUMNS = (
    "n",
    "M",
    "Q",
    "rn_pred",
    "fe_pred",
    "rn_obs",
    "fe_obs",
    "wall_ms",
    "err_value",
    "se_value",
    "err_grad",
    "se_grad",
    "bound",
)


@dataclass
class ExperimentConfig:
    problem: str
    dim: int
    params: dict = field(default_factory=dict)
    x: object = None  # explicit coordinate list or "random-in-box"
    t0: float = 0.0
    levels: list = field(default_factory=list)
    replications: int = 100
    seed: int = 0
    threads: int = 1
    reproducible: bool = False


def _resolve_x(config: ExperimentConfig, problem: Problem) -> np.ndarray:
    if config.x is None:
        return np.zeros(problem.dim)
    if isinstance(config.x, str) and config.x == "random-in-box":
        h0, h1 = state_for_key(config.seed, (-1,))
        u = uniforms_from_states(h0, h1, problem.dim)[0]
        return (2.0 * u - 1.0) * problem.box_radius
    return np.asarray(config.x, dtype=float)


def _bound_for(problem: Problem, n: int, M: int, Q: int, t0: float):
    hints = (problem.sup_f0, problem.sup_u, problem.deriv_ratio)
    if any(h is None for h in hints) or M < 2 or n < 1:
        return "n/a"
    inputs = BoundInputs(
        T=problem.horizon,
        t0=t0,
        lip_f_l1=float(np.sum(problem.lip_f)),
        lip_g_l1=float(np.sum(problem.lip_g)),
        sup_f0=problem.sup_f0,
        sup_u=problem.sup_u,
        deriv_ratio=problem.deriv_ratio,
        n=n,
        M=M,
        Q=Q,
        alpha=0.25,
    )
    return bound_nmq(inputs)


def run_convergence(config: ExperimentConfig) -> list[dict]:
    """One row of cost and error statistics per requested level.

    Deterministic given the seed: every field except wall_ms is a pure
    function of the configuration, and wall_ms is written as 0 in
    reproducible mode so output files can be compared byte for byte.
    """
    if not config.levels:
        raise ConfigError("no levels requested; pass --diagonal N or --level n,M,Q")
    clash = sorted({"dim", "name"} & set(config.params))
    if clash:  # build_problem's own keywords, which --dim and --problem set
        raise ConfigError(f"--param cannot set {clash}; use --dim and --problem")
    try:  # fail fast: every level passes the library guard before any sampling
        problem = build_problem(config.problem, dim=config.dim, **config.params)
        x = _resolve_x(config, problem)
        for n, M, Q in config.levels:
            check_request(problem, n, M, Q, config.t0, x, config.seed, (), config.replications, config.threads)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    rows = []
    for n, M, Q in config.levels:
        counters = CostCounters()
        start = time.perf_counter()
        report = mc_l2_error(
            problem,
            n,
            M,
            Q,
            config.t0,
            x,
            config.replications,
            seed=config.seed,
            threads=config.threads,
            counters=counters,
        )
        wall_ms = 0.0 if config.reproducible else (time.perf_counter() - start) * 1000.0
        rows.append(
            {
                "n": n,
                "M": M,
                "Q": Q,
                "rn_pred": cost_rn_exact(n, M, Q, problem.dim),
                "fe_pred": cost_fe_exact(n, M, Q),
                "rn_obs": counters.gaussians_drawn // config.replications,
                "fe_obs": counters.function_evals // config.replications,
                "wall_ms": wall_ms,
                "err_value": report.value_error,
                "se_value": report.value_se,
                "err_grad": report.grad_error,
                "se_grad": report.grad_se,
                "bound": _bound_for(problem, n, M, Q, config.t0),
            }
        )
    return rows


def _json_cell(value):
    """``value``, or for a non-finite float the string the CSV writes ("inf"), which strict JSON parsers accept."""
    return str(value) if isinstance(value, float) and not math.isfinite(value) else value


def write_rows(rows: list[dict], fmt: str, out: Optional[str]) -> None:
    if fmt == "csv":
        lines = [",".join(COLUMNS)]
        for row in rows:
            lines.append(",".join(str(row[c]) for c in COLUMNS))
        text = "\n".join(lines) + "\n"
    elif fmt == "json":
        text = json.dumps([{c: _json_cell(row[c]) for c in COLUMNS} for row in rows], indent=2, allow_nan=False) + "\n"
    else:
        raise ConfigError(f"format must be csv or json, got {fmt!r}")
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {out!r}: {exc}") from exc


def _parse_param(text: str) -> tuple[str, float]:
    if "=" not in text:
        raise ConfigError(f"--param expects key=value, got {text!r}")
    key, _, value = text.partition("=")
    try:
        return key.strip(), float(value)
    except ValueError as exc:
        raise ConfigError(f"--param value for {key!r} is not a number: {value!r}") from exc


def _parse_level(text: str) -> tuple[int, int, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ConfigError(f"--level expects n,M,Q, got {text!r}")
    try:
        n, M, Q = (int(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"--level entries must be integers: {text!r}") from exc
    return n, M, Q


def _parse_x(text: str):
    if text == "random-in-box":
        return text
    try:
        return [float(p) for p in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"--x must be comma-separated numbers or 'random-in-box', got {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mlpicard", description="Multilevel Picard experiment driver")
    sub = parser.add_subparsers(dest="command", required=True)

    conv = sub.add_parser("converge", help="run a convergence study")
    conv.add_argument("--problem", default="manufactured_sine", help="problem name")
    conv.add_argument("--param", action="append", default=[], metavar="KEY=VAL", help="problem parameter override")
    conv.add_argument("--dim", type=int, default=2)
    conv.add_argument("--x", default=None, help="evaluation point 'v1,v2,...' or 'random-in-box' (default: origin)")
    conv.add_argument("--t0", type=float, default=0.0)
    conv.add_argument("--diagonal", type=int, default=None, metavar="N", help="levels n=M=Q for n=1..N")
    conv.add_argument("--level", action="append", default=[], metavar="n,M,Q", help="explicit level (repeatable)")
    conv.add_argument("--reps", type=int, default=100)
    conv.add_argument("--seed", type=int, default=0)
    conv.add_argument("--threads", type=int, default=1)
    conv.add_argument("--out", default=None, help="output path (default: stdout)")
    conv.add_argument("--format", choices=("csv", "json"), default="csv")
    conv.add_argument(
        "--reproducible",
        action="store_true",
        help="write wall_ms as 0 so repeated runs produce byte-identical files",
    )

    check = sub.add_parser("selfcheck", help="run the built-in verification suite")
    check.add_argument("--only", action="append", default=None, metavar="NAME", help="run only the named check")
    return parser


def _cmd_converge(args: argparse.Namespace) -> int:
    if args.diagonal is not None and args.level:
        raise ConfigError("--diagonal and --level are mutually exclusive")
    if args.out is not None and (os.path.isdir(args.out) or not os.path.isdir(os.path.dirname(args.out) or ".")):
        raise ConfigError(f"--out must name a file in an existing directory, got {args.out!r}")
    if args.diagonal is not None:  # N < 1 lists no level, an error; N > 7 stops at level 7 over budget
        levels = [(k, k, k) for k in range(1, min(args.diagonal, MAX_LEVEL + 1) + 1)]
    else:
        levels = [_parse_level(t) for t in args.level]
    config = ExperimentConfig(
        problem=args.problem,
        dim=args.dim,
        params=dict(_parse_param(p) for p in args.param),
        x=_parse_x(args.x) if args.x is not None else None,
        t0=args.t0,
        levels=levels,
        replications=args.reps,
        seed=args.seed,
        threads=args.threads,
        reproducible=args.reproducible,
    )
    write_rows(run_convergence(config), args.format, args.out)
    return 0


def _cmd_selfcheck(args: argparse.Namespace) -> int:
    try:
        results = run_selfcheck(args.only)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    failed = 0
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"[{status}] {result.name}: {result.detail}")
        failed += 0 if result.passed else 1
    if failed:
        print(f"{failed} of {len(results)} checks failed")
        return 3
    print(f"all {len(results)} checks passed")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "converge":
            return _cmd_converge(args)
        return _cmd_selfcheck(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 4
    except EvaluationError as exc:
        print(f"evaluation error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
