"""Built-in verification suite: quadrature identities and bounds, the
cost model's caps, the compiled sampling kernel against its numpy
references, the estimator's contracts, and the shipped problems'
consistency.

Each check is a named, independently runnable predicate; the CLI turns
failures into a nonzero exit status.  Checks re-derive everything from
scratch on seeded grids, so a perturbation anywhere in the quadrature,
cost or lane plumbing surfaces here.  The tests run the case tables of
``bit-kernel`` and ``determinism`` too.
"""

from __future__ import annotations

import collections
import contextlib
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Optional

import numpy as np

from . import _bits, mlp_core, quadrature, randomness
from .analysis import (
    binomial,
    cost_fe_exact,
    cost_rn_exact,
    count_increasing_chains,
    iterated_gl_upper_bound,
    norm_log_subadditivity_check,
)
from .mlp_core import CostCounters, Problem, discrete_fk_residual, mc_l2_error, mlp_estimate
from .problems import build_problem, pde_residual_fd

__all__ = ["CheckResult", "available_checks", "lipschitz_margins", "run_selfcheck"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def lipschitz_margins(problem: Problem, rng: np.random.Generator, pairs: int) -> tuple[float, float]:
    """Worst signed violations of the declared f and g Lipschitz bounds.

    Samples argument pairs inside the problem's evaluation box and
    returns (f margin, g margin); nonpositive margins mean the declared
    constants hold on the sample.
    """
    d = problem.dim
    r = problem.box_radius
    t = rng.uniform(0.0, problem.horizon)
    x = rng.uniform(-r, r, size=(pairs, d))
    w1, w2 = rng.uniform(-2, 2, size=(2, pairs))
    z1, z2 = rng.uniform(-2, 2, size=(2, pairs, d))
    f1 = np.asarray(problem.nonlinearity(t, x, w1, z1), dtype=float)
    f2 = np.asarray(problem.nonlinearity(t, x, w2, z2), dtype=float)
    allowed_f = problem.lip_f[0] * np.abs(w1 - w2) + np.abs(z1 - z2) @ problem.lip_f[1:]
    f_margin = float(np.max(np.abs(f1 - f2) - allowed_f))

    xa, xb = rng.uniform(-r, r, size=(2, pairs, d))
    ga = np.asarray(problem.terminal(xa), dtype=float)
    gb = np.asarray(problem.terminal(xb), dtype=float)
    allowed_g = np.abs(xa - xb) @ problem.lip_g
    g_margin = float(np.max(np.abs(ga - gb) - allowed_g))
    return f_margin, g_margin


def _check_rule_invariants() -> tuple[bool, str]:
    worst = 0.0
    for order in range(1, quadrature.MAX_ORDER + 1):
        rule = quadrature.build_rule(order)
        if rule.order != order:
            return False, f"order {order}: the rule reads order {rule.order}"
        if not (np.all(rule.nodes > 0.0) and np.all(rule.nodes < 1.0)):
            return False, f"order {order}: node outside (0, 1)"
        if not np.all(np.diff(rule.nodes) > 0.0):
            return False, f"order {order}: nodes not strictly increasing"
        if not np.all(rule.weights > 0.0):
            return False, f"order {order}: nonpositive weight"
        sum_err = abs(float(np.sum(rule.weights)) - 1.0)
        sym_node = float(np.max(np.abs(rule.nodes + rule.nodes[::-1] - 1.0)))
        sym_weight = float(np.max(np.abs(rule.weights - rule.weights[::-1])))
        worst = max(worst, sum_err, sym_node, sym_weight)
        if max(sum_err, sym_node, sym_weight) > 1e-14:
            return False, f"order {order}: symmetry/normalization off by {max(sum_err, sym_node, sym_weight):.2e}"
    return True, f"orders 1..{quadrature.MAX_ORDER}, worst defect {worst:.2e}"


def _check_poly_exactness() -> tuple[bool, str]:
    rng = np.random.default_rng(2024)
    worst = 0.0
    for order in range(1, 11):
        rule = quadrature.build_rule(order)
        for _ in range(20):
            degree = int(rng.integers(0, 2 * order))
            a = rng.uniform(0.0, 9.0)
            b = a + rng.uniform(0.1, 10.0 - a)
            approx = quadrature.integrate(rule, a, b, lambda t: t**degree)
            truth = (b ** (degree + 1) - a ** (degree + 1)) / (degree + 1)
            rel = abs(approx - truth) / max(1.0, abs(truth))
            worst = max(worst, rel)
            if rel > 1e-11:
                return False, f"order {order}, degree {degree} on [{a:.3f}, {b:.3f}]: rel error {rel:.2e}"
    return True, f"orders 1..10 exact to degree 2Q-1, worst rel error {worst:.2e}"


def _identity_grid() -> Iterable[tuple[int, int, float, float]]:
    rng = np.random.default_rng(7)
    intervals = [(float(t0), float(t0 + span)) for t0, span in zip(rng.uniform(0, 2, 5), rng.uniform(0.2, 3, 5))]
    for order in range(1, 7):
        for depth in range(1, 6):
            for t0, T in intervals:
                yield order, depth, t0, T


def _check_iterated_identity() -> tuple[bool, str]:
    worst = 0.0
    for order, depth, t0, T in _identity_grid():
        lhs = quadrature.iterated_gl_lhs(order, depth, t0, T)
        rhs = quadrature.iterated_gl_rhs(order, depth, t0, T)
        err = abs(lhs - rhs) / (1.0 + abs(rhs))
        worst = max(worst, err)
        if err > 1e-10:
            return False, f"order {order}, depth {depth} on [{t0:.3f}, {T:.3f}]: mismatch {err:.2e}"
    return True, f"grid Q<=6, k<=5 x 5 intervals, worst scaled mismatch {worst:.2e}"


def _check_moment_bounds() -> tuple[bool, str]:
    for order in range(1, 11):
        for j in range(13):
            value = quadrature.frac_moment_sum(order, j)
            cap = math.exp(math.lgamma(0.5) + math.lgamma(j + 1) - math.lgamma(j + 1.5))
            if value > cap * (1.0 + 1e-12):
                return False, f"moment sum Q={order}, j={j}: {value} exceeds {cap}"
    for order, depth, t0, T in _identity_grid():
        lhs = quadrature.iterated_gl_lhs(order, depth, t0, T)
        cap = iterated_gl_upper_bound(depth, T - t0)
        if lhs > cap * (1.0 + 1e-12):
            return False, f"iterated sum Q={order}, k={depth}: {lhs} exceeds {cap}"
    return True, "fractional moments and iterated sums sit below their caps"


def _check_iterated_sum_identity() -> tuple[bool, str]:
    for n in range(1, 13):
        for l0 in range(n):
            for j in range(1, n - l0):
                if count_increasing_chains(n, l0, j) != binomial(n - l0 - 1, j):
                    return False, f"chain count mismatch at n={n}, l0={l0}, j={j}"
    return True, "chain counts match binomials for n <= 12"


def _check_log_subadditivity() -> tuple[bool, str]:
    rng = np.random.default_rng(11)
    for _ in range(10_000):
        d = int(rng.integers(1, 7))
        p = int(rng.integers(1, 7))
        x = rng.normal(scale=3.0, size=d)
        y = rng.normal(scale=3.0, size=d)
        if not norm_log_subadditivity_check(x, y, p):
            return False, f"violated at p={p}, x={x}, y={y}"
    return True, "holds on 10000 random cases"


def _check_cost_model() -> tuple[bool, str]:
    for N in range(1, 9):
        for d in (1, 10, 100):
            if cost_rn_exact(N, N, N, d) > 8 * d * N ** (2 * N):
                return False, f"RN({N},{N},{N}) exceeds 8 d N^(2N) at d={d}"
        if cost_fe_exact(N, N, N) > 8 * N ** (2 * N):
            return False, f"FE({N},{N},{N}) exceeds 8 N^(2N)"
    return True, "closed-form caps hold for N <= 8"


# ndtri's branch edges: both ends, the smallest doubles and those next to 1, and, with their neighbours one
# ulp either side, the switches to the tail rationals at exp(-2) and 1 - exp(-2) and to the far tail at
# exp(-32); the libm log behind the tails is what differs between machines
_NDTRI_EDGES = np.concatenate([[0.0, 1.0, 2.0**-54, 5e-324, 1e-300, 1e-20, 1.0 - 2.0**-53, 1.0 - 2.0**-52], *(
    [np.nextafter(e, 0.0), e, np.nextafter(e, 1.0)] for e in (np.exp(-2.0), 1.0 - np.exp(-2.0), np.exp(-32.0)))])


def _kernel_cases(rng: np.random.Generator):
    """(entry, arguments) of the cases where the kernel must leave its numpy reference's bytes; outputs start
    as NaN words, so an unwritten one shows, but node terms add into a start that is part of the case."""
    for L, B, Q, d in ((0, 1, 2, 2), (3, 1, 3, 3), (511, 1, 1, 1), (171, 1, 3, 1), (513, 3, 1, 1), (2, 2, 1, 513),
                       (64, 16, 4, 10), (9, 9, 3, 2), (1000, 10, 7, 3)):  # 511, 513, 1,026 values by the 512 chunk
        h0, h1 = rng.integers(0, 2**64, size=(2, L), dtype=np.uint64)
        for b in (1, B):  # one row of scales over all lanes, and B rows
            yield "brownian_paths", (h0, h1, rng.uniform(0.1, 2.0, (b, Q)), np.full(L * Q * d, np.nan), b, Q, d)
    ends = np.array([-(2**63), -(2**63) + 1, -7, -1, 0, 1, 2**63 - 1], dtype=np.int64)
    for A, C in ((1, 5), (5, 1), (3, 4), (0, 3), (2, 0)):
        h0, h1 = rng.integers(0, 2**64, size=(2, A * C), dtype=np.uint64)
        for chain, batch in itertools.product((ends[:0], ends[4:5], ends[[6, 0, 3]]), (ends, ends[3:4], ends[:0])):
            yield "extend_states", (h0, h1, chain, batch, np.full(2 * A * len(batch) * C, np.nan).view(np.uint64), A, C)
    for m, B, g, Q, d, k0 in ((7, 5, 3, 4, 2, 1), (1, 1, 1, 1, 1, 0), (9, 1, 1, 3, 4, 2), (5, 1, 2, 2, 1, 0),
                              (1, 6, 2, 2, 3, 0), (16, 64, 4, 4, 10, 0), (3, 2, 1, 1, 1, 0), (4, 3, 2, 5, 10, 3)):
        x, dw, s = rng.normal(size=(B, d)), rng.normal(size=(m, B, Q, d)), rng.uniform(0.0, 0.5, size=B)
        yield "shifted_points", (x, dw, np.full(m * B * g * d, np.nan), m, B, Q, d, k0, g)
        for f in (rng.normal(size=(m, B, g)), np.zeros((m, B, g)), -np.zeros((m, B, g))):  # zero sums' signs show
            for j in range(g):
                sums = (f[:, :, j].copy(), dw[:, :, k0 + j].copy(), np.full(B, np.nan), np.full((B, d), np.nan))
                yield "node_sums", (*sums, m, B, d)
            w, lag = rng.uniform(0.1, 1.0, size=(2, B, Q))  # per-lane weights, and nodes less s
            times = ((w[0], 0.4 + lag[0], np.full(1, 0.4)), (w, s[:, None] + lag, s))  # shared, per lane
            for start, lane in itertools.product((rng.normal(size=(B, d + 1)), np.full((B, d + 1), -0.0)), (0, 1)):
                yield "node_terms", (f, dw, *times[lane], start, m, B, g, Q, d, k0, lane)
    e2 = np.exp(-2.0)
    for u in (_NDTRI_EDGES, np.exp(-np.linspace(0.0, 700.0, 2001)), 1.0 - np.exp(-np.linspace(0.0, 36.0, 2001)),
              rng.uniform(e2, 1.0 - e2, 10_000),  # the central rational
              np.exp(-rng.uniform(2.0, 32.0, 10_000)), 1.0 - np.exp(-rng.uniform(2.0, 36.0, 10_000)),  # the tails
              np.exp(-rng.uniform(32.0, 740.0, 10_000))):  # the far tail, below exp(-32)
        yield "ndtri_array", (u, np.full(u.size, np.nan))
    # the extremes, and the words either side of the one that would round to 1.0
    for words in (np.array([0, 1, 2**63, 2**64 - 2**11 - 1, 2**64 - 2**11, 2**64 - 1], dtype=np.uint64),
                  rng.integers(0, 2**64, size=1000, dtype=np.uint64)):
        yield "units_from_words", (words, np.full(words.size, np.nan))


def _matches_reference(name: str, args: tuple) -> bool:
    """Whether kernel entry ``name`` and its numpy stand-in leave the same bytes, each on fresh copies of ``args``."""
    runs = []
    for entry in (getattr(_bits._KERNEL, name), (vars(randomness._NUMPY) | vars(mlp_core._NUMPY))[name]):
        copies = [a.copy() if isinstance(a, np.ndarray) else a for a in args]
        entry(*copies)
        runs.append([a.tobytes() for a in copies if isinstance(a, np.ndarray)])
    return runs[0] == runs[1]


def _check_bit_kernel() -> tuple[bool, str]:
    """Every case of ``_kernel_cases`` against the numpy/scipy reference, bitwise."""
    if _bits._KERNEL is None:
        return True, f"numpy fallback runs ({_bits._FALLBACK_REASON or 'kernel switched off'}); nothing to compare"
    counts = collections.Counter()
    for name, args in _kernel_cases(np.random.default_rng(41)):
        if not _matches_reference(name, args):
            return False, f"{name} differs from its reference at sizes {[a for a in args if isinstance(a, int)]}"
        counts[name] += 1
    cases = ", ".join(f"{name} {count}" for name, count in counts.items())
    return True, (f"compiled kernel runs ({_bits._KERNEL.kernel_isa()} clone); equal to the numpy/scipy reference "
                  f"bitwise, cases per entry: {cases}")


_KINDS = ("point", "study", "residual")
# variation -> (kinds of case it runs, the (module, global, value) it patches or None); none may change a bit of a
# default run.  threads-3 runs studies on 3 threads, and lane-alone runs replication r of a study as key + (r,)
_VARIATIONS = {
    "default": (_KINDS, None),
    "numpy": (_KINDS, (_bits, "_KERNEL", None)),
    "fold-cap-40": (_KINDS, (mlp_core, "_FOLD_CAP", 40)),
    "fold-cap-1": (_KINDS, (mlp_core, "_FOLD_CAP", 1)),
    "one-lane-chunks": (("study", "residual"), (mlp_core, "_LANE_CAP", 1)),
    "threads-3": (("study",), None),
    "lane-alone": (("study",), None),
}
_Case = collections.namedtuple("_Case", "kind problem n M Q s x reps key")


def _estimator_cases() -> list:
    """The determinism check's requests: points over n <= 3, M <= 3, Q <= 4 at d = 1, 2 and single points to
    d = 10, studies whose replications cross chunk edges, and residual checks, which run per-lane start times."""
    sine = {d: build_problem("manufactured_sine", dim=d) for d in (1, 2, 3, 8, 10)}
    heat = {d: build_problem("heat_quadratic", dim=d) for d in (2, 3, 10)}  # f = 0
    x = [np.linspace(-0.4, 0.3, d) for d in range(11)]
    return [_Case("point", sine[d], n, M, Q, 0.25 * (d - 1), x[d], 1, (n, -M, Q)) for d in (1, 2)
            for n in range(4) for M in (1, 2, 3) for Q in (1, 2, 3, 4)] + [
        _Case("point", sine[3], 3, 2, 3, 0.4, x[6][::2], 1, (7,)),  # x a strided view
        _Case("point", sine[8], 2, 3, 2, 0.0, x[8], 1, ()),
        _Case("point", sine[10], 2, 2, 3, 0.125, x[10], 1, (-(2**63),)),
        _Case("point", heat[2], 3, 2, 2, 0.25, x[2], 1, (2,)),
        _Case("study", sine[1], 2, 3, 2, 0.0, x[1], 7, (3,)),
        _Case("study", sine[2], 2, 3, 2, 0.0, x[2], 3, (4,)),
        _Case("study", sine[2], 3, 2, 3, 0.25, x[2], 5, ()),
        _Case("study", sine[8], 2, 2, 2, 0.4, x[8], 2, (1,)),  # fewer replications than threads-3 has threads
        _Case("study", heat[3], 2, 3, 2, 0.0, x[3], 5, (2, 9)),
        _Case("study", heat[10], 3, 2, 3, 0.0, x[10], 4, ()),
        _Case("residual", sine[1], 2, 3, 2, 0.25, x[1], 6, ()),
        _Case("residual", sine[3], 2, 3, 2, 0.25, x[3], 4, (5,)),
    ]


def _check_determinism(variations: tuple[str, ...] = tuple(_VARIATIONS)[1:]) -> tuple[bool, str]:
    """Every case of ``_estimator_cases`` under each of ``variations`` byte for byte against its default run, with
    counters equal to the recursions times the lanes and the caller's x keeping its bytes and writeable flag."""
    from unittest import mock  # not at the top: on top of ``import mlpicard`` it costs 20-45 ms (-X importtime)

    skipped = "numpy" if _bits._KERNEL is None else ""
    runs, kinds = collections.Counter(), collections.Counter()
    for kind, problem, n, M, Q, s, x, reps, key in _estimator_cases():
        for variation in ["default"] + [v for v in variations if kind in _VARIATIONS[v][0] and v != skipped]:
            x_before, counters = (x.tobytes(), x.flags.writeable), CostCounters()
            switch = _VARIATIONS[variation][1]
            with mock.patch.object(*switch) if switch else contextlib.nullcontext():
                if kind == "point":
                    out = mlp_estimate(problem, n, M, Q, key, 17, s, x, counters).components
                elif kind == "residual":
                    residual = discrete_fk_residual(problem, n, M, Q, s, x, reps, 17, key, counters)
                    out = np.concatenate([residual.residual, residual.radius])
                elif variation == "lane-alone":
                    out = np.stack([mlp_estimate(problem, n, M, Q, (*key, r), 17, s, x, counters).components
                                    for r in range(reps)])
                else:
                    threads = 3 if variation == "threads-3" else 1
                    out = mc_l2_error(problem, n, M, Q, s, x, reps, 17, key, threads, counters).estimates
            d, counts = problem.dim, (counters.gaussians_drawn, counters.function_evals)
            rn, fe = cost_rn_exact(n, M, Q, d), cost_fe_exact(n, M, Q)
            if kind == "residual":  # its right-hand side: (Q+1) d path Gaussians, g, Q f and Q level-(n-1) estimates
                rn += (Q + 1) * d + Q * cost_rn_exact(n - 1, M, Q, d)
                fe += 1 + Q + Q * cost_fe_exact(n - 1, M, Q)
            recursions = (reps * rn, reps * fe)
            default = (out.tobytes(), counts) if variation == "default" else default
            broken = [what for wrong, what in (
                (counts != recursions, f"counted (Gaussians, evaluations) {counts}, the recursions {recursions}"),
                ((x.tobytes(), x.flags.writeable) != x_before, "the caller's x changed its bytes or writeable flag"),
                ((out.tobytes(), counts) != default, "its outputs differ from the default run's")) if wrong]
            if broken:
                return False, f"{kind} {problem.name} d={problem.dim} n={n} M={M} Q={Q} under {variation}: {broken[0]}"
            runs[variation] += 1
            kinds[kind] += 1
    return True, ("bit-identical to the default run, counters equal to the recursions and x untouched; runs per "
                  "variation: " + ", ".join(f"{v} {k}" for v, k in runs.items())
                  + "; per kind: " + ", ".join(f"{v} {k}" for v, k in kinds.items())
                  + ("; numpy skipped, as the kernel did not load" if skipped else ""))


def _check_problem_residuals() -> tuple[bool, str]:
    rng = np.random.default_rng(5)
    details = []
    for name, dim in (("heat_quadratic", 2), ("manufactured_sine", 3)):
        problem = build_problem(name, dim=dim)
        worst = 0.0
        for _ in range(200):
            t = float(rng.uniform(1e-3, problem.horizon - 1e-3))
            x = rng.uniform(-1.0, 1.0, size=(1, dim))
            worst = max(worst, float(np.max(np.abs(pde_residual_fd(problem, t, x)))))
        if worst > 1e-6:
            return False, f"{name}: finite-difference residual {worst:.2e}"
        details.append(f"{name} {worst:.1e}")
    # the sine construction cancels analytically; check it to rounding
    problem = build_problem("manufactured_sine", dim=2)
    t = rng.uniform(0.0, problem.horizon, size=1000)
    x = rng.uniform(-2.0, 2.0, size=(1000, 2))
    worst = 0.0
    for ti, xi in zip(t, x):
        e = problem.exact(float(ti), xi[None, :])
        du_dt = np.cos(float(ti) + 0.5 * xi.sum())
        lap = -2.0 * 0.25 * np.sin(float(ti) + 0.5 * xi.sum())
        f = problem.nonlinearity(float(ti), xi[None, :], e[:, 0], e[:, 1:])
        worst = max(worst, abs(float(du_dt + 0.5 * lap + f[0])))
    if worst > 1e-12:
        return False, f"manufactured_sine analytic residual {worst:.2e}"
    return True, "finite-difference residuals " + ", ".join(details) + f"; analytic residual {worst:.1e}"


def _check_problem_lipschitz() -> tuple[bool, str]:
    rng = np.random.default_rng(13)
    for name in ("heat_quadratic", "manufactured_sine"):
        problem = build_problem(name, dim=2)
        f_margin, g_margin = lipschitz_margins(problem, rng, pairs=2000)
        if f_margin > 1e-12 or g_margin > 1e-12:
            return False, f"{name}: margins f={f_margin:.2e}, g={g_margin:.2e}"
    return True, "declared constants hold on 2000 sampled pairs per problem"


_CHECKS: Dict[str, Callable[[], tuple[bool, str]]] = {
    "gl-rule-invariants": _check_rule_invariants,
    "gl-poly-exactness": _check_poly_exactness,
    "gl-iterated-identity": _check_iterated_identity,
    "gl-moment-bounds": _check_moment_bounds,
    "iterated-sum-identity": _check_iterated_sum_identity,
    "log-subadditivity": _check_log_subadditivity,
    "cost-model": _check_cost_model,
    "bit-kernel": _check_bit_kernel,
    "determinism": _check_determinism,
    "problem-residuals": _check_problem_residuals,
    "problem-lipschitz": _check_problem_lipschitz,
}


def available_checks() -> tuple[str, ...]:
    return tuple(_CHECKS)


def run_selfcheck(names: Optional[Iterable[str]] = None) -> list[CheckResult]:
    """Run the named checks (all by default) and collect their results.

    The ``determinism`` check switches process-wide module globals (the
    kernel, the fold and lane caps) while it runs, restoring them after:
    nothing else in the process should estimate meanwhile.
    """
    if names is None:
        selected = list(_CHECKS)
    else:
        try:
            if isinstance(names, (str, bytes)):
                raise TypeError  # a sequence of characters, not of names
            selected = list(dict.fromkeys(names))  # a check named twice runs once, where first named
        except TypeError:
            raise ValueError(f"names must be a sequence of check names, got {names!r}") from None
        unknown = [name for name in selected if name not in _CHECKS]
        if unknown or not selected:
            raise ValueError(f"unknown checks: {unknown}; available: {sorted(_CHECKS)}")
    results = []
    for name in selected:
        passed, detail = _CHECKS[name]()
        results.append(CheckResult(name=name, passed=passed, detail=detail))
    return results
