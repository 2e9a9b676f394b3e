"""Built-in verification suite: quadrature identities and bounds, the
cost model, the compiled sampling kernel, and the shipped problems'
consistency.

Each check is a named, independently runnable predicate; the CLI turns
failures into a nonzero exit status.  Checks re-derive everything from
scratch on seeded grids, so a perturbation anywhere in the quadrature
or cost plumbing surfaces here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Optional

import numpy as np
from scipy.special import ndtri

from . import _bits, mlp_core, quadrature, randomness
from .analysis import (
    binomial,
    cost_fe_exact,
    cost_rn_exact,
    count_increasing_chains,
    iterated_gl_upper_bound,
    norm_log_subadditivity_check,
)
from .mlp_core import CostCounters, Problem, mlp_estimate
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
    for d in (1, 2):
        problem = build_problem("manufactured_sine", dim=d)
        for n in range(0, 3):
            for M in (1, 2, 3):
                for Q in (1, 2):
                    counters = CostCounters()
                    mlp_estimate(problem, n, M, Q, key=(n, M, Q), seed=3, s=0.25, x=np.zeros(d), counters=counters)
                    rn, fe = cost_rn_exact(n, M, Q, d), cost_fe_exact(n, M, Q)
                    if counters.gaussians_drawn != rn or counters.function_evals != fe:
                        return False, (
                            f"(n={n}, M={M}, Q={Q}, d={d}): counted "
                            f"({counters.gaussians_drawn}, {counters.function_evals}), recursion ({rn}, {fe})"
                        )
    for N in range(1, 9):
        for d in (1, 10, 100):
            if cost_rn_exact(N, N, N, d) > 8 * d * N ** (2 * N):
                return False, f"RN({N},{N},{N}) exceeds 8 d N^(2N) at d={d}"
        if cost_fe_exact(N, N, N) > 8 * N ** (2 * N):
            return False, f"FE({N},{N},{N}) exceeds 8 N^(2N)"
    return True, "counters equal the recursions; closed-form caps hold for N <= 8"


def _kernel_cases(rng: np.random.Generator):
    """(kernel entry, its numpy reference, their arguments): paths, states, and node groups of one and of
    several nodes with shared and per-lane times; f of either sign of zero shows the sign of a zero sum."""
    for lanes, B, Q, d in ((0, 1, 1, 1), (1, 1, 1, 3), (7, 7, 3, 2), (600, 3, 4, 10)):
        h0, h1 = rng.integers(0, 2**64, size=(2, lanes), dtype=np.uint64)
        paths = (h0, h1, rng.uniform(0.1, 1.0, size=(B, Q)), np.empty(lanes * Q * d), B, Q, d)
        yield "brownian_paths", randomness._paths_numpy, paths
        labels = rng.integers(-(2**63), 2**63, size=4, dtype=np.int64)
        for chain in ((), (0,), (2**63 - 1, -(2**63))):
            states = (h0, h1, np.array(chain, dtype=np.int64), labels, np.empty(2 * lanes * 4, dtype=np.uint64), lanes, 1)
            yield "extend_states", randomness._extend_numpy, states
    for m, B, g, Q, d, k0 in ((1, 1, 1, 1, 1, 0), (3, 4, 2, 5, 10, 3), (16, 2, 4, 4, 2, 0)):
        x, dw, s = rng.normal(size=(B, d)), rng.normal(size=(m, B, Q, d)), rng.uniform(0.0, 0.5, size=B)
        yield "shifted_points", mlp_core._points_numpy, (x, dw, np.empty(m * B * g * d), m, B, Q, d, k0, g)
        for f in (rng.normal(size=(m, B, g)), -np.zeros((m, B, g))):
            sums = (f[:, :, 0].copy(), dw[:, :, 0].copy(), np.empty(B), np.empty((B, d)), m, B, d)
            yield "node_sums", mlp_core._node_sums_numpy, sums
            w, lag = rng.uniform(size=(2, B, Q))  # per-lane weights, and nodes less s
            for lane, times in ((0, (w[0], 0.6 + lag[0], np.full(1, 0.5))), (1, (w, s[:, None] + lag, s))):
                terms = (f, dw, *times, np.full((B, d + 1), -0.0), m, B, g, Q, d, k0, lane)
                yield "node_terms", mlp_core._node_terms_numpy, terms


def _check_bit_kernel() -> tuple[bool, str]:
    """Compiled paths, states, ndtri and node-group entries against the numpy/scipy reference, bitwise."""
    if _bits._KERNEL is None:
        return True, f"numpy fallback runs ({_bits._FALLBACK_REASON or 'kernel switched off'}); nothing to compare"
    for name, reference, args in _kernel_cases(np.random.default_rng(41)):
        runs = []  # each on fresh copies of the arguments, which must come out the same bytes
        for entry in (getattr(_bits._KERNEL, name), reference):
            copies = [a.copy() if isinstance(a, np.ndarray) else a for a in args]
            entry(*copies)
            runs.append([a.tobytes() for a in copies if isinstance(a, np.ndarray)])
        if runs[0] != runs[1]:
            return False, f"{name} differs from its reference at sizes {[a for a in args if isinstance(a, int)]}"
    # all three ndtri branches, the far tail (u < exp(-32)) and both ends
    u = np.concatenate([np.exp(-np.linspace(0.0, 700.0, 2001)), 1.0 - np.exp(-np.linspace(0.0, 36.0, 2001))])
    z = np.empty_like(u)
    _bits._KERNEL.ndtri_array(u, z)
    if not np.array_equal(z, ndtri(u)):
        return False, "ndtri differs from scipy.special.ndtri"
    isa = _bits._KERNEL.kernel_isa()
    return True, (
        f"compiled kernel runs ({isa} clone); paths, states, ndtri, shifted points, node sums and node terms "
        "equal the numpy/scipy reference bitwise"
    )


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
    "problem-residuals": _check_problem_residuals,
    "problem-lipschitz": _check_problem_lipschitz,
}


def available_checks() -> tuple[str, ...]:
    return tuple(_CHECKS)


def run_selfcheck(names: Optional[Iterable[str]] = None) -> list[CheckResult]:
    """Run the named checks (all by default) and collect their results."""
    if names is None:
        selected = list(_CHECKS)
    else:
        try:
            selected = list(names)
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
