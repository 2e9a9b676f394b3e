"""Recursive multilevel Picard estimator for value and spatial gradient.

``mlp_estimate`` approximates the (d+1)-vector (u, grad u)(s, x) of a
semilinear heat equation

    du/dt + (1/2) Laplacian(u) + f(t, x, u, grad u) = 0,   u(T, .) = g,

by a telescoping Picard recursion: the estimate at level n combines a
control-variate Monte Carlo term for the terminal condition,

    (g(x), 0) + mean_i (g(x + dW_T) - g(x)) (1, dW_T / (T - s)),

with Gauss-Legendre-in-time sums over level differences of the
nonlinearity, each difference evaluated at a Brownian-shifted point and
multiplied by the gradient weight (1, dW_t / (t - s)).  Every Monte
Carlo sample owns a distinct multi-index key, so the whole tree of
draws is reproducible and independent of scheduling.

Every entry takes one request step, ``_prepare``, which returns one
cached plan of the recursion, ``_plan``, and runs its lanes on one
runner, ``_run_replications``: a point as one lane, the studies and both
sides of the residual check in lane chunks, so a call holds one chunk
per thread in memory; results are bitwise independent of chunking and
thread count.

``_mlp_batch`` allocates the outputs of its array work -- the terminal
term's sample sums, each node group's shifted points -- and passes them,
with the sizes, to the compiled kernel of :mod:`mlpicard._bits` or, when
it did not load, to ``_NUMPY``: the numpy references here, under the
kernel's entry names, with the same arguments and the same bits.

All user functions are evaluated on batches: ``g(x)`` maps (L, d) to
(L,), ``f(t, x, w, z)`` maps a time ``t`` -- a float, or an (L,) array
when lanes at different Gauss-Legendre nodes share one call -- plus
(L, d), (L,), (L, d) to (L,), and ``exact(t, x)`` maps a scalar time
plus (L, d) to (L, d+1).  An output of any other shape, or of values
that are not real numbers, raises ``ConfigError``, and so does a write
into any array f, g or exact receive: all are read-only (at a level-0
child, w and z are zero views), so the caller's x is never written.  An
overflow shows as the ``EvaluationError`` of a non-finite estimate, not
as numpy warnings.

Cost accounting: counters tally every scalar Gaussian draw and every
f/g evaluation at sampled points.  The one terminal value g(x) at the
call's own center is shared across all samples of that call and carries
no marginal cost, which makes the realized counts match the cost
recursions of :mod:`mlpicard.analysis` exactly.
"""

from __future__ import annotations

import types
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import _bits
from .analysis import cost_rn_exact
from .errors import _POSITIVE, BudgetError, ConfigError, EvaluationError
from .errors import _check_instance, _check_integer, _check_real, _real_array
from .quadrature import MAX_ORDER, build_rule
from .randomness import _MASK64, _extend_state, _key, _root_state, _standard_normals, state_for_key

__all__ = [
    "CostCounters",
    "Estimate",
    "ErrorReport",
    "FkResidual",
    "Problem",
    "check_request",
    "discrete_fk_residual",
    "mc_l2_error",
    "mlp_estimate",
]

# the request budget: highest level n, and scalar Gaussians per estimate
MAX_LEVEL = 6
MAX_GAUSSIANS = 10**8
# most threads a request may run replication chunks on
MAX_THREADS = 256

# Caps in Gaussians per Monte Carlo block (lanes * M^n * Q * d): up to
# _FOLD_CAP a call folds time nodes into the lanes of one recursive call;
# _LANE_CAP bounds the top block of a replication chunk.  One value for
# both costs either way: 2^16 ran a 16-replication heat d=10 study in
# 6-lane chunks, 1.58 s against 1.29 s as one batch (+22%); 2^18 folding
# peaked the 64-replication sine d=2 study at 72 MB against 62 (+16%).
_FOLD_CAP = 2**16
_LANE_CAP = 2**18


@dataclass(frozen=True)
class Problem:
    """A semilinear heat problem on [0, horizon] x R^dim.

    ``terminal`` maps (L, d) points to (L,) values; ``nonlinearity(t, x,
    w, z)`` maps a time ``t`` (a float or an (L,) array of per-lane
    times) and (L, d), (L,), (L, d) arrays to (L,) values; ``exact`` is
    a callable or None.  Their arguments, and those of ``exact``, are
    read-only: a write raises ``ConfigError``.

    ``lip_f`` holds the d+1 Lipschitz constants of the nonlinearity in
    (w, z), ``lip_g`` the d coordinate Lipschitz constants of the
    terminal condition (on the declared evaluation box when g is only
    locally Lipschitz), on the box |x|_inf <= ``box_radius``.  ``sup_f0``,
    ``sup_u`` and ``deriv_ratio`` are optional analytic inputs for the error
    bounds; problems that cannot supply them leave them None and the bounds
    report "n/a".  horizon and box_radius are finite reals > 0, the other
    numbers finite reals >= 0.
    """

    horizon: float
    dim: int
    terminal: Callable[[np.ndarray], np.ndarray]
    nonlinearity: Callable[[Union[float, np.ndarray], np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    lip_f: np.ndarray
    lip_g: np.ndarray
    exact: Optional[Callable[[float, np.ndarray], np.ndarray]] = None
    sup_f0: Optional[float] = None
    sup_u: Optional[float] = None
    deriv_ratio: Optional[float] = None
    box_radius: float = 1.0
    name: str = ""

    def __post_init__(self):
        _check_real("horizon", self.horizon, _POSITIVE)
        _check_real("box_radius", self.box_radius, _POSITIVE)
        for name in ("sup_f0", "sup_u", "deriv_ratio"):
            if getattr(self, name) is not None:
                _check_real(name, getattr(self, name), 0.0)
        _check_integer("dim", self.dim, 1)
        for name, fn in (("terminal", self.terminal), ("nonlinearity", self.nonlinearity), ("exact", self.exact)):
            if not (callable(fn) or (fn is None and name == "exact")):
                raise ValueError(f"{name} must be callable{' or None' * (name == 'exact')}, got {fn!r}")
        lip_f = _real_array("lip_f", self.lip_f, 0.0)
        lip_g = _real_array("lip_g", self.lip_g, 0.0)
        if lip_f.shape != (self.dim + 1,):
            raise ValueError(f"lip_f must have shape ({self.dim + 1},), got {lip_f.shape}")
        if lip_g.shape != (self.dim,):
            raise ValueError(f"lip_g must have shape ({self.dim},), got {lip_g.shape}")
        object.__setattr__(self, "lip_f", lip_f)
        object.__setattr__(self, "lip_g", lip_g)


@dataclass(frozen=True)
class Estimate:
    """A (d+1)-vector: value estimate first, gradient estimate after."""

    components: np.ndarray

    @property
    def value(self) -> float:
        return float(self.components[0])

    @property
    def gradient(self) -> np.ndarray:
        return self.components[1:]


@dataclass
class CostCounters:
    """Realized counts of scalar Gaussian draws and f/g evaluations.

    Batched entry points accumulate totals over all lanes; every lane
    performs identical work, so totals are divisible by the lane count.
    """

    gaussians_drawn: int = 0
    f_evals: int = 0
    g_evals: int = 0

    @property
    def function_evals(self) -> int:
        return self.f_evals + self.g_evals

    def add(self, other: "CostCounters") -> None:
        self.gaussians_drawn += other.gaussians_drawn
        self.f_evals += other.f_evals
        self.g_evals += other.g_evals


@dataclass(frozen=True)
class ErrorReport:
    """Monte Carlo L2 errors of an estimator against the exact solution."""

    component_errors: np.ndarray
    component_ses: np.ndarray
    value_error: float
    value_se: float
    grad_error: float
    grad_se: float
    replications: int
    estimates: np.ndarray = field(repr=False, default=None)


@dataclass(frozen=True)
class FkResidual:
    """Difference of the two sides of the expectation recursion, with radii."""

    residual: np.ndarray
    radius: np.ndarray

    @property
    def within_radius(self) -> bool:
        return bool(np.all(np.abs(self.residual) <= self.radius))


def check_request(
    problem: Problem,
    n: int,
    M: int,
    Q: int,
    s: float,
    x,
    seed: int = 0,
    key: Sequence[int] = (),
    replications: Optional[int] = None,
    threads: int = 1,
) -> np.ndarray:
    """Return a read-only C-contiguous float view of x if the request is well formed and within budget.

    ValueError: not a Problem; n, M, Q, replications or threads not an
    integer of at least 0, 1, 1, 2 and 1, Q above 64, replications above
    2^63 (replication r is an int64 key label) or threads above
    ``MAX_THREADS``; s not a finite real in [0, horizon), x not d finite
    reals, or a bad seed or key; s so close to the horizon that, along the
    chain of last time nodes of n nested calls, a call's first node rounds
    onto its start.  A bool is not a number.
    BudgetError: n above ``MAX_LEVEL``, or ``cost_rn_exact`` Gaussians per
    estimate above ``MAX_GAUSSIANS``.
    """
    _check_instance("problem", problem, Problem)
    for check in (("n", n, 0), ("M", M, 1), ("Q", Q, 1, MAX_ORDER), ("threads", threads, 1, MAX_THREADS)):
        _check_integer(*check)
    if replications is not None:
        _check_integer("replications", replications, 2, 2**63)
    if not _check_real("s", s, 0.0) < problem.horizon:
        raise ValueError(f"need s < horizon={problem.horizon}, got s={s!r}")
    x = _real_array("x", x)
    if x.shape != (problem.dim,):
        raise ValueError(f"x must have shape ({problem.dim},), got {x.shape}")
    _check_integer("seed", seed, 0, _MASK64)
    _key("key", key)
    if n > MAX_LEVEL:  # ahead of the cost recursion, so it never runs past MAX_LEVEL
        raise BudgetError(f"level n={n} exceeds the configured maximum {MAX_LEVEL}")
    predicted = cost_rn_exact(n, M, Q, problem.dim)
    if predicted > MAX_GAUSSIANS:
        raise BudgetError(f"predicted {predicted} scalar normal draws per estimate exceed the budget {MAX_GAUSSIANS}")
    nodes, horizon, t = build_rule(Q).nodes.tolist(), float(problem.horizon), float(s) + 0.0
    for _ in range(n):  # the starts whose spans shrink fastest, in the float operations of _mlp_batch's nodes
        if not t + nodes[0] * (horizon - t) > t:
            raise ValueError(f"s={s!r} is too close to horizon={problem.horizon} for n={n}, Q={Q}: "
                             f"the first time node of a nested call rounds onto its start {t!r}")
        t += nodes[-1] * (horizon - t)
    return _read_only(np.ascontiguousarray(x).view())  # a view: the caller's array keeps its flags


def _prepare(problem, n, M, Q, s, x, seed, key, replications, threads, counters) -> tuple:
    """The request step of every entry: ``check_request``, then the read-only x, the start time as a float of +0.0
    or above (``check_request`` lets -0.0 through), the plan and the counters, fresh ones if None."""
    x = check_request(problem, n, M, Q, s, x, seed, key, replications, threads)
    counters = CostCounters() if counters is None else counters
    _check_instance("counters", counters, CostCounters)
    return x, float(s) + 0.0, _plan(int(n), int(M), int(Q), int(problem.dim)), counters


_Plan = namedtuple("_Plan", "n M Q rule block children chains ranks")


@lru_cache(maxsize=256)
def _plan(n: int, M: int, Q: int, d: int) -> _Plan:
    """What a level-n call at (M, Q, d) reads besides its lanes: its rule; ``block`` = M^n Q d, its Gaussians per
    lane; ``children``, the plans of levels 0..n-1; ``chains``, whose row n + l is the one-label chain (l,) for
    l = -n..n; and ``ranks`` 1..Q.  The arrays are read-only and none grows with M: a call's M^(n-l) sample labels
    stay its own.  No cap or kernel switch is read here, since tests patch them between calls."""
    chains = _read_only(np.arange(-n, n + 1, dtype=np.int64).reshape(-1, 1))
    ranks = _read_only(np.arange(1, Q + 1, dtype=np.int64))
    return _Plan(n, M, Q, build_rule(Q), M**n * Q * d, tuple(_plan(l, M, Q, d) for l in range(n)), chains, ranks)


def _read_only(a: np.ndarray) -> np.ndarray:
    """``a``, flagged read-only where it is born, so that f, g or exact cannot write into it."""
    a.flags.writeable = False
    return a


def _evaluate(fn: Callable, name: str, shape: tuple, *args) -> np.ndarray:
    """``fn(*args)`` as a C-contiguous float array of the given shape; a write into an argument is a ConfigError."""
    try:
        out = fn(*args)
    except ValueError as exc:
        if "read-only" not in str(exc):
            raise
        raise ConfigError(f"problem.{name} wrote into its read-only arguments: {exc}") from exc
    out = np.asarray(out)
    if out.dtype.kind not in "biuf":  # a cast would drop a complex part, or fail on text in numpy's words
        raise ConfigError(f"problem.{name} returned values that are not real numbers, of dtype {out.dtype}")
    out = np.asarray(out, dtype=float, order="C")
    if out.shape != shape:
        raise ConfigError(f"problem.{name} returned shape {out.shape}, expected {shape}")
    return out


def _sample_sum(a: np.ndarray) -> np.ndarray:
    """Sum over the sample axis 0, adding rows in index order.

    ``a.sum(axis=0)`` adds rows in order when the other axes hold two or
    more elements but sums a lone column pairwise, which would make a
    one-lane batch round differently from the same lane in a larger one;
    a lone column is therefore accumulated.  (Accumulating every array
    would cost a full-size temporary, about 12% of a d=10 study.)
    """
    return a.sum(axis=0) if a[0].size > 1 else np.cumsum(a, axis=0)[-1]


def _node_sums_numpy(f, dw, sf: np.ndarray, sfw: np.ndarray, m: int, B: int, d: int) -> None:
    """Reference for the kernel's ``node_sums``: ``_sample_sum`` of f (m, B) and of f * dw for dw (m, B, d)."""
    f = np.reshape(f, (m, B))
    sf.reshape(B)[...] = _sample_sum(f)
    sfw.reshape(B, d)[...] = _sample_sum(f[:, :, None] * np.reshape(dw, (m, B, d)))


def _points_numpy(x, dw, y: np.ndarray, m: int, B: int, Q: int, d: int, k0: int, g: int) -> None:
    """Reference for the kernel's ``shifted_points``: y[i, b, j] = x[b] + dw[i, b, k0 + j], dw (m, B, Q, d)."""
    np.add(np.reshape(x, (1, B, 1, d)), np.reshape(dw, (m, B, Q, d))[:, :, k0 : k0 + g], out=y.reshape(m, B, g, d))


def _node_terms_numpy(f, dw, weights, nodes, s, out: np.ndarray, m, B, g, Q, d, k0, lane) -> None:
    """Reference for the kernel's ``node_terms``: adds the terms of f (m, B, g) at nodes k0..k0+g-1 into
    out (B, d+1) in k order.  ``weights``, ``nodes`` and ``s`` hold Q, Q and 1 times, or B times that per lane."""
    per = (B,) if lane else ()
    f, dw, out = np.reshape(f, (m, B, g)), np.reshape(dw, (m, B, Q, d)), out.reshape(B, d + 1)
    weights, nodes, s = np.reshape(weights, per + (Q,)), np.reshape(nodes, per + (Q,)), np.reshape(s, per)
    sf, sfw = np.empty(B), np.empty((B, d))
    for k in range(k0, k0 + g):
        _node_sums_numpy(f[:, :, k - k0], dw[:, :, k], sf, sfw, m, B, d)
        w_over_m = weights[..., k] / m
        out[:, 0] += w_over_m * sf
        out[:, 1:] += (w_over_m / (nodes[..., k] - s))[..., None] * sfw


_NUMPY = types.SimpleNamespace(node_sums=_node_sums_numpy, shifted_points=_points_numpy, node_terms=_node_terms_numpy)
_NO_CHAIN = _read_only(np.zeros(0, dtype=np.int64))


def _lane_states(seed: int, key: Sequence[int], lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """State words of the lanes keyed ``key + (r,)`` for r = lo..hi-1; seed and key as ``check_request`` passed them."""
    h0, h1 = _extend_state(*_root_state(seed), np.array(key, dtype=np.int64), np.arange(lo, hi, dtype=np.int64))
    return h0.reshape(-1), h1.reshape(-1)


def _child_estimates(problem, plan, h0, h1, ranks, t, y, counters) -> np.ndarray:
    """Read-only estimates of ``plan``'s level at (t, y), lane p * len(ranks) + j keyed (prefix p, ranks[j]).

    A level-0 estimate is a zero view: no key, call or array.
    """
    if plan.n == 0:
        return np.broadcast_to(0.0, (y.shape[0], y.shape[1] + 1))
    kh0, kh1 = _extend_state(h0, h1, _NO_CHAIN, ranks, h0.size)
    return _read_only(_mlp_batch(problem, plan.n, plan.M, plan.Q, plan, kh0.reshape(-1), kh1.reshape(-1), t, y,
                                 counters))


def _mlp_batch(problem, n, M, Q, plan, h0, h1, s, x, counters) -> np.ndarray:
    """Level-n estimates for a batch of lanes.

    ``plan`` is ``_plan(n, M, Q, d)``, whose key stays in arguments 1 to 3:
    ``bench/tracing.py`` reads the level there, and the lanes x in argument
    8.  ``h0``/``h1`` are the per-lane key states, ``x`` the per-lane
    points, shape (B, d), and ``s`` the start time: a float shared by all
    lanes or a (B,) array of per-lane times.  Returns (B, d+1).  Monte
    Carlo sample axes and groups of time nodes are folded into the lane
    axis for recursive calls, so the work per lane -- and hence every
    per-lane result -- is independent of how lanes are batched.
    """
    B, d = x.shape
    if n == 0:
        return np.zeros((B, d + 1))
    ops = _bits._KERNEL or _NUMPY  # the array work: compiled, or numpy's references with the same arguments

    s = np.asarray(s, dtype=float)
    span = problem.horizon - s
    out = np.zeros((B, d + 1))

    # center terminal value, shared by all samples of this call
    gx = _evaluate(problem.terminal, "terminal", (B,), x)
    out[:, 0] = gx

    labels = np.arange(1, M**n + 1, dtype=np.int64)  # the sample labels; level l takes the first M^(n-l)
    m = labels.size
    th0, th1 = _extend_state(h0, h1, plan.chains[n], -labels)  # (1, m, B): keys (key, 0, -i)
    dw = _standard_normals(th0, th1, d, np.sqrt(span)[..., None]).reshape(m, B, d)
    counters.gaussians_drawn += m * B * d
    # a numpy add, not shifted_points: at one node its C loop runs 2.3x slower on (m, B, d) = (256, 25, 2)
    gy = _evaluate(problem.terminal, "terminal", (m * B,), _read_only((x[None, :, :] + dw).reshape(m * B, d)))
    counters.g_evals += m * B
    sf, sfw = np.empty(B), np.empty((B, d))
    ops.node_sums(gy.reshape(m, B) - gx[None, :], dw, sf, sfw, m, B, d)
    out[:, 0] += sf / m
    out[:, 1:] += sfw / (m * span)[..., None]

    nodes = s[..., None] + plan.rule.nodes * span[..., None]  # (Q,) or (B, Q)
    weights = plan.rule.weights * span[..., None]
    sqrt_dts = np.sqrt(np.diff(nodes, prepend=s[..., None]))
    # every descendant's block of B * plan.block Gaussians grows by the
    # group size, so groups stop at the cap
    group = max(1, min(Q, _FOLD_CAP // (B * plan.block)))

    for level in range(n):
        m = M ** (n - level)
        ph0, ph1 = _extend_state(h0, h1, plan.chains[n + level], labels[:m])  # (1, m, B): keys (key, level, i)
        dw_nodes = _standard_normals(ph0, ph1, d, sqrt_dts).reshape(m, B, Q, d)
        counters.gaussians_drawn += m * B * Q * d
        # (1, m, B): prefix (key, -level, i) of the lower estimates, zero at level 1
        nh0, nh1 = _extend_state(h0, h1, plan.chains[n - level], labels[:m]) if level >= 2 else (None, None)
        for k0 in range(0, Q, group):
            g = min(group, Q - k0)
            lanes = m * B * g
            ranks = plan.ranks[k0 : k0 + g]
            t = nodes[..., k0 : k0 + g]
            t = t.item() if t.size == 1 else _read_only(np.broadcast_to(t, (m, B, g)).reshape(lanes))
            y = np.empty((lanes, d))
            ops.shifted_points(x, dw_nodes, y, m, B, Q, d, k0, g)
            y.flags.writeable = False

            # keys (key, level, i, rank)
            inner = _child_estimates(problem, plan.children[level], ph0, ph1, ranks, t, y, counters)
            fv = _evaluate(problem.nonlinearity, "nonlinearity", (lanes,), t, y, inner[:, 0], inner[:, 1:])
            counters.f_evals += lanes
            if level >= 1:
                # keys (key, -level, i, rank)
                lo = _child_estimates(problem, plan.children[level - 1], nh0, nh1, ranks, t, y, counters)
                fv = fv - _evaluate(problem.nonlinearity, "nonlinearity", (lanes,), t, y, lo[:, 0], lo[:, 1:])
                counters.f_evals += lanes

            # accumulate node by node in k order, as an unfolded call would; s may be a strided view of
            # the parent's node times
            ops.node_terms(fv, dw_nodes, weights, nodes, np.ascontiguousarray(s), out, m, B, g, Q, d, k0, s.ndim)
    return out


def mlp_estimate(
    problem: Problem,
    n: int,
    M: int,
    Q: int,
    key: Sequence[int] = (),
    seed: int = 0,
    s: float = 0.0,
    x=None,
    counters: Optional[CostCounters] = None,
) -> Estimate:
    """One realization of the level-n value-and-gradient estimate at (s, x).

    n, M and Q are the Picard level, sample base and quadrature order, and
    ``key`` the root multi-index.  Pure function of (problem, n, M, Q, key,
    seed, s, x): repeated calls agree bitwise.  ``check_request`` checks the
    request against the fixed budget (``MAX_LEVEL``, ``MAX_GAUSSIANS``)
    before any work happens.  ``counters`` accumulates the realized costs
    (fresh ones if omitted).
    """
    x, s, plan, counters = _prepare(problem, n, M, Q, s, x, seed, key, None, 1, counters)
    h0, h1 = state_for_key(seed, key)
    components = _run_replications(
        lambda lo, hi, c: _mlp_batch(problem, plan.n, plan.M, plan.Q, plan, h0, h1, s, x[None, :], c),
        1, plan.block, 1, counters,
    )
    return Estimate(components=components[0])


def _replication_batch(problem, plan, seed, key, s, x, counters, rep_lo, rep_hi) -> np.ndarray:
    """Estimates for replications rep_lo..rep_hi-1 (arguments 7 and 8, as ``bench/tracing.py`` reads them), keys
    ``key + (r,)``."""
    rh0, rh1 = _lane_states(seed, key, rep_lo, rep_hi)
    xs = _read_only(np.repeat(x[None, :], rep_hi - rep_lo, axis=0))
    return _mlp_batch(problem, plan.n, plan.M, plan.Q, plan, rh0, rh1, s, xs, counters)


def _run_replications(work, replications, block, threads, counters, failure="estimator produced non-finite components"):
    """``work(lo, hi, chunk_counters)``, the results of lanes lo..hi-1, over chunks of 0..replications, concatenated.

    At least min(threads, replications) chunks of at most
    max(1, _LANE_CAP // block) lanes, for ``block`` Gaussians per lane, run
    on ``threads`` threads (one on the caller); a lane's result does not
    depend on its chunk, so neither chunking nor thread count changes any
    bit.  Counts go to ``counters``.  Chunks run with numpy's warnings
    off: an overflow shows only as the ``EvaluationError(failure)`` that
    any non-finite result raises.
    """
    per_chunk = max(1, _LANE_CAP // block)
    chunks = max(min(threads, replications), -(-replications // per_chunk))
    bounds = [i * replications // chunks for i in range(chunks + 1)]
    chunk_counters = [CostCounters() for _ in range(chunks)]

    def run(lo, hi, c):
        with np.errstate(all="ignore"):  # per chunk: pool threads do not inherit the caller's setting
            return work(lo, hi, c)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(run, bounds[:-1], bounds[1:], chunk_counters))
    else:  # no pool: on a worker, whose own malloc arena this adds, the sine d=2 study's peak RSS rose 1-3 MB (2-4%)
        parts = list(map(run, bounds[:-1], bounds[1:], chunk_counters))
    for c in chunk_counters:
        counters.add(c)
    out = np.concatenate(parts, axis=0) if chunks > 1 else parts[0]
    if not np.isfinite(out).all():  # the method: the dispatch of np.all costs a point request 2-4 us
        raise EvaluationError(failure)
    return out


def _jackknife_se(stat_loo: np.ndarray) -> np.ndarray:
    """Jackknife standard error from leave-one-out statistics (R along axis 0)."""
    R = stat_loo.shape[0]
    centered = stat_loo - stat_loo.mean(axis=0)
    return np.sqrt((R - 1) / R * np.sum(centered**2, axis=0))


def mc_l2_error(
    problem: Problem,
    n: int,
    M: int,
    Q: int,
    s: float,
    x,
    replications: int,
    seed: int = 0,
    key: Sequence[int] = (),
    threads: int = 1,
    counters: Optional[CostCounters] = None,
) -> ErrorReport:
    """Empirical L2 error of the level-n estimator against ``problem.exact``.

    Runs ``replications`` independent estimates under keys ``key + (r,)``
    and reports, per component, the root mean square deviation from the
    exact solution together with a jackknife standard error; the
    gradient summary is the sup over gradient components.  Results are
    bitwise independent of ``threads``.  ``check_request`` checks the
    request, within the same fixed budget per estimate as ``mlp_estimate``,
    before any work happens.
    """
    _check_integer("replications", replications, 2)  # check_request reads None as a single estimate
    x, s, plan, counters = _prepare(problem, n, M, Q, s, x, seed, key, replications, threads, counters)
    if problem.exact is None:
        raise ValueError("mc_l2_error requires a problem with an exact solution")
    estimates = _run_replications(
        lambda lo, hi, c: _replication_batch(problem, plan, seed, key, s, x, c, lo, hi),
        replications, plan.block, threads, counters,
    )

    exact = _evaluate(problem.exact, "exact", (1, problem.dim + 1), s, x[None, :])[0]
    sq = (estimates - exact[None, :]) ** 2  # (R, d+1)
    R = replications
    totals = sq.sum(axis=0)
    comp_err = np.sqrt(totals / R)
    loo = np.sqrt(np.maximum(totals[None, :] - sq, 0.0) / (R - 1))  # (R, d+1)
    comp_se = _jackknife_se(loo)
    grad_err = float(np.max(comp_err[1:]))
    grad_se = float(_jackknife_se(np.max(loo[:, 1:], axis=1)))
    return ErrorReport(
        component_errors=comp_err,
        component_ses=comp_se,
        value_error=float(comp_err[0]),
        value_se=float(comp_se[0]),
        grad_error=grad_err,
        grad_se=grad_se,
        replications=R,
        estimates=estimates,
    )


def _residual_rhs(problem, plan, seed, key, s, x, counters, rep_lo, rep_hi) -> np.ndarray:
    """Right-hand-side samples rep_lo..rep_hi-1 of ``discrete_fk_residual``, shape (rep_hi - rep_lo, d+1).

    Sample r follows the path keyed ``key + (1, r)`` and runs its inner
    level-(n-1) estimates under keys ``key + (2, r, rank)``.
    """
    d, R, Q, rule = problem.dim, rep_hi - rep_lo, plan.Q, plan.rule
    span = problem.horizon - s
    nodes = s + rule.nodes * span
    times = np.append(nodes, problem.horizon)
    rh0, rh1 = _lane_states(seed, (*key, 1), rep_lo, rep_hi)
    dw = _standard_normals(rh0, rh1, d, np.sqrt(np.diff(times, prepend=s))).reshape(R, Q + 1, d)

    rhs = np.zeros((R, d + 1))
    dw_T = dw[:, Q, :]
    g_t = _evaluate(problem.terminal, "terminal", (R,), _read_only(x[None, :] + dw_T))
    rhs[:, 0] = g_t
    rhs[:, 1:] = g_t[:, None] * dw_T / span

    ih0, ih1 = _lane_states(seed, (*key, 2), rep_lo, rep_hi)
    t = _read_only(np.broadcast_to(nodes, (R, Q)).reshape(R * Q))
    y = _read_only((x[None, None, :] + dw[:, :Q, :]).reshape(R * Q, d))
    inner = _child_estimates(problem, plan.children[-1], ih0, ih1, plan.ranks, t, y, counters)  # keys (key, 2, r, rank)
    fv = _evaluate(problem.nonlinearity, "nonlinearity", (R * Q,), t, y, inner[:, 0], inner[:, 1:]).reshape(R, Q)
    counters.add(CostCounters(R * (Q + 1) * d, f_evals=R * Q, g_evals=R))  # the path, f at the nodes, g at T
    for k in range(Q):
        w_k = float(rule.weights[k]) * span
        rhs[:, 0] += w_k * fv[:, k]
        rhs[:, 1:] += (w_k / (nodes[k] - s)) * fv[:, k, None] * dw[:, k, :]
    return rhs


def discrete_fk_residual(
    problem: Problem,
    n: int,
    M: int,
    Q: int,
    s: float,
    x,
    replications: int,
    seed: int = 0,
    key: Sequence[int] = (),
    counters: Optional[CostCounters] = None,
) -> FkResidual:
    """Monte Carlo check of the expectation recursion satisfied by the scheme.

    The level-n estimator's mean equals the mean of the terminal weight
    term plus the quadrature sum of the nonlinearity applied to an
    independent level-(n-1) estimator along one shared Brownian path.
    Both sides are estimated with ``replications`` fresh-key samples;
    the returned radius is four combined standard errors per component,
    so ``within_radius`` is a statistical acceptance of unbiasedness.
    ``counters`` accumulates both sides' realized costs (fresh ones if
    omitted): R (RN(n) + (Q+1) d + Q RN(n-1)) Gaussians and
    R (FE(n) + 1 + Q + Q FE(n-1)) evaluations, for RN and FE the cost
    recursions ``cost_rn_exact`` and ``cost_fe_exact``.

    Restricted to small instances (d <= 3, n <= 2, M <= 3, Q <= 3).
    """
    _check_integer("replications", replications, 2)  # check_request reads None as a single estimate
    x, s, plan, counters = _prepare(problem, n, M, Q, s, x, seed, key, replications, 1, counters)
    for name, value, high in (("n", n, 2), ("M", M, 3), ("Q", Q, 3), ("problem.dim", problem.dim, 3)):
        _check_integer(f"residual check {name}", value, 1, high)
    R = replications
    failure = "residual estimation produced non-finite values"

    lhs = _run_replications(
        lambda lo, hi, c: _replication_batch(problem, plan, seed, (*key, 0), s, x, c, lo, hi),
        R, plan.block, 1, counters, failure,
    )
    # each right-hand lane makes a level-(n-1) call over Q lanes
    rhs = _run_replications(
        lambda lo, hi, c: _residual_rhs(problem, plan, seed, key, s, x, c, lo, hi),
        R, plan.Q * plan.children[-1].block, 1, counters, failure,
    )
    residual = lhs.mean(axis=0) - rhs.mean(axis=0)
    se = np.sqrt(lhs.var(axis=0, ddof=1) / R + rhs.var(axis=0, ddof=1) / R)
    return FkResidual(residual=residual, radius=4.0 * se)
