import dataclasses
import math
import re

import numpy as np
import pytest

from mlpicard import cli, problems
from mlpicard.mlp_core import Problem
from mlpicard.problems import (
    PROBLEMS,
    build_problem,
    heat_quadratic,
    manufactured_sine,
    pde_residual_fd,
)
from mlpicard.quadrature import build_rule, scale_weight
from mlpicard.selfcheck import lipschitz_margins


def test_heat_exact_point_values():
    # oracle: |x|^2 + d (T - t) with gradient 2x
    problem = heat_quadratic(2, 1.0)
    out = problem.exact(0.0, np.array([[1.0, 1.0]]))[0]
    assert out[0] == pytest.approx(4.0, abs=1e-15)
    assert out[1:] == pytest.approx([2.0, 2.0], abs=1e-15)


def test_heat_terminal_matches_exact_at_horizon():
    problem = heat_quadratic(3, 0.7)
    rng = np.random.default_rng(1)
    x = rng.uniform(-2, 2, size=(50, 3))
    np.testing.assert_array_equal(problem.exact(problem.horizon, x)[:, 0], problem.terminal(x))


def test_heat_lipschitz_constants_from_box():
    problem = heat_quadratic(4, 1.0, box_radius=2.5)
    assert np.all(problem.lip_g == 5.0)
    assert np.all(problem.lip_f == 0.0)


def test_heat_residual_cancels():
    # du/dt = -d and (1/2) lap = +d cancel; finite differences see ~0
    problem = heat_quadratic(2, 1.0)
    rng = np.random.default_rng(3)
    for _ in range(100):
        t = float(rng.uniform(1e-3, 1 - 1e-3))
        x = rng.uniform(-2, 2, size=(1, 2))
        assert abs(float(pde_residual_fd(problem, t, x)[0])) <= 1e-6


def test_residual_checker_guards():
    sine = manufactured_sine(2)
    with pytest.raises(ValueError, match="requires an exact solution"):
        pde_residual_fd(dataclasses.replace(sine, exact=None), 0.5, np.zeros((1, 2)))
    for t in (0.0, 1e-5, sine.horizon):  # within h = 1e-4 of an end
        with pytest.raises(ValueError, match=f"need h <= t <= horizon - h for central differences, got t={t}"):
            pde_residual_fd(sine, t, np.zeros((1, 2)))
    for x in (np.zeros(2), np.zeros((1, 3))):
        with pytest.raises(ValueError, match=re.escape(f"x must have shape (L, 2), got {x.shape}")):
            pde_residual_fd(sine, 0.5, x)


def test_sine_terminal_matches_exact_at_horizon():
    problem = manufactured_sine(2, c=0.5)
    rng = np.random.default_rng(5)
    x = rng.uniform(-3, 3, size=(100, 2))
    np.testing.assert_array_equal(problem.exact(problem.horizon, x)[:, 0], problem.terminal(x))


def test_sine_residual_analytic_cancellation():
    # direct evaluation of the construction: du/dt + lap/2 + f vanishes to rounding
    d, c = 3, 0.4
    problem = manufactured_sine(d, c=c, beta=0.5, gamma=0.5)
    rng = np.random.default_rng(8)
    t = rng.uniform(0.0, 1.0, size=1000)
    x = rng.uniform(-3.0, 3.0, size=(1000, d))
    worst = 0.0
    for ti, xi in zip(t, x):
        phi = ti + c * xi.sum()
        du_dt = math.cos(phi)
        half_lap = -0.5 * d * c * c * math.sin(phi)
        e = problem.exact(float(ti), xi[None, :])
        f = float(problem.nonlinearity(float(ti), xi[None, :], e[:, 0], e[:, 1:])[0])
        worst = max(worst, abs(du_dt + half_lap + f))
    assert worst <= 1e-12


def test_sine_residual_finite_differences():
    problem = manufactured_sine(2, c=0.5)
    rng = np.random.default_rng(13)
    for _ in range(1000):
        t = float(rng.uniform(1e-3, 1 - 1e-3))
        x = rng.uniform(-2, 2, size=(1, 2))
        assert abs(float(pde_residual_fd(problem, t, x)[0])) <= 1e-6


def test_sine_case_without_nonlinearity_is_source_only():
    problem = manufactured_sine(2, c=0.5, beta=0.0, gamma=0.0)
    rng = np.random.default_rng(2)
    x = rng.uniform(-1, 1, size=(20, 2))
    w1, w2 = rng.normal(size=(2, 20))
    z1, z2 = rng.normal(size=(2, 20, 2))
    f1 = problem.nonlinearity(0.3, x, w1, z1)
    f2 = problem.nonlinearity(0.3, x, w2, z2)
    np.testing.assert_array_equal(f1, f2)
    assert np.all(problem.lip_f == 0.0)


def test_sine_lipschitz_structure():
    problem = manufactured_sine(3, c=0.25, beta=0.7, gamma=0.2)
    assert problem.lip_f[0] == 0.7
    assert problem.lip_f[1] == 0.2
    assert np.all(problem.lip_f[2:] == 0.0)
    assert np.all(problem.lip_g == 0.25)


def test_lipschitz_spot_checks_hold():
    rng = np.random.default_rng(23)
    for name in PROBLEMS:
        problem = build_problem(name, dim=2)
        f_margin, g_margin = lipschitz_margins(problem, rng, pairs=10_000)
        assert f_margin <= 1e-12
        assert g_margin <= 1e-12


def test_sine_deriv_ratio_dominates_true_growth():
    # oracle: the heat operator acts on span{sin, cos} as the 2x2 matrix
    # [[-kappa, -1], [1, -kappa]]; iterate it for the true sup norms
    d, c = 2, 0.5
    problem = manufactured_sine(d, c=c)
    kappa = 0.5 * d * c * c
    mat = np.array([[-kappa, -1.0], [1.0, -kappa]])
    vec = np.array([1.0, 0.0])
    amp = max(1.0, c)
    for k in range(0, 80):
        true_sup = amp * float(np.linalg.norm(vec))
        ratio = true_sup / math.exp(0.75 * math.lgamma(k + 1))
        assert ratio <= problem.deriv_ratio * (1.0 + 1e-12)
        vec = mat @ vec
    assert math.isfinite(problem.deriv_ratio)


def test_registry_and_overrides():
    problem = build_problem("manufactured_sine", dim=4, beta=0.0)
    assert problem.lip_f[0] == 0.0
    assert problem.lip_g[0] == pytest.approx(0.25)  # default c = 1/dim
    with pytest.raises(ValueError, match=re.escape("unknown parameters for manufactured_sine: ['nope']")):
        build_problem("manufactured_sine", dim=2, nope=1.0)
    with pytest.raises(ValueError, match=re.escape("unknown parameters for heat_quadratic: ['c']")):
        build_problem("heat_quadratic", dim=2, c=1.0)
    with pytest.raises(ValueError):
        build_problem("unknown", dim=2)


def test_registry_defaults_are_the_builders():
    fields = ("horizon", "lip_f", "lip_g", "sup_f0", "sup_u", "deriv_ratio", "box_radius")
    for name, builder in PROBLEMS.items():
        for d in (1, 2, 10):
            built, direct = build_problem(name, d), builder(d)
            for field in fields:
                assert np.array_equal(getattr(built, field), getattr(direct, field)), (name, d, field)


def test_overflowing_bound_inputs_read_none():
    # box_radius**2 used to raise OverflowError; deriv_ratio overflowed to inf and failed Problem's check
    heat = heat_quadratic(2, 1.0, box_radius=1e200)
    sine = build_problem("manufactured_sine", dim=8000, c=0.5)
    assert (heat.sup_f0, heat.sup_u, heat.deriv_ratio) == (0.0, None, None)
    assert sine.deriv_ratio is None and math.isfinite(sine.sup_f0)
    assert manufactured_sine(2, c=1e200).sup_f0 is None
    for problem in (heat, sine):
        assert cli._bound_for(problem, 2, 2, 2, 0.0) == "n/a"


def test_builder_validation():
    with pytest.raises(ValueError):
        heat_quadratic(0, 1.0)
    with pytest.raises(ValueError):
        manufactured_sine(2, horizon=-1.0)
    with pytest.raises(ValueError):
        manufactured_sine(2, beta=-0.5)
    for dim in (2.5, 2.0, True):  # 2.5 used to build d = 2 silently
        for builder in (manufactured_sine, heat_quadratic):
            with pytest.raises(ValueError, match="^dim must be an integer"):
                builder(dim, 1.0)
    bounds = {"horizon": "> 0", "box_radius": "> 0", "c": ">= 0.0", "beta": ">= 0.0", "gamma": ">= 0.0"}
    for name in ("horizon", "c", "beta", "gamma"):
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"^{name} must be a finite real number {bounds[name]}, got {value!r}$"):
                manufactured_sine(2, **{name: value})
    for name in ("horizon", "box_radius"):
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"^{name} must be a finite real number {bounds[name]}, got {value!r}$"):
                heat_quadratic(2, **{"horizon": 1.0, name: value})
    assert heat_quadratic(np.int64(2), 1.0).dim == 2
    # a non-real or bool parameter is named, not compared first ("'<' not supported") or accepted
    for builder, name, value in ((manufactured_sine, "horizon", "1"), (heat_quadratic, "horizon", None),
                                 (manufactured_sine, "c", "0.5"), (heat_quadratic, "box_radius", "3"),
                                 (manufactured_sine, "beta", True), (manufactured_sine, "gamma", 1j)):
        message = f"{name} must be a finite real number {bounds[name]}, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            builder(2, **{"horizon": 1.0, name: value})
    assert manufactured_sine(2, horizon=np.float32(0.5), c=1, beta=0).horizon == 0.5
    kwargs = dict(horizon=1.0, terminal=lambda x: x[:, 0], nonlinearity=lambda t, x, w, z: w, lip_f=np.zeros(3),
                  lip_g=np.zeros(2))
    for dim in (2.0, True, "2"):
        with pytest.raises(ValueError, match="^dim must be an integer"):
            Problem(dim=dim, **kwargs)
    assert Problem(dim=np.int64(2), **kwargs).dim == 2
    kwargs["dim"] = 2
    for horizon in (True, 0.0, math.inf, "1", None):  # True would be horizon 1.0
        with pytest.raises(ValueError, match=f"^horizon must be a finite real number > 0, got {re.escape(repr(horizon))}$"):
            Problem(**{**kwargs, "horizon": horizon})
    for name in ("lip_f", "lip_g"):
        value = ["a"] * len(kwargs[name])
        with pytest.raises(ValueError, match=f"^{name} must hold finite real numbers >= 0.0, got {re.escape(repr(value))}$"):
            Problem(**{**kwargs, name: value})


def _rows(rng, rows: int, d: int) -> np.ndarray:
    """Uniform rows with some entries set to +-0.0 or scaled by e^+-40, and a sixth of the rows all signed zeros."""
    x = rng.uniform(-1.0, 1.0, size=(rows, d))
    marks = rng.integers(0, 9, size=(rows, d))
    x[marks == 0] = 0.0
    x[marks == 1] = -0.0
    x[marks == 2] *= math.exp(40.0)
    x[marks == 3] *= math.exp(-40.0)
    x[rows // 2:][::3] = rng.choice([0.0, -0.0], size=x[rows // 2:][::3].shape)
    return x


def _layouts(x: np.ndarray) -> dict:
    wide = np.ones((2 * x.shape[0], x.shape[1] + 3))
    wide[::2, 1:-2] = x
    return {"C": np.ascontiguousarray(x), "F": np.asfortranarray(x), "strided": wide[::2, 1:-2]}


@pytest.mark.parametrize("d", [1, 2, 3, 7, 8, 10])
def test_problem_row_sums_give_the_bits_of_np_sum(d, monkeypatch):
    # the reference is each problem's own f, g and exact with np.sum as the row sum; from d = 8 a
    # column sum would round differently, which pins the threshold where numpy's order changes
    rng = np.random.default_rng(100 + d)
    shipped = [build_problem(name, d) for name in sorted(PROBLEMS)]
    T = shipped[0].horizon
    times = (0.0, scale_weight(build_rule(3), 0.4, T, 2)[0], T)
    for rows in (1, 5, 8191, 8193, 70_000):
        x = _rows(rng, rows, d)
        w, z = rng.normal(size=rows), rng.normal(size=(rows, d))
        if d >= 8 and rows > 5:
            assert not np.array_equal(sum((x[:, i] for i in range(1, d)), x[:, 0]), np.sum(x, axis=-1))
        for layout, xl in _layouts(x).items():
            for problem in shipped:
                calls = [("terminal", lambda: problem.terminal(xl))]
                for t in times:
                    calls += [(f"nonlinearity t={t}", lambda t=t: problem.nonlinearity(t, xl, w, z)),
                              (f"exact t={t}", lambda t=t: problem.exact(t, xl))]
                with monkeypatch.context() as patch:
                    patch.setattr(problems, "_row_sum", lambda a: np.sum(a, axis=-1))
                    reference = [call() for _, call in calls]
                for (label, call), ref in zip(calls, reference):
                    got = np.asarray(call())
                    assert got.shape == ref.shape
                    assert np.array_equal(got.view(np.uint64), ref.view(np.uint64)), (problem.name, rows, layout, label)
