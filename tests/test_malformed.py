"""One malformed-input table over the public API.

Every public function of ``mlpicard.__all__`` (plus the ``Problem`` and
``BoundInputs`` fields, and ``cli.main`` argv) gets, one argument at a
time, each value of one fixed list.  The call must raise ``ValueError``
(``ConfigError`` is one) or ``BudgetError`` -- ``cli.main`` must exit 2 or
4 -- unless the value is on that argument's accepted list.  Callback
arguments and free-form labels are left out, except the ``Problem``'s f, g
and exact solution, which no value of the list can stand in for.
"""

import math

import numpy as np
import pytest

import mlpicard as mp
from mlpicard.cli import main

MALFORMED = {
    "str": "3",
    "None": None,
    "bool": True,
    "list": [3],
    "nan": math.nan,
    "+inf": math.inf,
    "-inf": -math.inf,
    "negative": -3,
    "2**64": 2**64,
    "complex": 3j,
    "0-d array": np.array(3),
}

SINE = mp.manufactured_sine(2)
POINT = dict(problem=SINE, n=1, M=1, Q=1, s=0.0, x=[0.0, 0.0], seed=0, key=())
BOUND = dict(T=1.0, t0=0.0, lip_f_l1=1.0, lip_g_l1=1.0, sup_f0=1.0, sup_u=1.0, deriv_ratio=1.0, n=2, M=2, Q=2, alpha=0.25)
PROBLEM = dict(horizon=1.0, dim=2, terminal=lambda x: x[:, 0], nonlinearity=lambda t, x, w, z: w, lip_f=np.zeros(3),
               lip_g=np.zeros(2), exact=None, sup_f0=None, sup_u=None, deriv_ratio=None, box_radius=1.0)


# (label, callable taking keyword arguments, valid keyword arguments, {argument: accepted values}, {argument: values
# that are accepted but too costly to call}); an accepted value is named by its key in MALFORMED
CASES = [
    ("binomial", mp.binomial, dict(n=3, k=1), {"n": {"2**64"}, "k": {"2**64"}}, {}),
    ("bound_nmq", mp.bound_nmq, dict(inputs=mp.BoundInputs(**BOUND)), {}, {}),
    ("BoundInputs fields", lambda **kw: mp.bound_nmq(mp.BoundInputs(**kw)), BOUND,
     {"t0": {"negative"}, **{name: {"2**64"} for name in BOUND if name not in ("t0", "alpha")}}, {}),
    ("build_problem", mp.build_problem, dict(name="heat_quadratic", dim=2, horizon=1.0), {"horizon": {"2**64"}}, {}),
    ("build_rule", mp.build_rule, dict(order=3), {}, {}),
    ("check_request", mp.check_request, dict(POINT, replications=2, threads=1),
     {"key": {"list"}, "replications": {"None"}}, {}),
    ("constant_C", mp.constant_C, dict(T=1.0, t0=0.0, lip_f_l1=1.0),
     {"T": {"2**64"}, "t0": {"negative"}, "lip_f_l1": {"2**64"}}, {}),
    ("cost_fe_exact", mp.cost_fe_exact, dict(n=1, M=1, Q=1), {"M": {"2**64"}, "Q": {"2**64"}}, {}),
    ("cost_rn_exact", mp.cost_rn_exact, dict(n=1, M=1, Q=1, d=1), {"M": {"2**64"}, "Q": {"2**64"}, "d": {"2**64"}}, {}),
    ("discrete_fk_residual", mp.discrete_fk_residual, dict(POINT, replications=2), {"key": {"list"}}, {}),
    ("frac_moment_sum", mp.frac_moment_sum, dict(order=3, j=1), {"j": {"2**64"}}, {}),
    ("heat_quadratic", mp.heat_quadratic, dict(dim=2, horizon=1.0, box_radius=3.0),
     {"horizon": {"2**64"}, "box_radius": {"2**64"}}, {}),
    ("integrate", lambda **kw: mp.integrate(f=lambda t: t, **kw), dict(rule=mp.build_rule(2), a=0.0, b=1.0),
     {"a": {"negative"}, "b": {"2**64"}}, {}),
    ("iterated_gl_lhs", mp.iterated_gl_lhs, dict(order=3, depth=2, t0=0.0, T=1.0), {"t0": {"negative"}, "T": {"2**64"}}, {}),
    ("iterated_gl_rhs", mp.iterated_gl_rhs, dict(order=3, depth=2, t0=0.0, T=1.0), {"t0": {"negative"}, "T": {"2**64"}}, {}),
    ("iterated_gl_upper_bound", mp.iterated_gl_upper_bound, dict(k=2, span=1.0), {"k": {"2**64"}, "span": {"2**64"}}, {}),
    ("log_gamma", mp.log_gamma, dict(x=2.0), {"x": {"2**64"}}, {}),
    ("manufactured_sine", mp.manufactured_sine, dict(dim=2, horizon=1.0, c=0.5, beta=0.5, gamma=0.5),
     {"horizon": {"2**64"}, "c": {"None", "2**64"}, "beta": {"2**64"}, "gamma": {"2**64"}}, {}),
    ("mc_l2_error", mp.mc_l2_error, dict(POINT, replications=2, threads=1, counters=None),
     {"key": {"list"}, "counters": {"None"}}, {}),
    ("mlp_estimate", mp.mlp_estimate, dict(POINT, counters=None), {"key": {"list"}, "counters": {"None"}}, {}),
    ("norm_log_subadditivity_check", mp.norm_log_subadditivity_check, dict(x=[1.0, -2.0], y=[0.5, 0.25], p=2, ord=2),
     {"p": {"2**64"}, "ord": {"+inf", "2**64"}}, {}),
    ("Problem fields", mp.Problem, PROBLEM,
     {"horizon": {"2**64"}, "box_radius": {"2**64"}, "exact": {"None"},
      **{name: {"None", "2**64"} for name in ("sup_f0", "sup_u", "deriv_ratio")}}, {}),
    # names=None runs the whole self-check
    ("run_selfcheck", mp.run_selfcheck, dict(names=["iterated-sum-identity"]), {}, {"names": {"None"}}),
    ("sample_path", mp.sample_path, dict(seed=0, key=(), dimension=2, start=0.0, times=[1.0]),
     {"key": {"list"}, "start": {"negative"}, "times": {"list"}}, {}),
    ("scale_weight", mp.scale_weight, dict(rule=mp.build_rule(3), a=0.0, b=1.0, k=1), {"a": {"negative"}, "b": {"2**64"}}, {}),
]


@pytest.mark.parametrize("label, fn, base, accepted, costly", CASES, ids=[case[0] for case in CASES])
def test_malformed_argument_raises_a_typed_error(label, fn, base, accepted, costly):
    fn(**base)
    for arg in base:
        for name, value in MALFORMED.items():
            if name in costly.get(arg, ()):
                continue
            try:
                with np.errstate(over="ignore"):  # a huge p or ord overflows the norm test's powers to inf
                    fn(**{**base, arg: value})
            except (ValueError, mp.BudgetError):
                continue
            except Exception as exc:
                pytest.fail(f"{label}({arg}={value!r}) raised {type(exc).__name__}: {exc}")
            assert name in accepted.get(arg, ()), f"{label}({arg}={value!r}) was accepted"


@pytest.mark.parametrize("label, fn, base, accepted, costly", CASES, ids=[case[0] for case in CASES])
def test_numpy_scalars_are_accepted_like_python_numbers(label, fn, base, accepted, costly):
    for arg, value in base.items():
        if type(value) in (int, float):
            fn(**{**base, arg: (np.int64 if type(value) is int else np.float64)(value)})


ARGV = {
    "--problem": "manufactured_sine", "--param": "c=0.5", "--dim": "2", "--x": "0,0", "--t0": "0.0", "--level": "1,1,1",
    "--diagonal": None, "--reps": "2", "--seed": "0", "--threads": "1", "--format": "csv",
}


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects an unparsable value with exit status 2
        return exc.code


def test_cli_malformed_values_exit_2_or_4(capsys):
    # every argv entry is a string: each malformed value as the text a user would type
    texts = ["three", "", "True", "[3]", "nan", "inf", "-inf", "-3", str(2**64), "3j", "array(3)"]
    base = {flag: value for flag, value in ARGV.items() if value is not None}
    assert main(["converge", *sum(base.items(), ())]) == 0
    for flag in ARGV:
        for text in texts:
            # --diagonal replaces --level, since passing both is already an error; --out is a free-form path
            args = {**{k: v for k, v in base.items() if not (flag == "--diagonal" and k == "--level")}, flag: text}
            if flag == "--param":
                args[flag] = f"c={text}"
            code = _exit_code(["converge", *sum(args.items(), ())])
            # c = 2^64 is finite: the problem builds, and its overflowing bound inputs read n/a
            expected = (0,) if (flag, text) == ("--param", str(2**64)) else (2, 4)
            assert code in expected, f"converge {flag} {args[flag]!r} exited {code}"
        capsys.readouterr()
    for text in texts:
        assert _exit_code(["selfcheck", "--only", text]) == 2
