import csv
import json
import re
import warnings

import pytest

import mlpicard.mlp_core as mlp_core
import mlpicard.quadrature as quadrature
from mlpicard.cli import COLUMNS, main, write_rows
from mlpicard.errors import ConfigError
from mlpicard.selfcheck import available_checks, run_selfcheck


def converge_args(out, *extra):
    return [
        "converge",
        "--problem",
        "manufactured_sine",
        "--dim",
        "1",
        "--level",
        "1,2,2",
        "--level",
        "2,2,2",
        "--reps",
        "24",
        "--seed",
        "5",
        "--out",
        str(out),
        *extra,
    ]


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_csv_schema_and_cost_columns(tmp_path):
    out = tmp_path / "table.csv"
    assert main(converge_args(out)) == 0
    rows = read_rows(out)
    assert list(rows[0].keys()) == list(COLUMNS)
    assert len(rows) == 2
    for row in rows:
        assert row["rn_obs"] == row["rn_pred"]
        assert row["fe_obs"] == row["fe_pred"]
        assert float(row["err_value"]) > 0.0


def test_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(converge_args(a, "--reproducible")) == 0
    assert main(converge_args(b, "--reproducible")) == 0
    assert a.read_bytes() == b.read_bytes()


def test_byte_identical_across_thread_counts(tmp_path):
    a, b = tmp_path / "t1.csv", tmp_path / "t4.csv"
    assert main(converge_args(a, "--reproducible", "--threads", "1")) == 0
    assert main(converge_args(b, "--reproducible", "--threads", "4")) == 0
    assert a.read_bytes() == b.read_bytes()


def test_wall_time_is_the_only_unstable_field(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(converge_args(a)) == 0
    assert main(converge_args(b, "--threads", "2")) == 0
    for ra, rb in zip(read_rows(a), read_rows(b)):
        for column in COLUMNS:
            if column != "wall_ms":
                assert ra[column] == rb[column]


def test_reference_csvs_do_not_depend_on_lane_chunks(tmp_path, monkeypatch):
    # caps that run the top level in chunks of 1, 7 and 64 lanes, and the default
    default = mlp_core._LANE_CAP
    heat = ["--problem", "heat_quadratic", "--dim", "10", "--level", "3,3,3", "--threads", "2", "--x", "random-in-box"]
    for args, block in ((["--diagonal", "3", "--seed", "701"], 3**3 * 3 * 2), ([*heat, "--seed", "9"], 3**3 * 3 * 10)):
        outputs = []
        for cap in (default, block, 7 * block, 64 * block):
            monkeypatch.setattr(mlp_core, "_LANE_CAP", cap)
            out = tmp_path / "table.csv"
            assert main(["converge", *args, "--reproducible", "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs == outputs[:1] * 4


def test_json_mirrors_csv(tmp_path):
    csv_out, json_out = tmp_path / "t.csv", tmp_path / "t.json"
    assert main(converge_args(csv_out, "--reproducible")) == 0
    assert main(converge_args(json_out, "--reproducible", "--format", "json")) == 0
    csv_rows = read_rows(csv_out)
    json_rows = json.loads(json_out.read_text())
    assert [list(r.keys()) for r in json_rows] == [list(COLUMNS)] * len(csv_rows)
    for rc, rj in zip(csv_rows, json_rows):
        for column in COLUMNS:
            assert rc[column] == str(rj[column])


def test_diagonal_expands_levels(tmp_path):
    out = tmp_path / "diag.csv"
    code = main(
        [
            "converge",
            "--problem",
            "heat_quadratic",
            "--dim",
            "2",
            "--x",
            "1,1",
            "--diagonal",
            "2",
            "--reps",
            "16",
            "--seed",
            "1",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rows = read_rows(out)
    assert [(r["n"], r["M"], r["Q"]) for r in rows] == [("1", "1", "1"), ("2", "2", "2")]


def test_random_in_box_is_seed_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = lambda out: converge_args(out, "--reproducible", "--x", "random-in-box")
    assert main(args(a)) == 0
    assert main(args(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_param_override_changes_results(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(converge_args(a, "--reproducible")) == 0
    assert main(converge_args(b, "--reproducible", "--param", "beta=0.0", "--param", "gamma=0.0")) == 0
    assert a.read_bytes() != b.read_bytes()


def test_stdout_output_when_no_out_path(capsys):
    code = main(
        [
            "converge",
            "--problem",
            "manufactured_sine",
            "--dim",
            "1",
            "--level",
            "1,2,2",
            "--reps",
            "8",
            "--seed",
            "2",
            "--reproducible",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == ",".join(COLUMNS)
    assert len(out.splitlines()) == 2


def test_config_errors_exit_2(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(converge_args(out, "--param", "beta")) == 2  # malformed key=value
    assert main(["converge", "--problem", "nope", "--level", "1,2,2", "--out", str(out)]) == 2
    assert main(converge_args(out, "--x", "1,2,3")) == 2  # wrong dimension
    assert main(["converge", "--problem", "manufactured_sine", "--dim", "1", "--out", str(out)]) == 2  # no levels
    assert main(converge_args(out, "--reps", "1")) == 2
    assert main(converge_args(out, "--t0", "2.0")) == 2
    assert main(converge_args(out, "--level", "1,2,2", "--diagonal", "2")) == 2
    assert main(converge_args(out, "--seed", "-1")) == 2
    assert main(converge_args(out, "--param", "foo=1")) == 2  # unknown parameter
    assert main(converge_args(out, "--param", "c=-1")) == 2
    assert main(converge_args(out, "--param", "horizon=0")) == 2
    assert main(converge_args(out, "--x", "1,nan")) == 2
    assert main(converge_args(out, "--level", "3,3,70")) == 2  # Q above 64
    assert main(converge_args(out, "--level", "1,x,2")) == 2  # not an integer
    assert main(converge_args(out, "--param", "c=nan")) == 2
    assert main(converge_args(out, "--problem", "heat_quadratic", "--param", "box_radius=inf")) == 2
    for key in ("dim", "name"):  # build_problem's own keywords
        assert main(converge_args(out, "--param", f"{key}=3")) == 2
        assert f"--param cannot set ['{key}']" in capsys.readouterr().err
    assert not out.exists()


def test_bad_level_fails_before_any_sampling(tmp_path, monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("a level was sampled before every level passed the guard")

    monkeypatch.setattr("mlpicard.cli.mc_l2_error", no_sampling)
    out = tmp_path / "x.csv"
    assert main(converge_args(out, "--level", "3,3,70")) == 2
    assert main(converge_args(out, "--level", "7,2,2")) == 4
    assert main(converge_args(out, "--param", "c=nan")) == 2
    assert not out.exists()


def test_unusable_out_fails_before_any_sampling(tmp_path, monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("a level was sampled before --out was checked")

    monkeypatch.setattr("mlpicard.cli.mc_l2_error", no_sampling)
    assert main(converge_args(tmp_path / "missing" / "x.csv")) == 2
    assert main(converge_args(tmp_path)) == 2
    assert list(tmp_path.iterdir()) == []


def test_write_rows_checks_format_and_path(tmp_path):
    with pytest.raises(ConfigError, match="^format must be csv or json, got 'xml'$"):
        write_rows([], "xml", None)
    with pytest.raises(ConfigError, match="^cannot write"):
        write_rows([], "csv", str(tmp_path))


def test_overflowing_bound_inputs_run_with_bound_na(tmp_path):
    out = tmp_path / "x.csv"
    base = ["converge", "--level", "1,1,1", "--reps", "2", "--out", str(out)]
    heat, sine = ["--problem", "heat_quadratic", "--param", "box_radius=1e200"], ["--dim", "8000", "--param", "c=0.5"]
    for extra in (heat, sine):
        assert main(base + extra) == 0
        assert [row["bound"] for row in read_rows(out)] == ["n/a"]


def test_overflowed_bound_is_strict_json(tmp_path):
    # M = 1000 overflows the bound to inf; strict JSON has no Infinity, so it is written as the CSV writes it
    out = tmp_path / "x.json"
    assert main(["converge", "--level", "1,1000,1", "--reps", "2", "--format", "json", "--out", str(out)]) == 0

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    (row,) = json.loads(out.read_text(), parse_constant=reject)
    assert row["bound"] == "inf"


def test_budget_exceeded_exits_4(tmp_path):
    out = tmp_path / "x.csv"
    assert main(converge_args(out, "--level", "8,8,8")) == 4
    assert not out.exists()


def test_non_finite_estimates_exit_5(tmp_path, capsys):
    # |x|^2 overflows heat's g to inf, which passes check_request but makes the estimates non-finite;
    # the overflow itself raises no numpy warning, so the error line is all that stderr holds
    out = tmp_path / "x.csv"
    args = ["converge", "--problem", "heat_quadratic", "--x", "1e200,1e200", "--level", "1,1,1", "--reps", "2"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*args, "--out", str(out)]) == 5
    assert capsys.readouterr().err.splitlines() == ["evaluation error: estimator produced non-finite components"]
    assert not out.exists()


def test_seed_defaults_to_zero(tmp_path):
    default_run, zero_run = tmp_path / "d.csv", tmp_path / "z.csv"
    base = ["converge", "--dim", "1", "--level", "1,2,2", "--reps", "24", "--reproducible"]
    assert main(base + ["--out", str(default_run)]) == 0
    assert main(base + ["--out", str(zero_run), "--seed", "0"]) == 0
    assert default_run.read_bytes() == zero_run.read_bytes()


def test_selfcheck_passes_on_fresh_build(capsys):
    assert main(["selfcheck"]) == 0
    out = capsys.readouterr().out
    assert "[FAIL]" not in out
    assert out.count("[PASS]") == len(available_checks())


def test_selfcheck_only_filter(capsys):
    assert main(["selfcheck", "--only", "gl-rule-invariants"]) == 0
    assert capsys.readouterr().out.count("[PASS]") == 1
    assert main(["selfcheck", "--only", "no-such-check"]) == 2
    # a check named twice runs once, in the order the names first appear
    assert main(["selfcheck", "--only", "cost-model", "--only", "gl-rule-invariants", "--only", "cost-model"]) == 0
    out = capsys.readouterr().out
    assert [line.split()[1] for line in out.splitlines()[:-1]] == ["cost-model:", "gl-rule-invariants:"]
    assert out.endswith("all 2 checks passed\n")


def test_selfcheck_empty_selection_is_an_error():
    with pytest.raises(ValueError, match="^unknown checks: \\[\\]; available: "):
        run_selfcheck([])


def test_selfcheck_rejects_a_bare_name():
    # a string is a sequence of characters, which would each be looked up as a check
    for names in ("cost-model", b"cost-model"):
        with pytest.raises(ValueError, match=f"^names must be a sequence of check names, got {re.escape(repr(names))}$"):
            run_selfcheck(names)


def test_selfcheck_detects_perturbed_scaling(monkeypatch, capsys):
    # fault injection: scaling one side's weights by (1 + 1e-6) must trip
    # the iterated-integration identity check
    original = quadrature.scale_weight

    def crooked(rule, a, b, k):
        node, weight = original(rule, a, b, k)
        return node, weight * (1.0 + 1e-6)

    monkeypatch.setattr(quadrature, "scale_weight", crooked)
    assert main(["selfcheck", "--only", "gl-iterated-identity"]) == 3
    assert "[FAIL] gl-iterated-identity" in capsys.readouterr().out
