import csv
import json
import warnings

import pytest

import mlpicard.quadrature as quadrature
from mlpicard.cli import COLUMNS, main
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


def test_config_errors_exit_2(tmp_path):
    out = tmp_path / "x.csv"
    assert main(converge_args(out, "--param", "beta")) == 2  # malformed key=value
    assert main(["converge", "--problem", "nope", "--level", "1,2,2", "--out", str(out)]) == 2
    assert main(converge_args(out, "--x", "1,2,3")) == 2  # wrong dimension
    assert main(["converge", "--problem", "manufactured_sine", "--dim", "1", "--out", str(out)]) == 2  # no levels
    assert main(converge_args(out, "--reps", "1")) == 2
    assert main(converge_args(out, "--t0", "2.0")) == 2
    assert main(converge_args(out, "--level", "1,2,2", "--diagonal", "2")) == 2
    assert main(converge_args(out, "--seed", "-1")) == 2


def test_budget_exceeded_exits_4(tmp_path):
    out = tmp_path / "x.csv"
    assert main(converge_args(out, "--level", "8,8,8")) == 4
    assert not out.exists()


def test_seed_environment_precedence(tmp_path, monkeypatch):
    env_run, flag_run, default_run = tmp_path / "e.csv", tmp_path / "f.csv", tmp_path / "d.csv"
    base = [
        "converge",
        "--problem",
        "manufactured_sine",
        "--dim",
        "1",
        "--level",
        "1,2,2",
        "--reps",
        "24",
        "--reproducible",
    ]
    monkeypatch.setenv("MLP_SEED", "5")
    assert main(base + ["--out", str(env_run)]) == 0
    assert main(base + ["--out", str(flag_run), "--seed", "9"]) == 0
    monkeypatch.delenv("MLP_SEED")
    assert main(base + ["--out", str(default_run), "--seed", "5"]) == 0
    assert env_run.read_bytes() == default_run.read_bytes()
    assert env_run.read_bytes() != flag_run.read_bytes()
    monkeypatch.setenv("MLP_SEED", "not-a-number")
    assert main(base + ["--out", str(env_run)]) == 2


def test_selfcheck_passes_on_fresh_build(capsys):
    assert main(["selfcheck"]) == 0
    out = capsys.readouterr().out
    assert "[FAIL]" not in out
    assert out.count("[PASS]") == len(available_checks())


def test_selfcheck_only_filter(capsys):
    assert main(["selfcheck", "--only", "gl-rule-invariants"]) == 0
    assert capsys.readouterr().out.count("[PASS]") == 1
    assert main(["selfcheck", "--only", "no-such-check"]) == 2


def test_selfcheck_empty_selection_is_vacuous_with_warning():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        results = run_selfcheck([])
    assert results == []
    assert any("nothing was verified" in str(w.message) for w in caught)


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
