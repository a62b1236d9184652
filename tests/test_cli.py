"""Command-line interface: subcommands, exit codes, file outputs."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from elliplrt import cli
from elliplrt.inference import FIT_EVALS

SRC = Path(__file__).resolve().parent.parent / "src"

SIM_CONFIG = {
    "model": "model1",
    "family": "normal",
    "n": 15,
    "replications": 10,
    "interest": ["beta2", "beta3"],
    "psi0": [0, 0],
    "sided": "two",
    "seed": 7,
}


@pytest.fixture
def sim_config_path(tmp_path):
    path = tmp_path / "sim.json"
    path.write_text(json.dumps(SIM_CONFIG))
    return path


@pytest.fixture
def one_dataset(tmp_path, sim_config_path):
    out = tmp_path / "one.csv"
    assert cli.main(["simulate", "--config", str(sim_config_path), "--emit-one", str(out)]) == 0
    return out


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def test_fit_roundtrip_model1(one_dataset, tmp_path):
    out = tmp_path / "fit.json"
    code = cli.main(["fit", "--model", "model1", "--family", "normal",
                     "--data", str(one_dataset), "--out", str(out)])
    assert code == 0
    blob = json.loads(out.read_text())
    assert blob["converged"] is True
    assert blob["score_norm"] < 1e-8 * (1 + abs(blob["loglik"]))
    assert blob["iterations"] < blob["evaluations"] <= FIT_EVALS
    assert set(blob["theta"]) == {"beta0", "beta1", "beta2", "beta3", "sigma2"}
    assert np.isfinite(list(blob["stderr"].values())).all()


def test_fit_roundtrip_model2(tmp_path):
    cfg = dict(SIM_CONFIG, model="model2", n=16, interest=["beta2", "beta3", "beta4"], psi0=[0, 0, 0])
    cfg_path = tmp_path / "sim2.json"
    cfg_path.write_text(json.dumps(cfg))
    data_path = tmp_path / "two.csv"
    assert cli.main(["simulate", "--config", str(cfg_path), "--emit-one", str(data_path)]) == 0
    out = tmp_path / "fit2.json"
    code = cli.main(["fit", "--model", "model2", "--family", "normal",
                     "--data", str(data_path), "--out", str(out)])
    assert code == 0
    blob = json.loads(out.read_text())
    assert blob["converged"] is True
    assert blob["score_norm"] < 1e-8 * (1 + abs(blob["loglik"]))


def test_fit_missing_column_names_it(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("unit_id,row_index,y,x1\n1,1,0.6,0.3\n")
    code = cli.main(["fit", "--model", "model1", "--family", "normal", "--data", str(bad)])
    assert code == 1
    assert "x2" in capsys.readouterr().err


def test_fit_nonconvergence_exit_code(one_dataset, monkeypatch):
    real_fit = cli.fit

    def stubborn(*args, **kwargs):
        res = real_fit(*args, **kwargs)
        res.converged = False
        return res

    monkeypatch.setattr(cli, "fit", stubborn)
    code = cli.main(["fit", "--model", "model1", "--family", "normal", "--data", str(one_dataset)])
    assert code == 2


# ---------------------------------------------------------------------------
# test
# ---------------------------------------------------------------------------


def test_test_q2_schema(one_dataset, tmp_path):
    out = tmp_path / "report.json"
    code = cli.main(["test", "--model", "model1", "--family", "normal", "--data", str(one_dataset),
                     "--interest", "beta2,beta3", "--psi0", "0,0", "--out", str(out)])
    assert code == 0
    blob = json.loads(out.read_text())
    for key in ("r", "gamma", "r_star", "p_r", "p_r_star"):
        assert key not in blob
    for key in ("LR", "LR_star", "LR_star2", "rho", "p_LR", "p_LR_star", "p_LR_star2"):
        assert key in blob
    assert isinstance(blob["flags"], list)
    assert blob["hypothesis"]["interest_indices"] == [2, 3]


def test_test_one_sided_q1(one_dataset, tmp_path):
    out = tmp_path / "report1.json"
    code = cli.main(["test", "--model", "model1", "--family", "normal", "--data", str(one_dataset),
                     "--interest", "beta3", "--sided", "lower", "--out", str(out)])
    assert code == 0
    blob = json.loads(out.read_text())
    assert "r" in blob and "r_star" in blob and "gamma" in blob


def test_test_one_sided_with_vector_interest_rejected(one_dataset, capsys):
    code = cli.main(["test", "--model", "model1", "--family", "normal", "--data", str(one_dataset),
                     "--interest", "beta2,beta3", "--sided", "lower"])
    assert code == 1
    assert "scalar" in capsys.readouterr().err


def test_test_unknown_parameter_name(one_dataset, capsys):
    code = cli.main(["test", "--model", "model1", "--family", "normal", "--data", str(one_dataset),
                     "--interest", "beta9"])
    assert code == 1
    assert "beta9" in capsys.readouterr().err


@pytest.mark.parametrize(
    "interest, psi0, match",
    [("7", "0", "out of range"), ("-1", "0", "out of range"), ("sigma2", "-1", "must be positive")],
    ids=["index_past_p", "negative_index", "nonpositive_variance"],
)
def test_test_hypothesis_outside_model_is_input_error(one_dataset, capsys, interest, psi0, match):
    code = cli.main(["test", "--model", "model1", "--family", "normal", "--data", str(one_dataset),
                     f"--interest={interest}", f"--psi0={psi0}"])
    assert code == 1
    assert match in capsys.readouterr().err


def test_family_shape_validation(one_dataset, capsys):
    code = cli.main(["fit", "--model", "model1", "--family", "student_t", "--data", str(one_dataset)])
    assert code == 1
    assert "nu" in capsys.readouterr().err


@pytest.mark.parametrize("family, match", [
    (["--family", "normal", "--nu", "4"], "the normal family takes no nu"),
    (["--family", "normal", "--lambda", "0.5"], "the normal family takes no lambda"),
    (["--family", "student_t", "--nu", "inf"], "student_t requires a finite nu > 0"),
    (["--family", "power_exponential", "--lambda", "nan"], "power_exponential requires a finite lambda > 0"),
], ids=["normal_with_nu", "normal_with_lambda", "infinite_nu", "nan_lambda"])
def test_family_shape_outside_its_domain_is_input_error(one_dataset, capsys, family, match):
    code = cli.main(["fit", "--model", "model1", *family, "--data", str(one_dataset)])
    assert code == 1
    assert match in capsys.readouterr().err


# ---------------------------------------------------------------------------
# simulate + discrepancy
# ---------------------------------------------------------------------------


def test_simulate_writes_csvs_and_reproduces(tmp_path, sim_config_path):
    s1, p1 = tmp_path / "s1.csv", tmp_path / "p1.csv"
    s2, p2 = tmp_path / "s2.csv", tmp_path / "p2.csv"
    assert cli.main(["simulate", "--config", str(sim_config_path),
                     "--out-summary", str(s1), "--out-pvalues", str(p1)]) == 0
    assert cli.main(["simulate", "--config", str(sim_config_path), "--threads", "2",
                     "--out-summary", str(s2), "--out-pvalues", str(p2)]) == 0
    assert s1.read_bytes() == s2.read_bytes()
    assert p1.read_bytes() == p2.read_bytes()
    # stderr column is recomputable from rate and reps
    rows = s1.read_text().splitlines()[1:]
    for row in rows:
        _, _, rate, stderr, reps, _ = row.split(",")
        rate, stderr, reps = float(rate), float(stderr), int(reps)
        assert stderr == pytest.approx(np.sqrt(rate * (1 - rate) / reps), abs=1e-15)


def test_simulate_seed_override_changes_output(tmp_path, sim_config_path):
    sA, pA = tmp_path / "sA.csv", tmp_path / "pA.csv"
    sB, pB = tmp_path / "sB.csv", tmp_path / "pB.csv"
    assert cli.main(["simulate", "--config", str(sim_config_path), "--seed", "7",
                     "--out-summary", str(sA), "--out-pvalues", str(pA)]) == 0
    assert cli.main(["simulate", "--config", str(sim_config_path), "--seed", "8",
                     "--out-summary", str(sB), "--out-pvalues", str(pB)]) == 0
    assert pA.read_bytes() != pB.read_bytes()


def test_discrepancy_cli(tmp_path, sim_config_path):
    s1, p1 = tmp_path / "s.csv", tmp_path / "p.csv"
    cli.main(["simulate", "--config", str(sim_config_path), "--out-summary", str(s1), "--out-pvalues", str(p1)])
    out = tmp_path / "disc.csv"
    assert cli.main(["discrepancy", "--in", str(p1), "--stat", "LR**", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "asymptotic_p,relative_discrepancy"
    assert len(lines) == 26  # header + the 0.01..0.25 grid
    code = cli.main(["discrepancy", "--in", str(p1), "--stat", "r", "--out", str(out)])
    assert code == 1  # r not recorded for a q=2 run


@pytest.mark.parametrize("body, line", [
    ("rank,LR\n1,0.5\n2\n", 3),
    ("rank,LR\n1,0.5\n2,0.5,0.7\n", 3),
    ("rank,LR\n1,low\n", 2),
], ids=["short", "long", "non_numeric"])
def test_discrepancy_malformed_pvalues_row_is_input_error(tmp_path, capsys, body, line):
    bad = tmp_path / "bad.csv"
    bad.write_text(body)
    assert cli.main(["discrepancy", "--in", str(bad), "--stat", "LR", "--out", str(tmp_path / "d.csv")]) == 1
    assert capsys.readouterr().err.strip() == f"error: {bad}, line {line}: expected 2 numbers"
    assert not (tmp_path / "d.csv").exists()


def test_discrepancy_pvalue_outside_the_unit_interval_is_input_error(tmp_path, capsys):
    # the NaN used to count in the sample size
    bad = tmp_path / "bad.csv"
    bad.write_text("rank,LR,LR**\n1,0.01,0.02\n2,nan,0.5\n3,0.7,1.5\n")
    assert cli.main(["discrepancy", "--in", str(bad), "--stat", "LR", "--out", str(tmp_path / "d.csv")]) == 1
    assert capsys.readouterr().err.strip() == f"error: {bad}, line 3: LR p-value nan is not in [0, 1]"
    assert not (tmp_path / "d.csv").exists()


def test_simulate_config_with_a_boolean_shape_is_input_error(tmp_path, capsys):
    # JSON true used to read as the number 1; this config exited 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(SIM_CONFIG, family="student_t", nu=True, interest=[True], psi0=[0.2])))
    assert cli.main(["simulate", "--config", str(bad), "--emit-one", str(tmp_path / "x.csv")]) == 1
    assert capsys.readouterr().err.startswith("error: interest must not hold a boolean")
    bad.write_text(json.dumps(dict(SIM_CONFIG, family="student_t", nu=True)))
    assert cli.main(["simulate", "--config", str(bad), "--emit-one", str(tmp_path / "x.csv")]) == 1
    assert capsys.readouterr().err.startswith("error: student_t requires a finite nu > 0, got True")
    assert not (tmp_path / "x.csv").exists()


def test_simulate_config_with_a_shape_its_family_does_not_take_names_the_key(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(SIM_CONFIG, family="normal", **{"lambda": 0.5})))
    assert cli.main(["simulate", "--config", str(bad), "--emit-one", str(tmp_path / "x.csv")]) == 1
    assert capsys.readouterr().err.strip() == "error: the normal family takes no lambda, got 0.5"
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("key, value", [("n", 15.7), ("seed", 7.5), ("interest", [2.9]),
                                        ("interest", 3), ("psi0", 0.0), ("seed", True), ("replications", True),
                                        ("interest", [True]), ("psi0", [True, 0]), ("alpha_levels", [])])
def test_simulate_config_value_of_the_wrong_kind_is_input_error_naming_its_key(tmp_path, capsys, key, value):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(SIM_CONFIG, **{key: value})))
    assert cli.main(["simulate", "--config", str(bad), "--emit-one", str(tmp_path / "x.csv")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {key}")
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("true_theta", [[0.5, 0.2, 0, 0, -0.005], [-1, 0, 0, 0, 0.005]])
def test_simulate_true_theta_outside_the_model_is_input_error(tmp_path, capsys, true_theta):
    # a negative sigma2 and a mean on its pole; both used to fail as "observation 0"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(SIM_CONFIG, true_theta=true_theta)))
    assert cli.main(["simulate", "--config", str(bad), "--emit-one", str(tmp_path / "x.csv")]) == 1
    assert capsys.readouterr().err.startswith("error: true_theta")
    assert not (tmp_path / "x.csv").exists()


def test_simulate_config_validation(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(SIM_CONFIG, extra_key=1)))
    assert cli.main(["simulate", "--config", str(bad), "--emit-one", str(tmp_path / "x.csv")]) == 1
    assert "extra_key" in capsys.readouterr().err
    bad.write_text("{not json")
    assert cli.main(["simulate", "--config", str(bad), "--emit-one", str(tmp_path / "x.csv")]) == 1


def test_test_exit_code_on_fit_failure(one_dataset, monkeypatch, capsys):
    from elliplrt.inference import StageError

    def exploding(*args, **kwargs):
        raise StageError("unrestricted_fit", "forced")

    monkeypatch.setattr(cli, "run_test", exploding)
    code = cli.main(["test", "--model", "model1", "--family", "normal", "--data", str(one_dataset),
                     "--interest", "beta3"])
    assert code == 2
    assert "unrestricted_fit" in capsys.readouterr().err


def test_every_config_field_is_a_config_key():
    # the worker count changes no output, so it is a setting of the run and not of the config
    fields = {f.name for f in dataclasses.fields(cli.SimulationConfig)}
    assert set(cli._CONFIG_KEYS.values()) == fields and "threads" not in fields


def test_threads_option_reaches_run_simulation(monkeypatch, sim_config_path, tmp_path):
    seen = []

    def record(config, threads):
        seen.append(threads)
        raise cli.SimulationError("stop")

    monkeypatch.setattr(cli, "run_simulation", record)
    sim = ["simulate", "--config", str(sim_config_path), "--out-summary", str(tmp_path / "s.csv"),
           "--out-pvalues", str(tmp_path / "p.csv")]
    assert cli.main([*sim, "--threads", "2"]) == cli.main(sim) == 2
    assert seen == [2, 1]


def test_console_script_entry_point(tmp_path, sim_config_path):
    out = tmp_path / "one.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "elliplrt.cli", "simulate", "--config", str(sim_config_path),
         "--emit-one", str(out)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)),
    )
    assert proc.returncode == 0
    assert out.exists()


# ---------------------------------------------------------------------------
# input errors the library reports: exit 1 with a named reason
# ---------------------------------------------------------------------------


@pytest.fixture
def three_units(tmp_path):
    path = tmp_path / "three.csv"
    path.write_text("unit_id,row_index,y,x1,x2\n1,1,0.6,0.3,0.2\n2,1,0.7,0.5,0.1\n3,1,0.5,0.9,0.4\n")
    return path


@pytest.mark.parametrize("command", [["fit"], ["test", "--interest", "beta3"]], ids=["fit", "test"])
def test_fewer_units_than_parameters_is_input_error(three_units, capsys, command):
    code = cli.main([*command, "--model", "model1", "--family", "normal", "--data", str(three_units)])
    assert code == 1
    assert "p=5" in capsys.readouterr().err


def test_fit_start_of_wrong_length_is_input_error(one_dataset, capsys):
    code = cli.main(["fit", "--model", "model1", "--family", "normal", "--data", str(one_dataset),
                     "--start", "1,2"])
    assert code == 1
    assert "start" in capsys.readouterr().err


def test_fit_start_that_is_not_finite_is_input_error(one_dataset, capsys):
    code = cli.main(["fit", "--model", "model1", "--family", "normal", "--data", str(one_dataset),
                     "--start=nan,0.2,0,0,0.005"])
    assert code == 1
    assert "start must be finite" in capsys.readouterr().err


def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=reject)


def test_fit_writes_nonfinite_numbers_as_null(tmp_path, capsys):
    # a start at sigma2 = 1e-300 leaves a fit whose standard errors are NaN
    cfg = {"model": "model1", "family": "student_t", "nu": 3, "n": 15, "interest": [3],
           "sided": "lower", "seed": 31415}
    cfg_path = tmp_path / "t3.json"
    cfg_path.write_text(json.dumps(cfg))
    data = tmp_path / "d.csv"
    assert cli.main(["simulate", "--config", str(cfg_path), "--emit-one", str(data)]) == 0
    capsys.readouterr()
    code = cli.main(["fit", "--model", "model1", "--family", "student_t", "--nu", "3", "--data", str(data),
                     "--start=0.5,0.2,0,0,1e-300"])
    assert code == 2
    blob = _strict_json(capsys.readouterr().out)
    assert set(blob["stderr"]) == {"beta0", "beta1", "beta2", "beta3", "sigma2"}
    assert all(v is None for v in blob["stderr"].values())


def test_emit_writes_every_nonfinite_float_as_null(capsys):
    cli._emit(None, {"a": [1.5, np.nan, (np.inf, -np.inf)], "b": {"c": float("nan"), "d": 2}, "e": "nan"})
    assert _strict_json(capsys.readouterr().out) == {"a": [1.5, None, [None, None]], "b": {"c": None, "d": 2},
                                                     "e": "nan"}


def test_fit_data_that_is_not_finite_is_input_error(tmp_path, capsys):
    bad = tmp_path / "nan.csv"
    bad.write_text("unit_id,row_index,y,x1,x2\n" + "".join(f"{i},1,{0.6 if i != 4 else 'nan'},0.3,0.{i}\n"
                                                         for i in range(1, 9)))
    code = cli.main(["fit", "--model", "model1", "--family", "normal", "--data", str(bad)])
    assert code == 1
    # reported by the CSV's line and unit, not as "observation 3"
    assert capsys.readouterr().err == f"error: {bad}: row 5: unit 4: y must be finite, got nan\n"


def test_fit_data_with_a_fractional_group_is_input_error(tmp_path, capsys):
    bad = tmp_path / "group.csv"
    bad.write_text("unit_id,row_index,y,time,group\n" + "".join(
        f"{i},{j},{0.1 * i + j},{5 * j},{2.5 if i == 3 else i % 4 + 1}\n" for i in range(1, 13) for j in (1, 2)))
    code = cli.main(["fit", "--model", "model2", "--family", "normal", "--data", str(bad)])
    assert code == 1
    assert "row 6: unit 3: group 2.5 is not an integer" in capsys.readouterr().err


def test_fit_data_with_a_repeated_row_index_is_input_error(tmp_path, capsys):
    bad = tmp_path / "rows.csv"
    bad.write_text("unit_id,row_index,y,time,group\n" + "".join(
        f"{i},{1 if i == 5 else j},{0.1 * i + j},{5 * j},{i % 4 + 1}\n" for i in range(1, 13) for j in (1, 2)))
    code = cli.main(["fit", "--model", "model2", "--family", "normal", "--data", str(bad)])
    assert code == 1
    assert "row 11: unit 5: row_index 1 is repeated" in capsys.readouterr().err


def test_fit_data_with_a_two_row_model1_unit_is_input_error(tmp_path, capsys):
    bad = tmp_path / "units.csv"
    bad.write_text("unit_id,row_index,y,x1,x2\n" + "".join(f"{min(i, 7)},{i},0.6,0.3,0.{i}\n" for i in range(1, 9)))
    code = cli.main(["fit", "--model", "model1", "--family", "normal", "--data", str(bad)])
    assert code == 1
    assert f"{bad}: row 9: unit 7: model1 units must have one row; this one has 2" in capsys.readouterr().err


def test_fit_start_where_the_mean_is_infinite_is_no_input_error(tmp_path):
    # 1 + beta0 = 0 at this start, so mu and the Newton matrix there are not finite
    cfg = dict(model="model1", family="student_t", nu=3.0, n=15, interest=[3], sided="lower", seed=31415)
    cfg_path, data = tmp_path / "t3.json", tmp_path / "t3.csv"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["simulate", "--config", str(cfg_path), "--emit-one", str(data)]) == 0
    code = cli.main(["fit", "--model", "model1", "--family", "student_t", "--nu", "3", "--data", str(data),
                     "--start=-1,0,0,0,0.01", "--out", str(tmp_path / "fit.json")])
    assert code in (0, 2)


@pytest.mark.parametrize("n", [3, 0, -2])
def test_simulate_with_n_not_above_p_is_input_error(tmp_path, capsys, n):
    cfg = tmp_path / "small.json"
    cfg.write_text(json.dumps(dict(SIM_CONFIG, n=n)))
    code = cli.main(["simulate", "--config", str(cfg), "--out-summary", str(tmp_path / "s.csv"),
                     "--out-pvalues", str(tmp_path / "p.csv")])
    assert code == 1
    assert f"n must be >= 6, got {n}" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_simulate_threads_below_one_is_input_error(tmp_path, sim_config_path, capsys, threads):
    code = cli.main(["simulate", "--config", str(sim_config_path), "--threads", threads,
                     "--out-summary", str(tmp_path / "s.csv"), "--out-pvalues", str(tmp_path / "p.csv")])
    assert code == 1
    assert "threads" in capsys.readouterr().err


def test_integer_fields_written_as_floats_give_the_same_csvs(tmp_path):
    ints = dict(SIM_CONFIG, replications=8, max_refit_attempts=10)
    floats = {k: float(v) if isinstance(v, int) else v for k, v in ints.items()}
    assert isinstance(floats["n"], float) and isinstance(floats["seed"], float)
    outputs = []
    for tag, cfg in (("int", ints), ("float", floats)):
        cfg_path, s, p = tmp_path / f"{tag}.json", tmp_path / f"{tag}.s.csv", tmp_path / f"{tag}.p.csv"
        cfg_path.write_text(json.dumps(cfg))
        assert cli.main(["simulate", "--config", str(cfg_path), "--out-summary", str(s), "--out-pvalues", str(p)]) == 0
        outputs.append((s.read_bytes(), p.read_bytes()))
    assert outputs[0] == outputs[1]
