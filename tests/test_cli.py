"""Command-line surface tests: flags, exit codes, determinism, file formats."""

import argparse
import csv
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import relaysec
import relaysec.validation
from relaysec import estimate_outage, eve_intercept_exact, expected_jammers
from relaysec.channel import gain
from relaysec.cli import (EXIT_INFEASIBLE, EXIT_OK, EXIT_USAGE, EXIT_VALIDATION,
                          SWEEP_COLUMNS, _build_parser, main)
from relaysec.validation import CheckResult


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


BOUNDS_ARGS = ["bounds", "--n", "101", "--m", "1", "--gamma-r", "1",
               "--gamma-e", "1", "--eps-s", "0.5", "--eps-t", "0.5"]


class TestBounds:
    def test_desk_example(self, capsys):
        code, out, _ = run_cli(capsys, *BOUNDS_ARGS)
        assert code == EXIT_OK
        report = json.loads(out)["report"]
        assert report["tau_min"] == pytest.approx(0.017874331346664545, rel=1e-9)
        assert report["tau_max"] == pytest.approx(0.05887050112577374, rel=1e-9)
        assert report["feasible"] is True

    def test_single_relay_floor_zero_and_infeasible_exit(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--n", "1", "--m", "1",
                               "--gamma-r", "1", "--gamma-e", "1",
                               "--eps-s", "0.3", "--eps-t", "0.3")
        assert code == EXIT_INFEASIBLE
        report = json.loads(out)["report"]
        assert report["m_max_t3_floor"] == 0
        assert report["feasible"] is False

    def test_missing_gamma_r_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["bounds", "--n", "101", "--m", "1", "--gamma-e", "1",
                  "--eps-s", "0.5", "--eps-t", "0.5"])
        assert err.value.code == EXIT_USAGE

    def test_unknown_flag_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(BOUNDS_ARGS + ["--frequency", "2.4"])
        assert err.value.code == EXIT_USAGE

    def test_unread_flag_usage_error(self, capsys):
        # bounds reads no seed: the flag is refused, not ignored
        with pytest.raises(SystemExit) as err:
            main(BOUNDS_ARGS + ["--seed", "3"])
        assert err.value.code == EXIT_USAGE
        assert "--seed" in capsys.readouterr().err

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, *BOUNDS_ARGS, "--format", "csv")
        assert code == EXIT_OK
        header, row = out.strip().splitlines()
        assert header.split(",")[0] == "n"
        assert len(header.split(",")) == len(row.split(","))

    @pytest.mark.parametrize("eps_s", ["0.3", "1"])
    def test_zero_eps_t_prints_no_negative_zero(self, capsys, eps_s):
        # tau_max, tau_used and (at eps_s = 1) tau_min are exact zeros here
        code, out, _ = run_cli(capsys, "bounds", "--n", "11", "--m", "1", "--gamma-r", "1",
                               "--gamma-e", "1", "--eps-s", eps_s, "--eps-t", "0")
        assert code in (EXIT_OK, EXIT_INFEASIBLE)
        assert json.loads(out)["report"]["tau_max"] == 0.0
        assert re.search(r"-0(?![.\d])", out) is None
        code, out, _ = run_cli(capsys, "sweep", "--param", "n", "--values", "2,11",
                               "--outputs", "bounds", "--m", "1", "--gamma-r", "1",
                               "--gamma-e", "1", "--eps-s", eps_s, "--eps-t", "0")
        assert code == EXIT_OK
        cells = [c for line in out.strip().splitlines()[1:] for c in line.split(",")]
        assert "0" in cells and "-0" not in cells


SIM_ARGS = ["simulate", "--protocol", "random", "--tau-policy", "manual",
            "--tau", "0.1", "--noise-mode", "interference-limited",
            "--n", "11", "--m", "1", "--gamma-r", "1", "--gamma-e", "1",
            "--trials", "3000", "--seed", "7"]


# the output schema, written out: a renamed or reordered field must fail here
RESULT_FIELDS = (
    "trials,seed,legs,"
    "p_t_hop1,p_t_hop1_ci_lo,p_t_hop1_ci_hi,p_t_hop2,p_t_hop2_ci_lo,p_t_hop2_ci_hi,"
    "p_t_e2e,p_t_e2e_ci_lo,p_t_e2e_ci_hi,p_s_hop1,p_s_hop1_ci_lo,p_s_hop1_ci_hi,"
    "p_s_hop2,p_s_hop2_ci_lo,p_s_hop2_ci_hi,p_s_e2e,p_s_e2e_ci_lo,p_s_e2e_ci_hi,"
    "p_eve_single_hop1,p_eve_single_hop1_ci_lo,p_eve_single_hop1_ci_hi,"
    "mean_jammers_hop1,corr_t_hops,corr_s_hops")
SWEEP_HEADER = (
    "swept_value,m_max_t1,m_max_t3,tau_min,tau_max,feasible,"
    "p_t_hop1,p_t_hop1_ci_lo,p_t_hop1_ci_hi,p_t_hop2,p_t_hop2_ci_lo,p_t_hop2_ci_hi,"
    "p_t_e2e,p_t_e2e_ci_lo,p_t_e2e_ci_hi,p_s_hop1,p_s_hop1_ci_lo,p_s_hop1_ci_hi,"
    "p_s_hop2,p_s_hop2_ci_lo,p_s_hop2_ci_hi,p_s_e2e,p_s_e2e_ci_lo,p_s_e2e_ci_hi,"
    "p_eve_single_hop1,p_eve_single_hop1_ci_lo,p_eve_single_hop1_ci_hi,"
    "jain_index,status")


def test_output_schema(capsys):
    _, out, _ = run_cli(capsys, *SIM_ARGS, "--format", "json")
    assert set(json.loads(out)["result"]) == set(RESULT_FIELDS.split(","))
    _, out, _ = run_cli(capsys, *SIM_ARGS, "--format", "csv")
    assert out.splitlines()[0] == RESULT_FIELDS
    _, out, _ = run_cli(capsys, *TestSweep.BASE)
    assert out.splitlines()[0] == SWEEP_HEADER


class TestSimulate:
    def test_deterministic_output_bytes(self, capsys):
        code1, out1, _ = run_cli(capsys, *SIM_ARGS)
        code2, out2, _ = run_cli(capsys, *SIM_ARGS)
        assert code1 == code2 == EXIT_OK
        assert out1 == out2

    def test_output_round_trips(self, capsys):
        _, out, _ = run_cli(capsys, *SIM_ARGS)
        doc = json.loads(out)
        from relaysec.serialize import dumps
        assert json.loads(dumps(doc, indent=2)) == doc

    def test_echoes_resolved_defaults(self, capsys):
        _, out, _ = run_cli(capsys, *SIM_ARGS)
        doc = json.loads(out)
        assert doc["config"]["es"] == 1.0
        assert doc["config"]["coherence_len"] == 1
        assert doc["protocol"]["tau_resolved"] == 0.1

    def test_eve_intercept_oracle(self, capsys):
        args = [a if a != "3000" else "20000" for a in SIM_ARGS]
        _, out, _ = run_cli(capsys, *args)
        res = json.loads(out)["result"]
        exact = eve_intercept_exact(11, 1.0, 0.1)
        assert res["p_eve_single_hop1_ci_lo"] <= exact <= res["p_eve_single_hop1_ci_hi"]

    def test_no_eavesdroppers_zero_secrecy(self, capsys):
        args = list(SIM_ARGS)
        args[args.index("--m") + 1] = "0"
        _, out, _ = run_cli(capsys, *args)
        assert json.loads(out)["result"]["p_s_e2e"] == 0.0

    def test_infeasible_policy_exit_3(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--protocol", "random",
                               "--tau-policy", "theorem2-max", "--n", "2", "--m", "10",
                               "--gamma-r", "1", "--gamma-e", "1", "--eps-s", "0.1",
                               "--eps-t", "0.5", "--trials", "10", "--seed", "1")
        assert code == EXIT_INFEASIBLE
        assert "infeasible" in err

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = {"n": 11, "m": 1, "gamma_r": 1.0, "gamma_e": 1.0,
               "noise_mode": "interference-limited", "kind": "random-uniform",
               "tau_policy": "manual", "tau": 0.1, "trials": 500, "seed": 3}
        path = tmp_path / "two_hop.json"
        path.write_text(json.dumps(cfg))
        _, out, _ = run_cli(capsys, "simulate", "--config", str(path))
        doc = json.loads(out)
        assert doc["config"]["n"] == 11 and doc["result"]["trials"] == 500
        _, out2, _ = run_cli(capsys, "simulate", "--config", str(path), "--m", "2")
        assert json.loads(out2)["config"]["m"] == 2

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 3, "bandwidth": 20}))
        with pytest.raises(SystemExit) as err:
            main(["simulate", "--config", str(path)])
        assert err.value.code == EXIT_USAGE

    @pytest.mark.parametrize("key, value", [("n", 11.5), ("m", 2.0), ("trials", 50.5),
                                            ("seed", "x"), ("workers", 2.0), ("legs", 1),
                                            ("kind", True), ("gamma_r", "1")])
    def test_wrong_type_config_value_usage_error(self, tmp_path, key, value):
        cfg = {"n": 11, "m": 1, "gamma_r": 1.0, "gamma_e": 1.0, "trials": 50, key: value}
        path = tmp_path / "bad_type.json"
        path.write_text(json.dumps(cfg))
        with pytest.raises(SystemExit) as err:
            main(["simulate", "--config", str(path)])
        assert err.value.code == EXIT_USAGE

    def test_infinite_es_usage_error(self, capsys):
        # an infinite Es would make every jammed SINR inf/inf = NaN
        with pytest.raises(SystemExit) as err:
            main(SIM_ARGS + ["--es", "inf"])
        assert err.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert "es must be finite" in captured.err and captured.out == ""

    def test_infinite_gamma_e_no_secrecy_outage(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--n", "11", "--m", "2", "--gamma-r", "1",
                               "--gamma-e", "inf", "--noise-mode", "interference-limited",
                               "--trials", "2000", "--format", "csv")
        assert code == EXIT_OK
        row = dict(zip(*(line.split(",") for line in out.splitlines())))
        assert [row[k] for k in ("p_s_hop1", "p_s_hop2", "p_s_e2e")] == ["0", "0", "0"]

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_fewer_than_one_worker_usage_error(self, capsys, workers):
        with pytest.raises(SystemExit) as err:
            main(SIM_ARGS + ["--workers", workers])
        assert err.value.code == EXIT_USAGE
        assert "workers must be >= 1" in capsys.readouterr().err


class TestSweep:
    BASE = ["sweep", "--param", "n", "--values", "101",
            "--m", "1", "--gamma-r", "1", "--gamma-e", "1",
            "--eps-s", "0.5", "--eps-t", "0.5", "--protocol", "random",
            "--tau-policy", "theorem2-max", "--noise-mode", "interference-limited",
            "--trials", "2000", "--seed", "9"]

    def test_single_value_matches_bounds_and_simulate(self, capsys):
        code, out, _ = run_cli(capsys, *self.BASE)
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == ",".join(SWEEP_COLUMNS)
        row = dict(zip(SWEEP_COLUMNS, lines[1].split(",")))
        assert float(row["tau_max"]) == pytest.approx(0.05887050112577374, rel=1e-9)
        assert row["status"] == "ok"
        _, bounds_out, _ = run_cli(capsys, *BOUNDS_ARGS)
        report = json.loads(bounds_out)["report"]
        assert float(row["m_max_t1"]) == report["m_max_t1"]
        sim = ["simulate", "--n", "101", "--m", "1", "--gamma-r", "1", "--gamma-e", "1",
               "--eps-s", "0.5", "--eps-t", "0.5", "--protocol", "random",
               "--tau-policy", "theorem2-max", "--noise-mode", "interference-limited",
               "--trials", "2000", "--seed", "9"]
        _, sim_out, _ = run_cli(capsys, *sim)
        res = json.loads(sim_out)["result"]
        assert float(row["p_t_hop1"]) == res["p_t_hop1"]
        assert float(row["p_s_e2e"]) == res["p_s_e2e"]

    def test_infeasible_rows_flagged_not_fatal(self, capsys):
        # at n=101, eps_s=0.5: the theorem-2 window closes between m=15 and m=16
        argv = list(self.BASE)
        argv[argv.index("--param") + 1] = "m"
        argv[argv.index("--values") + 1] = "1,16"
        argv += ["--n", "101"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        rows = [dict(zip(SWEEP_COLUMNS, ln.split(","))) for ln in lines[1:]]
        assert rows[0]["status"] == "ok"
        assert rows[1]["status"] == "infeasible"
        assert rows[1]["p_t_hop1"] == ""          # empty cell, not dropped column
        assert rows[1]["m_max_t3"] != ""          # bounds still evaluated

    def test_rerun_reproduces_identical_csv(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        run_cli(capsys, *self.BASE, "--out", str(path))
        first = path.read_bytes()
        run_cli(capsys, *self.BASE, "--out", str(path))
        assert path.read_bytes() == first

    def test_tau_grid_trend(self, capsys):
        argv = ["sweep", "--param", "tau", "--values", "0.05,0.2,0.4,0.8",
                "--n", "21", "--m", "1", "--gamma-r", "1", "--gamma-e", "1",
                "--protocol", "random", "--noise-mode", "interference-limited",
                "--outputs", "simulation", "--trials", "4000", "--seed", "13"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        rows = [dict(zip(SWEEP_COLUMNS, ln.split(","))) for ln in lines[1:]]
        for a, b in zip(rows[:-1], rows[1:]):
            slack_t = (float(a["p_t_hop1_ci_hi"]) - float(a["p_t_hop1_ci_lo"])
                       + float(b["p_t_hop1_ci_hi"]) - float(b["p_t_hop1_ci_lo"]))
            slack_s = (float(a["p_s_hop1_ci_hi"]) - float(a["p_s_hop1_ci_lo"])
                       + float(b["p_s_hop1_ci_hi"]) - float(b["p_s_hop1_ci_lo"]))
            assert float(b["p_t_hop1"]) >= float(a["p_t_hop1"]) - slack_t
            assert float(b["p_s_hop1"]) <= float(a["p_s_hop1"]) + slack_s

    def test_out_of_domain_value_usage_error(self, capsys):
        for value in ("0", "inf", "11.5"):     # n must be an integer >= 1
            argv = list(self.BASE)
            argv[argv.index("--values") + 1] = value
            with pytest.raises(SystemExit) as err:
                main(argv)
            assert err.value.code == EXIT_USAGE
            captured = capsys.readouterr()
            assert "n must be" in captured.err and captured.out == ""

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, *self.BASE, "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["rows"][0]["swept_value"] == 101
        assert doc["config"]["gamma_r"] == 1.0

    TAU_GRID = ["sweep", "--param", "tau", "--outputs", "bounds", "--n", "11", "--m", "1",
                "--gamma-r", "1", "--gamma-e", "1", "--eps-s", "0.5", "--eps-t", "0.5",
                "--format", "json"]

    def test_from_to_step_grid_is_exact(self, capsys):
        code, out, _ = run_cli(capsys, *self.TAU_GRID, "--from", "0", "--to", "0.3",
                               "--step", "0.1")
        assert code == EXIT_OK
        assert [r["swept_value"] for r in json.loads(out)["rows"]] == [0.0, 0.1, 0.2, 0.3]
        code, out, _ = run_cli(capsys, *self.TAU_GRID, "--from", "0", "--to", "1",
                               "--step", "0.1")
        values = [r["swept_value"] for r in json.loads(out)["rows"]]
        assert len(values) == 11 and values[-1] == 1.0

    @pytest.mark.parametrize("step", ["-0.1", "0"])
    def test_nonpositive_step_usage_error(self, step):
        with pytest.raises(SystemExit) as err:
            main(self.TAU_GRID + ["--from", "0", "--to", "0.3", "--step", step])
        assert err.value.code == EXIT_USAGE

    @pytest.mark.parametrize("budgets, extra, message", [
        (True, ["--workers", "0"], "workers must be >= 1"),
        (True, ["--trials", "0"], "trials must be >= 1"),
        (True, ["--es", "0"], "es must be > 0"),
        (True, ["--coherence-len", "0"], "coherence_len must be >= 1"),
        (True, ["--gamma-r", "nan"], "gamma_r must be > 0"),
        (False, ["--tau-policy", "theorem2-max"], "requires eps_s and eps_t"),
    ], ids=["workers", "trials", "es", "coherence_len", "gamma_r_nan", "theorem2_no_budgets"])
    def test_bad_run_setting_usage_error(self, capsys, budgets, extra, message):
        # a setting every row shares fails the command, not each row's status
        argv = ["sweep", "--param", "n", "--values", "11,21", "--m", "1", "--gamma-r", "1",
                "--gamma-e", "1", "--trials", "100", "--outputs", "simulation", *extra]
        if budgets:
            argv += ["--eps-s", "0.5", "--eps-t", "0.5"]
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""

    def test_unbounded_tolerance_is_infinity(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--param", "gamma_e", "--values", "1e6,inf",
                               "--n", "1001", "--m", "1", "--gamma-r", "0.001",
                               "--eps-s", "0.5", "--eps-t", "0.5", "--outputs", "bounds")
        assert code == EXIT_OK
        for line in out.strip().splitlines()[1:]:
            row = dict(zip(SWEEP_COLUMNS, line.split(",")))
            assert (row["m_max_t1"], row["m_max_t3"], row["status"]) == ("Infinity", "Infinity",
                                                                         "ok")

    def test_closed_stdout_is_a_normal_end(self):
        # 2000 rows overfill the pipe, so the sweep is still printing when the
        # reader closes it
        argv = ["sweep", "--param", "tau", "--from", "0.001", "--to", "2", "--step", "0.001",
                "--n", "21", "--m", "1", "--gamma-r", "1", "--gamma-e", "1",
                "--eps-s", "0.5", "--eps-t", "0.5", "--outputs", "bounds"]
        src = str(pathlib.Path(relaysec.__file__).parents[1])
        proc = subprocess.Popen([sys.executable, "-m", "relaysec.cli", *argv],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env={**os.environ, "PYTHONPATH": src})
        assert proc.stdout.readline().decode() == ",".join(SWEEP_COLUMNS) + "\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=120) == EXIT_OK
        # stderr holds the sweep's config echo and nothing else
        assert len(err.splitlines()) == 1 and json.loads(err)["command"] == "sweep"

    def test_zero_load_balance_slots_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(self.BASE + ["--outputs", "bounds", "--load-balance-slots", "0"])
        assert err.value.code == EXIT_USAGE
        assert "slots must be >= 1" in capsys.readouterr().err


class TestTolerance:
    def test_unit_budget_hits_cap(self, capsys):
        code, out, _ = run_cli(capsys, "tolerance", "--n", "11", "--m", "1",
                               "--gamma-r", "1", "--gamma-e", "1", "--eps-s", "1.0",
                               "--tau", "0.5", "--noise-mode", "interference-limited",
                               "--trials", "200", "--seed", "5", "--m-cap", "4")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["result"]["m_max"] == 4
        assert doc["result"]["violated_at_m1"] is False

    def test_zero_trials_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["tolerance", "--n", "11", "--gamma-r", "1", "--gamma-e", "1",
                  "--eps-s", "0.5", "--tau", "0.5", "--trials", "0"])
        assert err.value.code == EXIT_USAGE

    def test_csv_format_usage_error(self, capsys):
        # tolerance has no table form; it refuses csv rather than print JSON
        with pytest.raises(SystemExit) as err:
            main(["tolerance", "--n", "11", "--gamma-r", "1", "--gamma-e", "1",
                  "--eps-s", "0.5", "--tau", "0.5", "--trials", "20", "--format", "csv"])
        assert err.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--format" in captured.err and "csv" in captured.err


ROW_FIELDS = ["name", "passed", "observed", "expected", "tolerance", "detail"]

# the jammer, intercept and leg rows of `validate --quick --trials 4000` as
# they were when five estimate_outage calls made them
ESTIMATE_ROWS_QUICK_4000 = [
    "PASS jammer_count(n=11, tau=0.1): observed=0.95475 expected=0.951626 tol=0.044 "
    "trials=4000",
    "PASS eve_intercept_exact(n=11, tau=0.1): observed=0.61125 expected=0.614157 tol=0.0302 "
    "wilson=[0.59604, 0.62624] trials=4000",
    "PASS leg_combining(t, independent legs): observed=0.493 expected=0.490566 tol=0.021 "
    "trials=4000",
    "PASS leg_combining(s, independent legs): observed=0.452 expected=0.456465 tol=0.021 "
    "trials=4000",
]


class TestValidate:
    def test_quick_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--quick", "--trials", "4000")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert len(lines) == 7
        assert all(line.startswith("PASS") for line in lines)

    def test_scenario_flag_usage_error(self, capsys):
        # the suite fixes its own scenarios: a scenario flag is refused, not ignored
        with pytest.raises(SystemExit) as err:
            main(["validate", "--quick", "--trials", "200", "--n", "50"])
        assert err.value.code == EXIT_USAGE
        assert "--n 50" in capsys.readouterr().err

    def test_config_file_with_scenario_keys_runs(self, capsys, tmp_path):
        # one config file may describe a scenario for every command; validate
        # accepts its keys and reads only trials and seed
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"n": 50, "tau": 0.7}))
        plain = run_cli(capsys, "validate", "--quick", "--trials", "4000")
        assert run_cli(capsys, "validate", "--quick", "--trials", "4000",
                       "--config", str(path)) == plain
        assert plain[0] == EXIT_OK

    def test_injected_wrong_oracle_fails(self, capsys, monkeypatch):
        # an oracle skewed by +0.5 in gamma_e must be caught
        monkeypatch.setattr(relaysec.validation, "eve_intercept_exact",
                            lambda n, gamma_e, tau: eve_intercept_exact(n, gamma_e + 0.5, tau))
        code, out, _ = run_cli(capsys, "validate", "--quick", "--trials", "4000")
        assert code == EXIT_VALIDATION
        assert any(line.startswith("FAIL eve_intercept_exact")
                   for line in out.strip().splitlines())

    @pytest.mark.parametrize("name, wrong, failing", [
        # an off-by-one candidate count in the binomial jammer mean
        ("expected_jammers", lambda n, tau: expected_jammers(n + 1, tau),
         ["jammer_count(n=11, tau=0.1)"]),
        # the union bound in place of the two-leg combining identity
        ("combine_legs", lambda p1, p2: p1 + p2,
         ["leg_combining(t, independent legs)", "leg_combining(s, independent legs)"]),
        # a sampler whose gains have mean 1.1
        ("gain", lambda u: 1.1 * gain(u),
         ["mgf_identity(gamma=0.5)", "mgf_identity(gamma=1.0)", "mgf_identity(gamma=2.0)"]),
    ], ids=["expected_jammers", "combine_legs", "mgf_sampler"])
    def test_wrong_oracle_fails_its_rows(self, capsys, monkeypatch, name, wrong, failing):
        monkeypatch.setattr(relaysec.validation, name, wrong)
        code, out, _ = run_cli(capsys, "validate", "--quick", "--trials", "4000")
        assert code == EXIT_VALIDATION
        assert [line[len("FAIL "):line.index(": observed")]
                for line in out.strip().splitlines() if line.startswith("FAIL")] == failing

    def test_two_estimates_keep_every_estimate_row(self, capsys, monkeypatch):
        legs = []

        def counted(*args, **kwargs):
            legs.append(kwargs.get("legs", "shared"))
            return estimate_outage(*args, **kwargs)

        monkeypatch.setattr(relaysec.validation, "estimate_outage", counted)
        code, out, _ = run_cli(capsys, "validate", "--quick", "--trials", "4000")
        assert code == EXIT_OK
        assert legs == ["shared", "independent"]
        assert out.strip().splitlines()[3:] == ESTIMATE_ROWS_QUICK_4000

    def test_json_format_rows(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--quick", "--trials", "4000")
        code_json, out_json, _ = run_cli(capsys, "validate", "--quick", "--trials", "4000",
                                         "--format", "json")
        doc = json.loads(out_json)
        assert code_json == code == EXIT_OK
        assert (doc["command"], doc["seed"]) == ("validate", 12345)
        assert [sorted(row) for row in doc["rows"]] == [sorted(ROW_FIELDS)] * 7
        # JSON floats round-trip, so the rows rebuild the default lines exactly
        assert [CheckResult(**row).line() for row in doc["rows"]] == out.strip().splitlines()

    def test_csv_format_table(self, capsys):
        _, out_json, _ = run_cli(capsys, "validate", "--quick", "--trials", "4000",
                                 "--format", "json")
        code, out, _ = run_cli(capsys, "validate", "--quick", "--trials", "4000",
                               "--format", "csv")
        assert code == EXIT_OK
        header, *table = list(csv.reader(out.strip().splitlines()))
        assert header == ROW_FIELDS
        rows = json.loads(out_json)["rows"]
        assert [r[0] for r in table] == [row["name"] for row in rows]
        assert [r[1] for r in table] == ["true"] * 7
        assert [float(r[2]) for r in table] == [row["observed"] for row in rows]
        assert [r[5] for r in table] == [row["detail"] for row in rows]


@pytest.mark.parametrize("argv", [
    BOUNDS_ARGS,
    SIM_ARGS[:-4] + ["--trials", "20", "--seed", "7", "--format", "csv"],
    TestSweep.BASE[:-4] + ["--trials", "20", "--seed", "9"],
    ["tolerance", "--n", "11", "--gamma-r", "1", "--gamma-e", "1", "--eps-s", "1.0",
     "--tau", "0.5", "--trials", "20", "--m-cap", "2"],
    ["validate", "--quick", "--trials", "200"],
], ids=["bounds", "simulate", "sweep", "tolerance", "validate"])
def test_unwritable_out_usage_error(capsys, tmp_path, argv):
    path = str(tmp_path / "no_such_dir" / "x.csv")
    code, out, err = run_cli(capsys, *argv, "--out", path)
    assert code == EXIT_USAGE
    assert out == ""
    naming = [line for line in err.splitlines() if path in line]
    assert naming == [err.splitlines()[-1]]


@pytest.mark.parametrize("argv, command", [
    (BOUNDS_ARGS[:5] + BOUNDS_ARGS[7:], "bounds"),  # a handler's error: no --gamma-r
    (["tolerance", "--n", "11", "--gamma-r", "1", "--gamma-e", "1", "--eps-s", "0.5",
      "--tau", "0.5", "--trials", "20", "--format", "csv"], "tolerance"),  # argparse's error
], ids=["bounds_missing_setting", "tolerance_csv"])
def test_usage_error_prints_subcommand_usage(capsys, argv, command):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"usage: relaysec {command} ")


LEGS = ("shared", "independent")

# (option strings, dest, type, choices, default, required) of every option
# but --help, as each subcommand took them when all of them copied one
# parent parser of shared flags
SHARED_OPTIONS = [
    (("--n",), "n", int, None, None, False),
    (("--m",), "m", int, None, None, False),
    (("--gamma-r",), "gamma_r", float, None, None, False),
    (("--gamma-e",), "gamma_e", float, None, None, False),
    (("--eps-s",), "eps_s", float, None, None, False),
    (("--eps-t",), "eps_t", float, None, None, False),
    (("--es",), "es", float, None, None, False),
    (("--n0",), "n0", float, None, None, False),
    (("--noise-mode",), "noise_mode", None, ("exact", "interference-limited"), None, False),
    (("--protocol",), "kind", None,
     ("optimal", "optimal-maxmin", "random", "random-uniform"), None, False),
    (("--tau-policy",), "tau_policy", None,
     ("manual", "protocol1", "protocol1-formula", "theorem2-max", "theorem2-min"), None, False),
    (("--tau",), "tau", float, None, None, False),
    (("--trials",), "trials", int, None, None, False),
    (("--seed",), "seed", int, None, None, False),
    (("--coherence-len",), "coherence_len", int, None, None, False),
    (("--config",), "config", None, None, None, False),
    (("--out",), "out", None, None, None, False),
    (("--format",), "fmt", None, ("json", "csv"), None, False),
]
OWN_OPTIONS = {
    "bounds": [],
    "simulate": [
        (("--legs",), "legs", None, LEGS, None, False),
        (("--workers",), "workers", int, None, None, False),
    ],
    "sweep": [
        (("--param",), "param", None,
         ("n", "m", "gamma_r", "gamma_e", "eps_s", "eps_t", "tau"), None, True),
        (("--values",), "values", None, None, None, False),
        (("--from",), "sweep_from", float, None, None, False),
        (("--to",), "sweep_to", float, None, None, False),
        (("--step",), "sweep_step", float, None, None, False),
        (("--outputs",), "outputs", None, ("bounds", "simulation", "both"), "both", False),
        (("--load-balance-slots",), "lb_slots", int, None, None, False),
        (("--legs",), "legs", None, LEGS, None, False),
        (("--workers",), "workers", int, None, None, False),
        (("--append",), "append", None, None, False, False),
    ],
    "tolerance": [
        (("--m-cap",), "m_cap", int, None, 1024, False),
        (("--legs",), "legs", None, LEGS, None, False),
        (("--workers",), "workers", int, None, None, False),
    ],
    "validate": [
        (("--quick",), "quick", None, None, False, False),
    ],
}


# the shared flags that bounds and validate do not take: neither reads those
# settings, and a subcommand takes only the flags of the settings it reads
DROPPED = {
    "bounds": {"--es", "--n0", "--noise-mode", "--protocol", "--tau-policy", "--trials",
               "--seed", "--coherence-len"},
    "validate": {"--n", "--m", "--gamma-r", "--gamma-e", "--eps-s", "--eps-t", "--es",
                 "--n0", "--noise-mode", "--protocol", "--tau-policy", "--tau",
                 "--coherence-len"},
}


class TestParser:
    """The parser is built once per process and reused by every `main` call."""

    def test_every_subcommand_keeps_its_options(self):
        sub = next(a for a in _build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert list(sub.choices) == list(OWN_OPTIONS)
        for name, own in OWN_OPTIONS.items():
            got = {a.option_strings[0]: (tuple(a.option_strings), a.dest, a.type,
                                         None if a.choices is None else tuple(a.choices),
                                         a.default, a.required)
                   for a in sub.choices[name]._actions if a.dest != "help"}
            before = {spec[0][0]: spec for spec in SHARED_OPTIONS + own}
            dropped = DROPPED.get(name, set())
            assert set(got) == set(before) - dropped, name
            kept = {flag: spec for flag, spec in before.items() if flag not in dropped}
            if name == "tolerance":  # it prints JSON only
                kept["--format"] = (("--format",), "fmt", None, ("json",), None, False)
            assert got == kept, name
        assert [len(sub.choices[name]._actions) - 1 for name in ("bounds", "validate")] \
            == [10, 6]

    def test_built_once(self, capsys):
        run_cli(capsys, *BOUNDS_ARGS)
        parser = _build_parser()
        run_cli(capsys, *BOUNDS_ARGS)
        assert _build_parser() is parser

    @pytest.mark.parametrize("bad", [
        BOUNDS_ARGS + ["--frequency", "2.4"],  # rejected while parsing
        BOUNDS_ARGS[:5] + BOUNDS_ARGS[7:],  # rejected after parsing: no --gamma-r
    ], ids=["unknown_flag", "missing_setting"])
    def test_usage_error_between_calls_changes_nothing(self, capsys, bad):
        argv = ["sweep", "--param", "n", "--values", "11,21", "--m", "1", "--gamma-r", "1",
                "--gamma-e", "1", "--eps-s", "0.3", "--eps-t", "0.3", "--trials", "300",
                "--seed", "4", "--load-balance-slots", "200"]
        first = run_cli(capsys, *argv)
        with pytest.raises(SystemExit) as err:
            main(bad)
        assert err.value.code == EXIT_USAGE
        capsys.readouterr()
        assert run_cli(capsys, *argv) == first


# The stdout bytes of a small command set, both rules and leg modes included.
# Each byte follows from the kernel's counts, so a kernel change that moves a
# count, or the last bit of a proportion, fails here.
PIN_SIM = "simulate --n 11 --m 2 --gamma-r 1 --gamma-e 1 --trials 2000 --seed 7 --format csv"
PIN_LB = ("sweep --param n --values 21,41,61,81,101 --outputs bounds --load-balance-slots 2000"
          " --coherence-len 100 --m 4 --gamma-r 1 --gamma-e 2 --eps-s 0.5 --eps-t 0.5"
          " --seed 7003 --format csv --protocol ")
PINNED_STDOUT = {
    (PIN_SIM + ' --protocol optimal --legs shared'):
        RESULT_FIELDS + "\n"
        + '2000,7,shared,0.017500000000000002,0.012609752959581211,0.024240197666827872,'
          '0.021000000000000001,0.015573520825817387,0.028263010469622922,0.036999999999999998,'
          '0.029575304829629133,0.046199880952811072,0.45300000000000001,0.43129479940969079,'
          '0.47488540303474697,0.40749999999999997,0.38616243599921474,0.42919221774781691,'
          '0.68700000000000006,0.66633503271297578,0.7069479916038357,0.28325,0.26949984756702861,'
          '0.2974160710990571,1.544,0.060235415933574024,-0.045370587781995687\n',
    (PIN_SIM + ' --protocol optimal --legs independent'):
        RESULT_FIELDS + "\n"
        + '2000,7,independent,0.016500000000000001,0.011772823607253371,0.023080961113718216,'
          '0.435,0.4134179772264211,0.45683123892014171,0.44600000000000001,0.42433927402485516,'
          '0.46786776708152011,0.439,0.41738810737257864,0.46084577239573415,0.44550000000000001,'
          '0.42384261733423861,0.46736634081941791,0.6865,0.66582719490916864,0.70645774645492387,'
          '0.27524999999999999,0.26162932823017415,0.28930194152854671,1.5009999999999999,'
          '-0.026562229346980725,0.0098336095146400182\n',
    (PIN_SIM + ' --protocol random --legs shared'):
        RESULT_FIELDS + "\n"
        + '2000,7,shared,0.46000000000000002,0.43825466491811776,0.48189869886438236,0.4415,'
          '0.41987016524351045,0.46335412928839609,0.70250000000000001,0.68209176792839177,'
          '0.7221318279227007,0.443,0.42135966769864153,0.46485887569142126,0.42049999999999998,'
          '0.39903831657585415,0.44226649394186496,0.67400000000000004,0.65314004677354909,'
          '0.69419282077257494,0.27424999999999999,0.2606459008817365,0.28828728776356377,1.5265,'
          '-0.01652610735229652,0.013125453947977947\n',
    (PIN_SIM + ' --protocol random --legs independent'):
        RESULT_FIELDS + "\n"
        + '2000,7,independent,0.47149999999999997,0.44969811087818734,0.49341116081684389,'
          '0.47149999999999997,0.44969811087818734,0.49341116081684389,0.71999999999999997,'
          '0.69991471468443001,0.73924178451181866,0.44,0.41838086353972898,0.46184918213402132,'
          '0.4345,0.41292181173318704,0.45632932146065702,0.67549999999999999,0.65466161980909621,'
          '0.69566549659518406,0.27124999999999999,0.257696142575635,0.2852428027294035,'
          '1.5229999999999999,0.002759967133215818,0.031781559672322983\n',
    (PIN_SIM + ' --protocol random --tau-policy manual --tau 0.3'
     ' --noise-mode interference-limited'):
        RESULT_FIELDS + "\n"
        + '2000,7,shared,0.28849999999999998,0.26906427669859123,0.30874663430137861,'
          '0.26950000000000002,0.25050984717313135,0.28937391162352627,0.48299999999999998,'
          '0.46115317354684554,0.50491200606071696,0.38400000000000001,0.36292647450207105,'
          '0.40551828046717953,0.39000000000000001,0.36885414285349183,0.41156760754838373,'
          '0.61850000000000005,0.59700327961081912,0.63954238018352405,0.24224999999999999,'
          '0.22922396598872993,0.25577062702711117,2.6040000000000001,-0.013683628212246795,'
          '0.024196842805998167\n',
    ('sweep --param n --values 5,11,21 --m 1 --gamma-r 1 --gamma-e 1 --eps-s 0.5'
     ' --eps-t 0.5 --trials 1000 --seed 3 --outputs both --format csv'):
        SWEEP_HEADER + "\n"
        + '5,0.41463655068563265,0.66243771553386033,0.58498956685434367,0.29435250562886867,'
          'false,0.437,0.40655624686835734,0.46792592470082262,0.42199999999999999,'
          '0.39174530864721679,0.45285166567652979,0.67900000000000005,0.64942650622453268,'
          '0.70720351423763861,0.42999999999999999,0.3996409199186558,0.46089482626932188,'
          '0.42399999999999999,0.39371844661697741,0.45486322067282692,0.67600000000000005,'
          '0.64636780328529553,0.7042851777277892,0.42999999999999999,0.3996409199186558,'
          '0.46089482626932188,,infeasible\n'
        + '11,0.54955791872801785,1.0644405693253089,0.19498783283298055,0.18616487055295169,'
          'false,0.47199999999999998,0.44122510067058457,0.50298919780460649,0.46500000000000002,'
          '0.43427911875069891,0.49598875434329004,0.71699999999999997,0.68829162780550168,'
          '0.74404755901176733,0.29199999999999998,0.26465769460685978,0.32093423692313111,0.251,'
          '0.22511381079019804,0.27879191493560834,0.46200000000000002,0.43130413072430196,'
          '0.49298670292060032,0.29199999999999998,0.26465769460685978,0.32093423692313111,,'
          'infeasible\n'
        + '21,0.78021389825906395,1.8165682179300087,0.092748894372067306,0.13163844238670797,'
          'true,0.46899999999999997,0.438247507417386,0.49998975160871834,0.5,0.46906960036810419,'
          '0.53093039963189581,0.73199999999999998,0.70369857542114345,0.75852580864155905,0.16,'
          '0.13858526208349012,0.1840169336866874,0.16500000000000001,0.14328467985555532,'
          '0.18927924832976667,0.30599999999999999,0.27822543332036392,0.33525934897203141,0.16,'
          '0.13858526208349012,0.1840169336866874,,ok\n',
    (PIN_LB + 'optimal'):
        SWEEP_HEADER + "\n"
        + '21,1.3839416509433922,5.2827406842954572,0.12667411167417211,0.13163844238670797,true,,'
          ',,,,,,,,,,,,,,,,,,,,0.41407867494824019,ok\n'
        + '41,3.2169761574015059,17.505464911831581,0.06133260414943742,0.093082435276475847,true,'
          ',,,,,,,,,,,,,,,,,,,,,0.34843205574912894,ok\n'
        + '61,6.3436336555613746,43.895994949451548,0.040467633635480532,0.076001490147668882,'
          'true,,,,,,,,,,,,,,,,,,,,,,0.29806259314456035,ok\n'
        + '81,11.428685580995614,95.281649915169254,0.030196164714247246,0.065819221193353983,'
          'true,,,,,,,,,,,,,,,,,,,,,,0.20576131687242799,ok\n'
        + '101,19.395130608836762,188.60189547415342,0.024083546369367766,0.058870501125773737,'
          'true,,,,,,,,,,,,,,,,,,,,,,0.19801980198019803,ok\n',
    (PIN_LB + 'random'):
        SWEEP_HEADER + "\n"
        + '21,1.3839416509433922,5.2827406842954572,0.12667411167417211,0.13163844238670797,true,,'
          ',,,,,,,,,,,,,,,,,,,,0.98390527747112733,ok\n'
        + '41,3.2169761574015059,17.505464911831581,0.06133260414943742,0.093082435276475847,true,'
          ',,,,,,,,,,,,,,,,,,,,,0.97801567465721773,ok\n'
        + '61,6.3436336555613746,43.895994949451548,0.040467633635480532,0.076001490147668882,'
          'true,,,,,,,,,,,,,,,,,,,,,,0.96648052251802974,ok\n'
        + '81,11.428685580995614,95.281649915169254,0.030196164714247246,0.065819221193353983,'
          'true,,,,,,,,,,,,,,,,,,,,,,0.95836663657395427,ok\n'
        + '101,19.395130608836762,188.60189547415342,0.024083546369367766,0.058870501125773737,'
          'true,,,,,,,,,,,,,,,,,,,,,,0.95051025766907316,ok\n',
    ('tolerance --n 11 --m 1 --gamma-r 1 --gamma-e 1 --eps-s 0.75 --tau 0.3'
     ' --trials 500 --seed 5 --m-cap 6'):
        '{\n'
        '  "command": "tolerance",\n'
        '  "config": {\n'
        '    "coherence_len": 1,\n'
        '    "eps_s": 0.75,\n'
        '    "eps_t": null,\n'
        '    "es": 1,\n'
        '    "gamma_e": 1,\n'
        '    "gamma_r": 1,\n'
        '    "m": 1,\n'
        '    "n": 11,\n'
        '    "n0": 1,\n'
        '    "noise_mode": "exact"\n'
        '  },\n'
        '  "eps_s": 0.75,\n'
        '  "m_cap": 6,\n'
        '  "protocol": {\n'
        '    "kind": "random-uniform",\n'
        '    "tau": 0.29999999999999999,\n'
        '    "tau_policy": "manual",\n'
        '    "tau_resolved": 0.29999999999999999\n'
        '  },\n'
        '  "result": {\n'
        '    "m_max": 5,\n'
        '    "probes": [\n'
        '      [\n'
        '        1,\n'
        '        0.30017396023616227\n'
        '      ],\n'
        '      [\n'
        '        2,\n'
        '        0.50382484470693778\n'
        '      ],\n'
        '      [\n'
        '        4,\n'
        '        0.67698856408107355\n'
        '      ],\n'
        '      [\n'
        '        6,\n'
        '        0.81783225514580593\n'
        '      ],\n'
        '      [\n'
        '        5,\n'
        '        0.74042678812156759\n'
        '      ]\n'
        '    ],\n'
        '    "violated_at_m1": false\n'
        '  },\n'
        '  "seed": 5,\n'
        '  "trials": 500\n'
        '}\n',
    ('bounds --n 101 --m 1 --gamma-r 1 --gamma-e 1 --eps-s 0.5 --eps-t 0.5'):
        '{\n'
        '  "command": "bounds",\n'
        '  "report": {\n'
        '    "eps_s": 0.5,\n'
        '    "eps_t": 0.5,\n'
        '    "expected_jammers": 5.717114347265106,\n'
        '    "feasible": true,\n'
        '    "gamma_e": 1,\n'
        '    "gamma_r": 1,\n'
        '    "infeasible_reason": null,\n'
        '    "m": 1,\n'
        '    "m_max_t1": 4.1268807470682347,\n'
        '    "m_max_t1_floor": 4,\n'
        '    "m_max_t3": 17.333568723943195,\n'
        '    "m_max_t3_floor": 17,\n'
        '    "n": 101,\n'
        '    "per_leg_budget_s": 0.29289321881345243,\n'
        '    "per_leg_budget_t": 0.29289321881345243,\n'
        '    "reliability_leg": 0.2857836751976619,\n'
        '    "secrecy_leg": 0.019009780088576761,\n'
        '    "secrecy_leg_vacuous": false,\n'
        '    "tau_max": 0.058870501125773737,\n'
        '    "tau_min": 0.017874331346664545,\n'
        '    "tau_used": 0.058870501125773737\n'
        '  }\n'
        '}\n',
}


@pytest.mark.parametrize("command", sorted(PINNED_STDOUT))
def test_pinned_stdout_bytes(capsys, command):
    code, out, _ = run_cli(capsys, *command.split())
    assert code == EXIT_OK
    assert out == PINNED_STDOUT[command]
