"""Command-line surface tests: flags, exit codes, determinism, file formats."""

import argparse
import csv
import json
import math
import os
import pathlib
import re
import subprocess
import sys

import pytest

import relaysec
import relaysec.validation
from relaysec import (ProtocolChoice, ScenarioConfig, estimate_outage, eve_intercept_exact,
                      expected_jammers, resolve_tau)
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

    def test_tiny_gamma_e_infeasible_exit(self, capsys):
        # 1 + 1e-17 rounds to 1; the theorem-2 window is empty, not a division by zero
        code, out, _ = run_cli(capsys, "bounds", "--n", "11", "--m", "2", "--gamma-r", "1",
                               "--gamma-e", "1e-17", "--eps-s", "0.5", "--eps-t", "0.5")
        assert code == EXIT_INFEASIBLE
        assert "suppress" in json.loads(out)["report"]["infeasible_reason"]

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
        report = json.loads(out)["report"]
        assert report["tau_max"] == 0.0
        zeros = [v for v in report.values() if type(v) is float and v == 0.0]
        assert zeros and all(math.copysign(1.0, v) > 0 for v in zeros)
        code, out, _ = run_cli(capsys, "sweep", "--param", "n", "--values", "2,11",
                               "--outputs", "bounds", "--m", "1", "--gamma-r", "1",
                               "--gamma-e", "1", "--eps-s", eps_s, "--eps-t", "0")
        assert code == EXIT_OK
        cells = [c for line in out.strip().splitlines()[1:] for c in line.split(",")]
        zeros = [float(c) for c in cells if re.fullmatch(r"-?0(\.0*)?", c)]
        assert zeros and all(math.copysign(1.0, v) > 0 for v in zeros)


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
        assert [row[k] for k in ("p_s_hop1", "p_s_hop2", "p_s_e2e")] == ["0.0", "0.0", "0.0"]

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

    @pytest.mark.parametrize("slots", ["0", "-3"])
    def test_bad_load_balance_slots_refused_before_any_row_runs(self, monkeypatch, slots):
        def no_row(*args, **kwargs):
            raise AssertionError("a row was simulated before --load-balance-slots was checked")

        monkeypatch.setattr(relaysec.cli, "estimate_outage", no_row)
        with pytest.raises(SystemExit) as err:
            main(self.BASE + ["--load-balance-slots", slots])
        assert err.value.code == EXIT_USAGE

    def test_append_without_out_usage_error(self, capsys):
        # stdout has no file to extend: printing the header again would
        # corrupt whatever the caller meant to accumulate
        with pytest.raises(SystemExit) as err:
            main(self.BASE + ["--outputs", "bounds", "--append"])
        assert err.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert "--append needs --out" in captured.err and captured.out == ""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_tau_sweep_echoes_the_manual_policy(self, capsys, fmt):
        # every row runs at its own manual threshold, so no base policy shows
        code, out, err = run_cli(capsys, "sweep", "--param", "tau", "--values", "0.1,0.2",
                                 "--n", "11", "--m", "1", "--gamma-r", "1", "--gamma-e", "1",
                                 "--eps-s", "0.5", "--eps-t", "0.5", "--outputs", "bounds",
                                 "--format", fmt)
        assert code == EXIT_OK
        echo = json.loads(err if fmt == "csv" else out)
        assert echo["protocol"] == {"kind": "random-uniform", "tau_policy": "manual",
                                    "tau": None}

    def test_append_with_json_usage_error_leaves_file(self, capsys, tmp_path):
        # a JSON document cannot extend the accumulated CSV, so it must not replace it
        path = tmp_path / "sweep.csv"
        run_cli(capsys, *self.BASE, "--outputs", "bounds", "--out", str(path))
        first = path.read_bytes()
        with pytest.raises(SystemExit) as err:
            main(self.BASE + ["--outputs", "bounds", "--out", str(path), "--append",
                              "--format", "json"])
        assert err.value.code == EXIT_USAGE
        assert "--append" in capsys.readouterr().err
        assert path.read_bytes() == first


@pytest.mark.parametrize("policy", ["protocol1-formula", "theorem2-max", "theorem2-min"])
def test_tau_resolved_echo_is_the_base_config_threshold(capsys, policy):
    # simulate and tolerance echo the threshold their trials ran at: the
    # policy resolved at the base config (tolerance's base m included)
    scenario = ["--n", "101", "--m", "2", "--gamma-r", "1", "--gamma-e", "1", "--eps-s", "0.5",
                "--eps-t", "0.5", "--protocol", "random", "--tau-policy", policy,
                "--trials", "300", "--seed", "3"]
    want = resolve_tau(ProtocolChoice(kind="random-uniform", tau_policy=policy),
                       ScenarioConfig(n=101, m=2, gamma_r=1.0, gamma_e=1.0, eps_s=0.5, eps_t=0.5))
    for argv in (["simulate", *scenario], ["tolerance", *scenario, "--m-cap", "4"]):
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK
        assert json.loads(out)["protocol"]["tau_resolved"] == want


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

# the jammer, intercept and leg rows of `validate --quick --trials 4000` on
# stream layout 8; two estimate_outage calls make all four
ESTIMATE_ROWS_QUICK_4000 = [
    "PASS jammer_count(n=11, tau=0.1): observed=0.946 expected=0.951626 tol=0.0436 trials=4000",
    "PASS eve_intercept_exact(n=11, tau=0.1): observed=0.61525 expected=0.614157 tol=0.0301 "
    "wilson=[0.60007, 0.63021] trials=4000",
    "PASS leg_combining(t, independent legs): observed=0.4955 expected=0.497333 tol=0.021 "
    "trials=4000",
    "PASS leg_combining(s, independent legs): observed=0.45275 expected=0.449101 tol=0.021 "
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


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("gamma_r", ["1e-300", "1e300"])
@pytest.mark.parametrize("gamma_e", ["1e-300", "1e-17", "1e300", "inf"])
def test_extreme_settings_end_without_traceback(capsys, gamma_e, gamma_r):
    # thresholds at the ends of the float range end in a result, an empty
    # window or a usage error, for both rules and both kinds of tau
    scenario = ["--m", "2", "--gamma-r", gamma_r, "--gamma-e", gamma_e,
                "--eps-s", "0.5", "--eps-t", "0.5"]
    runs = [["bounds", "--n", n, *scenario] for n in ("2", "11")]
    for policy in (["--tau", "0.3"], ["--tau-policy", "theorem2-max"]):
        for rule in ("random", "optimal"):
            protocol = [*scenario, "--protocol", rule, *policy, "--trials", "30", "--seed", "1"]
            runs += [["simulate", "--n", "11", *protocol],
                     ["sweep", "--param", "n", "--values", "1,2,11", "--outputs", "both",
                      *protocol],
                     ["tolerance", "--n", "2", *protocol, "--m-cap", "4"]]
    # m = 2**62 eavesdroppers: a run's cost does not depend on m, so each ends in a result
    huge, protocol = str(2 ** 62), [*scenario, "--tau", "0.3", "--trials", "30", "--seed", "1"]
    results = [["simulate", "--n", "11", *protocol, "--m", huge],
               ["tolerance", "--n", "11", *protocol, "--m-cap", huge],
               ["sweep", "--param", "m", "--values", f"1,{huge}", "--outputs", "simulation",
                "--n", "11", *protocol]]
    # n = 101 on both row formats and the binomial tables' edges: tau = 0 (p = 0,
    # log p = -inf) and 1e-300 draw count rows, tau = 40 (p rounds to 1, cap = n - 1)
    # per-relay rows
    for tau in ("0", "1e-300", "40"):
        for rule in ("random", "optimal"):
            results += [["simulate", "--n", "101", *scenario, "--protocol", rule, "--tau", tau,
                         "--trials", "30", "--seed", "1"]]
    for argv in runs + results:
        try:
            code = main(argv)
        except SystemExit as exit_:
            code = exit_.code
        capsys.readouterr()
        allowed = (EXIT_OK,) if argv in results else (EXIT_OK, EXIT_USAGE, EXIT_INFEASIBLE)
        assert code in allowed, argv


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
        + '2000,7,shared,0.015,0.010527098037106688,0.021332437825708653,0.0265,'
          '0.020316920414969065,0.03449852336037745,0.04,0.032256746939981165,'
          '0.04950693655877153,0.448,0.426326123087997,0.46987324982925327,0.4145,'
          '0.39309368290050967,0.43623413218458446,0.6785,0.6577054850262555,0.6986101290943373,'
          '0.2655,0.24660930446362778,0.28528979071127986,1.4975,0.05647079976650107,'
          '-0.006922956215524547\n',
    (PIN_SIM + ' --protocol optimal --legs independent'):
        RESULT_FIELDS + "\n"
        + '2000,7,independent,0.0125,0.008481081388571086,0.018388039710650523,0.465,'
          '0.44322864571722487,0.48690554759246274,0.4715,0.44969811087818734,0.4934111608168439,'
          '0.439,0.41738810737257864,0.46084577239573415,0.445,0.42334598288820563,'
          '0.46686489231273215,0.699,0.6785314379344969,0.7187055772475643,0.275,'
          '0.2558763528427728,0.2949863184337909,1.528,0.003383563613507471,-0.04198652340806163\n',
    (PIN_SIM + ' --protocol random --legs shared'):
        RESULT_FIELDS + "\n"
        + '2000,7,shared,0.464,0.44223367331256824,0.48590435409168187,0.477,0.4551751724430595,'
          '0.49891301173187796,0.7215,0.7014440858739672,0.7407066621804377,0.4395,'
          '0.41788447428718983,0.4613474884338417,0.439,0.41738810737257864,0.46084577239573415,'
          '0.682,0.6612578808952767,0.7020443138943473,0.2625,0.24368522688101532,'
          '0.28222537057757985,1.5155,-0.007338795269034155,0.014451337985272993\n',
    (PIN_SIM + ' --protocol random --legs independent'):
        RESULT_FIELDS + "\n"
        + '2000,7,independent,0.464,0.44223367331256824,0.48590435409168187,0.477,'
          '0.4551751724430595,0.49891301173187796,0.7215,0.7014440858739672,0.7407066621804377,'
          '0.44,0.418380863539729,0.4618491821340213,0.4375,0.4158991407391742,'
          '0.45934049017098233,0.6835,0.6627807410547264,0.7035157025930536,0.2625,'
          '0.24368522688101532,0.28222537057757985,1.5155,-0.007338795269034155,'
          '0.006091449038731727\n',
    (PIN_SIM + ' --protocol random --tau-policy manual --tau 0.3'
     ' --noise-mode interference-limited'):
        RESULT_FIELDS + "\n"
        + '2000,7,shared,0.2835,0.26417731645780756,0.3036527650149748,0.3055,0.2857016368980114,'
          '0.32604409449439586,0.5045,0.4826002089845764,0.5263825375898921,0.3985,'
          '0.37725746805292776,0.4201316925451665,0.3695,0.34861544937704464,0.39088489996336223,'
          '0.614,0.5924648988423376,0.6350980143775367,0.256,0.23735369946659707,'
          '0.27558181960665434,2.595,-0.010160186887364826,0.028582182369920644\n',
    ('sweep --param n --values 5,11,21 --m 1 --gamma-r 1 --gamma-e 1 --eps-s 0.5'
     ' --eps-t 0.5 --trials 1000 --seed 3 --outputs both --format csv'):
        SWEEP_HEADER + "\n"
        + '5,0.41463655068563265,0.6624377155338603,0.5849895668543437,0.29435250562886867,false,'
          '0.461,0.4303127166140634,0.49198577054780995,0.427,0.3966791104990976,'
          '0.4578795962397934,0.7,0.6708761390827828,0.7275931575229951,0.406,'
          '0.37597870513494724,0.43674072546033715,0.409,0.37893242495569907,0.4397640450886719,'
          '0.654,0.6239780184885133,0.6828433398979359,0.406,0.37597870513494724,'
          '0.43674072546033715,,infeasible\n'
        + '11,0.5495579187280178,1.064440569325309,0.19498783283298055,0.1861648705529517,false,'
          '0.457,0.4263483045447644,0.48798079668499333,0.446,0.4154564661655095,'
          '0.47695682375093046,0.679,0.6494265062245327,0.7072035142376386,0.274,'
          '0.24726082477543693,0.30246887006003403,0.268,0.24147419135844106,0.29630142457885655,'
          '0.466,0.43527102980973204,0.49698918976728573,0.274,0.24726082477543693,'
          '0.30246887006003403,,infeasible\n'
        + '21,0.780213898259064,1.8165682179300087,0.0927488943720673,0.13163844238670797,true,'
          '0.511,0.4800349634365892,0.5418808478767286,0.466,0.43527102980973204,'
          '0.49698918976728573,0.741,0.7129617374007885,0.7671937650091739,0.156,'
          '0.13483131538945653,0.17980149444860544,0.171,0.14893385518054872,0.19558415190294662,'
          '0.3,0.2724068424770048,0.3291238609172172,0.156,0.13483131538945653,'
          '0.17980149444860544,,ok\n',
    (PIN_LB + 'optimal'):
        SWEEP_HEADER + "\n"
        + '21,1.3839416509433922,5.282740684295457,0.1266741116741721,0.13163844238670797,true,,,'
          ',,,,,,,,,,,,,,,,,,,0.4140786749482402,ok\n'
        + '41,3.216976157401506,17.50546491183158,0.06133260414943754,0.09308243527647585,true,,,'
          ',,,,,,,,,,,,,,,,,,,0.27100271002710025,ok\n'
        + '61,6.343633655561375,43.89599494945155,0.04046763363548053,0.07600149014766888,true,,,'
          ',,,,,,,,,,,,,,,,,,,0.1725625539257981,ok\n'
        + '81,11.428685580995614,95.28164991516925,0.030196164714247246,0.06581922119335398,true,'
          ',,,,,,,,,,,,,,,,,,,,,0.1646090534979424,ok\n'
        + '101,19.395130608836762,188.60189547415342,0.024083546369367766,0.05887050112577374,'
          'true,,,,,,,,,,,,,,,,,,,,,,0.14144271570014144,ok\n',
    (PIN_LB + 'random'):
        SWEEP_HEADER + "\n"
        + '21,1.3839416509433922,5.282740684295457,0.1266741116741721,0.13163844238670797,true,,,'
          ',,,,,,,,,,,,,,,,,,,0.9830826226874825,ok\n'
        + '41,3.216976157401506,17.50546491183158,0.06133260414943754,0.09308243527647585,true,,,'
          ',,,,,,,,,,,,,,,,,,,0.9779568525436658,ok\n'
        + '61,6.343633655561375,43.89599494945155,0.04046763363548053,0.07600149014766888,true,,,'
          ',,,,,,,,,,,,,,,,,,,0.9645754830955735,ok\n'
        + '81,11.428685580995614,95.28164991516925,0.030196164714247246,0.06581922119335398,true,'
          ',,,,,,,,,,,,,,,,,,,,,0.9558808418060222,ok\n'
        + '101,19.395130608836762,188.60189547415342,0.024083546369367766,0.05887050112577374,'
          'true,,,,,,,,,,,,,,,,,,,,,,0.9455629929338077,ok\n',
    ('tolerance --n 11 --m 1 --gamma-r 1 --gamma-e 1 --eps-s 0.75 --tau 0.3'
     ' --trials 500 --seed 5 --m-cap 6'):
        '{\n'
        '  "command": "tolerance",\n'
        '  "config": {\n'
        '    "coherence_len": 1,\n'
        '    "eps_s": 0.75,\n'
        '    "eps_t": null,\n'
        '    "es": 1.0,\n'
        '    "gamma_e": 1.0,\n'
        '    "gamma_r": 1.0,\n'
        '    "m": 1,\n'
        '    "n": 11,\n'
        '    "n0": 1.0,\n'
        '    "noise_mode": "exact"\n'
        '  },\n'
        '  "eps_s": 0.75,\n'
        '  "m_cap": 6,\n'
        '  "protocol": {\n'
        '    "kind": "random-uniform",\n'
        '    "tau": 0.3,\n'
        '    "tau_policy": "manual",\n'
        '    "tau_resolved": 0.3\n'
        '  },\n'
        '  "result": {\n'
        '    "m_max": 4,\n'
        '    "probes": [\n'
        '      [\n'
        '        1,\n'
        '        0.32918944923984417\n'
        '      ],\n'
        '      [\n'
        '        2,\n'
        '        0.5217845105864325\n'
        '      ],\n'
        '      [\n'
        '        4,\n'
        '        0.7212997388235782\n'
        '      ],\n'
        '      [\n'
        '        5,\n'
        '        0.7840661516186281\n'
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
        '    "gamma_e": 1.0,\n'
        '    "gamma_r": 1.0,\n'
        '    "infeasible_reason": null,\n'
        '    "m": 1,\n'
        '    "m_max_t1": 4.126880747068235,\n'
        '    "m_max_t1_floor": 4,\n'
        '    "m_max_t3": 17.333568723943195,\n'
        '    "m_max_t3_floor": 17,\n'
        '    "n": 101,\n'
        '    "per_leg_budget_s": 0.2928932188134524,\n'
        '    "per_leg_budget_t": 0.2928932188134524,\n'
        '    "reliability_leg": 0.2857836751976619,\n'
        '    "secrecy_leg": 0.01900978008857676,\n'
        '    "secrecy_leg_vacuous": false,\n'
        '    "tau_max": 0.05887050112577374,\n'
        '    "tau_min": 0.017874331346664545,\n'
        '    "tau_used": 0.05887050112577374\n'
        '  }\n'
        '}\n',
}


@pytest.mark.parametrize("command", sorted(PINNED_STDOUT))
def test_pinned_stdout_bytes(capsys, command):
    code, out, _ = run_cli(capsys, *command.split())
    assert code == EXIT_OK
    assert out == PINNED_STDOUT[command]
