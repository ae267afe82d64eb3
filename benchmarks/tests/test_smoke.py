"""Seeded end-to-end runs of every workload through the command line."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = list(workloads.WORKLOADS)  # BENCHMARK.json lists a subset


def run(cwd, *args, timeout=170):
    return subprocess.run([sys.executable, "benchmarks/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_clean(workload, trace):
    done = run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert isinstance(value["value"], (int, float)), m["name"]
        if not trace:
            assert value["value"] > 0, m["name"]
    if trace and workload.startswith("mc-"):
        assert result["metrics"]["trace.coverage"]["value"] >= 0.9
    stamp = json.loads(done.stdout.splitlines()[-2])["stamp"]
    assert stamp["seed"] == 7 and stamp["failed_frac"] == 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = run(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
               "--trace", "0", timeout=60)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
