"""Smoke test of the benchmark at tiny sizes.

    PYTHONPATH=src python -m pytest benchmarks/test_smoke.py -q

Every workload runs untraced and traced on a handful of inputs; every
metric ``BENCHMARK.json`` names must be printed with its unit, and every
output check must pass.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY_ROUNDS = {"series": 1, "convex": 2, "recognizers": 1, "game": 30}


def declared(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_reports_every_metric(workload, trace):
    result, problems = run.measure(
        workload, seed=1, seconds=0.2, trace=trace, rounds=TINY_ROUNDS[workload], min_ops=5
    )
    assert problems == []
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 5
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared("per_layer" if trace else "end_to_end")
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_spec_names_the_workloads_run_knows():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def test_command_prints_the_result_last():
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "game", "--seed", "3",
         "--seconds", "0.5", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "series", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
