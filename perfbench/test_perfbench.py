"""Smoke test of the benchmark harness at tiny sizes, with no timing gate.

    python3 -m pytest perfbench -q

Checks that every metric BENCHMARK.json names is emitted with its unit,
that the per-layer counts repeat exactly across two traced runs of one
seed, that the result is the last line the command prints, and that the
command fails without printing a result when the package source is absent.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _units(metrics):
    return {m["name"]: m["unit"] for m in metrics}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_metrics_emitted_and_counts_repeat(workload):
    _, plain = run.run(workload, 3, 0.05, False, small=True)
    assert plain["correct"]
    assert {k: v["unit"] for k, v in plain["metrics"].items()} == _units(SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in plain["metrics"].values())

    _, first = run.run(workload, 3, 0.05, True, small=True)
    _, second = run.run(workload, 3, 0.05, True, small=True)
    assert {k: v["unit"] for k, v in first["metrics"].items()} == _units(SPEC["per_layer"])
    for name in tracing.COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name


def test_command_prints_result_last():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "grid-table", "--small", "--seconds", "0.05"],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}


def test_fails_without_package_source(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid-table", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
