"""Smoke test of the benchmark itself, at tiny scale (about a minute).

Run from the repository root::

    python3 -m pytest lockbench -q

Every workload runs untraced and traced, and must print every metric
BENCHMARK.json names with its unit; a lock leaked on purpose, and a
checkout without the program, must both fail the run.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("oltp_local", "oltp_wire", "rollout_local")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "lockbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    return result


def test_benchmark_json_names_the_workloads():
    assert tuple(w["name"] for w in BENCHMARK["workloads"]) == WORKLOADS


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_appears_with_its_unit(workload, trace):
    # A traced run halves --seconds; each half needs a full 1 s window.
    proc = _run(
        "--workload", workload, "--seed", "5", "--seconds", "2.5",
        "--trace", trace, "--tiny",
    )
    metrics = _result(proc)["metrics"]
    wanted = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in metrics.items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    for name, metric in metrics.items():
        assert isinstance(metric["value"], (int, float)), name
        assert f"  {name} " in proc.stdout  # the human-readable line too


@pytest.mark.parametrize("workload", ["oltp_local", "rollout_local"])
def test_a_leaked_lock_fails_the_run(workload):
    proc = _run(
        "--workload", workload, "--seconds", "1.5", "--trace", "0", "--tiny", "--leak"
    )
    assert proc.returncode == 1
    assert "leaked after stop" in proc.stderr
    assert '"correct"' not in proc.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "lockbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "oltp_local", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
