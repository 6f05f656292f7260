"""Smoke test for the benchmark: every workload once, plus one traced run.

    python3 -m pytest perfbench/test_smoke.py

Takes about a minute.  It checks that every metric BENCHMARK.json names is
printed with its unit and that no output check failed.
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
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)


def bench(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def result_of(proc, metrics):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert any(line.startswith("checks") and "fail_frac=0" in line for line in lines)
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = {name: value["unit"] for name, value in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in metrics}
    for name, value in result["metrics"].items():
        assert f" {name.split('.', 1)[-1]}" in proc.stdout, name
        assert isinstance(value["value"], (int, float)), name
    return result


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_workload_prints_end_to_end_metrics(workload):
    proc = bench(ROOT, "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0")
    result = result_of(proc, BENCH["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_prints_per_layer_metrics():
    proc = bench(ROOT, "--workload", "gnp", "--seed", "2", "--seconds", "1", "--trace", "1")
    result_of(proc, BENCH["per_layer"])
    with open(os.path.join(ROOT, ".perfbench", "spans-trace-seed2.json")) as fh:
        spans = json.load(fh)
    assert {"pass", "engine.run", "verify.cond_i", "search.exhaustive"} <= {
        s["name"] for s in spans
    }


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(str(tmp_path), "--workload", "maxtime", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
