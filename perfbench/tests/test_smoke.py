"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/tests

Runs every workload with its checks on, plain and traced, and requires the
per-layer counts of two traced runs to repeat exactly.  The known-defect
loop of deep-loop keeps its full size, so that workload takes the longest.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
EXACT_UNITS = {"count", "bytes", "ratio"}


def bench(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "0",
         "--trace", str(trace), "--scale", "0.02"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_plain_run_reports_every_end_to_end_metric(workload):
    out = result(bench(workload, 0))
    assert out["correct"], out
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert {name: m["unit"] for name, m in out["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in out["metrics"].values())
    # deep-loop's one known-defect op fails in each of the three rounds.
    assert out["failed"] == (3 if workload == "deep-loop" else 0)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_across_runs(workload):
    first, second = (result(bench(workload, 1)) for _ in range(2))
    assert first["correct"] and second["correct"]
    assert {name: m["unit"] for name, m in first["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    exact = {name: m["value"] for name, m in first["metrics"].items()
             if m["unit"] in EXACT_UNITS}
    assert exact["lang.rules.calls"] > 0
    assert exact == {name: m["value"]
                     for name, m in second["metrics"].items()
                     if m["unit"] in EXACT_UNITS}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
