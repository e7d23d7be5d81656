"""Smoke test of the benchmark: each workload once, at its smallest size.

Run from the repository root:

    python3 -m pytest benchmarks/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]

# every end-to-end metric the benchmark prints, in the JSON result or the table
PRINTED = ("setup_s", "solve_s", "solves_per_s", "calls_f", "calls_g", "setup_calls",
           "exact_frac", "value_mean", "failed_frac", "peak_rss_mb")


def run(workload: str, trace: int, cwd: Path = ROOT, script: Path = ROOT / "benchmarks" / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    table = {line.split()[0]: float(line.split()[1]) for line in lines[1:-1]}
    return result, table


def assert_metrics(result, declared):
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end(workload):
    result, table = result_of(run(workload, 0))
    assert_metrics(result, BENCHMARK["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert set(PRINTED) <= set(table)
    assert table["failed_frac"] == 0.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer(workload):
    result, _ = result_of(run(workload, 1))
    assert_metrics(result, BENCHMARK["per_layer"])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["algorithms.solve.count"] >= 1
    assert metrics["problems.parse_problem.count"] >= 1
    if workload == "wide_n40":
        for span in ("bounds.dr_violation", "lattice.check_submodular",
                     "solvers.brute_force_minimize"):
            assert metrics[f"{span}.count"] == 0


def test_fails_without_sources(tmp_path):
    """A directory with only the benchmark's own files exits non-zero and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(WORKLOADS[0], 0, cwd=tmp_path, script=tmp_path / "benchmarks" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
