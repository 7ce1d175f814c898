"""Smoke check of the benchmark: every workload at a tiny size, untraced and
traced.  Outside the tier-1 suite (pytest collects ``tests/`` only); run it
with

    python3 -m pytest -q benchmark/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=300, cwd=BENCH_DIR.parent)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_reports_every_metric(workload, trace):
    result = run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in wanted}


def test_exact_counts_repeat_across_traced_runs():
    counts = ("generator.sim_rows", "generator.amp_updates",
              "generator.kernel_bytes_computed", "generator.chunks")
    first, second = (run_bench("train_long_t", 1)["metrics"] for _ in "ab")
    assert [first[c] for c in counts] == [second[c] for c in counts]
