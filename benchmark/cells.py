#!/usr/bin/env python3
"""Reference figures: per-step times at paper-grid cells, and one large
``generate``, measured through ``spiqgan.cli.main`` with the benchmark's
tracer.

    python3 benchmark/cells.py

For each (n, t) cell of the ROADMAP's table it trains a few generator steps
(batch 32) on a surrogate raster and reports the median ``critic_step`` and
``generator_step`` span and the ``train`` command's wall time per step.
Large cells run one step.  It then times ``generate`` of 20 000 windows at
n=10, t=2 from an untrained checkpoint.  Prints one JSON object per figure.
"""

from __future__ import annotations

import json
import shutil
import statistics
import sys
import time
from pathlib import Path

from run import BENCH_DIR, ROOT, pin_to_one_cpu

pin_to_one_cpu()
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402

CELLS = ((2, 1), (2, 30), (4, 20), (6, 10), (8, 5), (10, 30))
GENERATE = (10, 2, 20000)   # n, t, windows


def _steps_for(n: int) -> int:
    """A few steps where a step is cheap, one where it takes minutes."""
    return 10 if n <= 2 else 3 if n <= 6 else 2 if n <= 8 else 1


def _prepare(work: Path, n: int, t: int, steps: int) -> Path:
    data = work / f"data_{n}x{t}.spk"
    code = workloads.run_cli([
        "surrogate", "--neurons", n, "--cols", 2000, "--rates", 0.1,
        "--burst-prob", workloads.BURST_PROB,
        "--burst-gain", workloads.BURST_GAIN, "--seed", 1, "--out", data])
    config = work / f"cell_{n}x{t}.ini"
    config.write_text(
        f"[generator]\nneurons = {n}\ntimesteps = {t}\n\n"
        f"[training]\ntotal_gen_steps = {steps}\nseed = 1\n\n"
        f"[paths]\ndata = {data}\nout = {work / f'run_{n}x{t}'}\n")
    if code != 0:
        raise RuntimeError("surrogate failed")
    return config


def cell(work: Path, n: int, t: int) -> dict:
    steps = _steps_for(n)
    config = _prepare(work, n, t, steps)
    with tracing.Tracer() as tracer:
        start = time.perf_counter()
        code = workloads.run_cli(["train", "--config", config])
        wall = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"train {n}x{t} exited {code}")

    def median(name):
        return statistics.median(
            end - begin for span, begin, end, _ in tracer.spans
            if span == name)
    return {"cell": f"{n}x{t}", "angles": 8 * n * t, "steps": steps,
            "critic_step_s": median("training.critic_step"),
            "generator_step_s": median("training.generator_step"),
            "train_s_per_step": wall / steps}


def generate(work: Path, n: int, t: int, count: int) -> dict:
    config = _prepare(work, n, t, 0)
    if workloads.run_cli(["train", "--config", config]) != 0:
        raise RuntimeError("train failed")
    start = time.perf_counter()
    code = workloads.run_cli([
        "generate", "--checkpoint", work / f"run_{n}x{t}" / "checkpoint.ckpt",
        "--count", count, "--seed", 2, "--out", work / "generated.spk"])
    if code != 0:
        raise RuntimeError(f"generate exited {code}")
    return {"generate": f"{n}x{t}", "count": count,
            "seconds": time.perf_counter() - start}


def main() -> int:
    work = BENCH_DIR / "_work" / "cells"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    for n, t in CELLS:
        print(json.dumps(cell(work, n, t)), flush=True)
    print(json.dumps(generate(work, *GENERATE)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
