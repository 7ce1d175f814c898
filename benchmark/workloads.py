"""The workloads and the timed loop that drives them.

Every workload is a closed loop with one caller: a round runs the user's
pipeline ``train`` -> ``generate`` -> ``evaluate`` through
``spiqgan.cli.main`` in process, each command waiting for the one before.
The workloads differ in where the size lies, so each one loads a different
layer.  All inputs come from ``spiqgan surrogate`` with the run's seed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import resource
import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from spiqgan import cli, training

import checks
import tracing

SETUP_REPEATS = 3
# Surrogate and training settings shared by every workload.
BURST_PROB = 0.9
BURST_GAIN = 2.5
JS_LOG_INTERVAL = 25

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_steps_per_s": "1/s",
    "generate_windows_per_s": "1/s",
    "evaluate_bins_per_s": "1/s",
    "peak_rss_mb": "MB",
}


@dataclass(frozen=True)
class Workload:
    name: str
    neurons: int                  # generator.neurons (n)
    timesteps: int                # generator.timesteps (t)
    steps: int                    # training.total_gen_steps per train
    rates: tuple[float, ...]      # surrogate per-neuron spike probability
    data_cols: int                # training raster length in bins
    reference_cols: int           # held-out reference raster length
    gen_count: int                # windows drawn by each generate
    batch_size: int = 32
    js_noise_draws: int = 2048


# Two workloads, so that each run can be long enough to be steady on a
# shared machine (see README.md).
WORKLOADS = {w.name: w for w in (
    # 30 patches of 2 qubits: small circuits, where the per-patch Python
    # loops and per-call overhead dominate.
    Workload("train_long_t", neurons=2, timesteps=30, steps=15,
             rates=(0.1, 0.25), data_cols=20000, reference_cols=1000000,
             gen_count=25000),
    # q=8: parameter-shift replication and the 2^16-state JS evaluation.
    Workload("train_wide", neurons=8, timesteps=2, steps=1,
             rates=(0.05, 0.06, 0.07, 0.08, 0.09, 0.1, 0.11, 0.12),
             data_cols=20000, reference_cols=600000, gen_count=2000),
)}


def tiny(w: Workload) -> Workload:
    """The same pipeline at a size that runs in a few seconds."""
    return dataclasses.replace(
        w, steps=min(w.steps, 2), data_cols=2000, reference_cols=2000,
        gen_count=min(w.gen_count, 500), batch_size=4, js_noise_draws=64)


def _digests(paths: dict[str, Path]) -> dict[str, tuple[int, str]]:
    """Size and SHA-256 of each file."""
    out = {}
    for name, path in paths.items():
        blob = path.read_bytes()
        out[name] = (len(blob), hashlib.sha256(blob).hexdigest())
    return out


def run_cli(argv: list, tracer: tracing.Tracer | None = None) -> int:
    """Run one command in process, inside a span when a tracer is given."""
    argv = [str(a) for a in argv]
    with contextlib.redirect_stdout(io.StringIO()):
        if tracer is None:
            return cli.main(argv)
        return tracer.span("cli.main", cli.main, argv)


class Runner:
    """Inputs, commands and artifacts of one workload in one work dir."""

    def __init__(self, w: Workload, seed: int, work: Path):
        self.w = w
        self.seed = seed
        self.data = work / "data.spk"
        self.reference = work / "reference.spk"
        self.config = work / "train.ini"
        self.run_dir = work / "run"
        self.generated = work / "generated.spk"
        self.eval_dir = work / "eval"

    def _surrogate(self, cols: int, seed: int, out: Path) -> list:
        w = self.w
        return ["surrogate", "--neurons", len(w.rates), "--cols", cols,
                "--rates", ",".join(map(repr, w.rates)),
                "--burst-prob", BURST_PROB, "--burst-gain", BURST_GAIN,
                "--seed", seed, "--out", out]

    def setup(self) -> None:
        """Training raster, held-out reference raster and training config.
        Setup has no failures to count, so any is fatal."""
        w = self.w
        for argv in (self._surrogate(w.data_cols, self.seed, self.data),
                     self._surrogate(w.reference_cols, self.seed + 1,
                                     self.reference)):
            if run_cli(argv) != 0:
                raise RuntimeError(f"setup: {argv[0]} failed")
        self.config.write_text(
            f"[generator]\nneurons = {w.neurons}\n"
            f"timesteps = {w.timesteps}\n\n"
            f"[training]\ntotal_gen_steps = {w.steps}\nseed = {self.seed}\n"
            f"batch_size = {w.batch_size}\nclip_c = 0.2\n"
            f"js_log_interval = {JS_LOG_INTERVAL}\n"
            f"js_noise_draws = {w.js_noise_draws}\n\n"
            f"[paths]\ndata = {self.data}\nout = {self.run_dir}\n",
            encoding="utf-8")

    def commands(self) -> list[tuple[str, list]]:
        w = self.w
        return [
            ("train", ["train", "--config", self.config]),
            ("generate", ["generate", "--checkpoint",
                          self.run_dir / "checkpoint.ckpt",
                          "--count", w.gen_count, "--seed", self.seed + 2,
                          "--out", self.generated]),
            ("evaluate", ["evaluate", "--generated", self.generated,
                          "--reference", self.reference,
                          "--neurons", w.neurons, "--timesteps", w.timesteps,
                          "--out", self.eval_dir]),
        ]

    def setup_artifacts(self) -> dict:
        return _digests({"data.spk": self.data,
                         "reference.spk": self.reference})

    def round_artifacts(self) -> dict:
        return _digests({"train_log.csv": self.run_dir / "train_log.csv",
                         "checkpoint.ckpt": self.run_dir / "checkpoint.ckpt",
                         "generated.spk": self.generated})

    def verify(self) -> list[tuple]:
        """Independent checks of the last round's outputs."""
        ckpt = training.load_checkpoint(self.run_dir / "checkpoint.ckpt")
        raster, _ = checks.read_raster(self.data)
        rng = np.random.default_rng(self.seed)
        cfg = ckpt.gen_cfg
        found = [checks.check_kernel(cfg, ckpt.gen_params.theta, rng),
                 checks.check_gradient(ckpt, raster, rng)]
        if cfg.n_feature * cfg.n_patches <= 20:
            found += checks.check_logged_js(ckpt, raster,
                                            self.run_dir / "train_log.csv")
        found.append(checks.check_sampling(ckpt, self.generated,
                                           self.seed + 2, self.w.gen_count))
        found.append(checks.check_evaluate(
            self.eval_dir, self.generated, self.reference, cfg.n_feature,
            cfg.n_patches))
        return found


def _same(name: str, digests: list) -> tuple:
    return (name, all(d == digests[0] for d in digests),
            f"{len(digests)} repetitions, sizes "
            + ", ".join(f"{k} {v[0]}" for k, v in digests[0].items()))


def run(w: Workload, seed: int, seconds: float, trace: bool,
        work: Path) -> dict:
    """Set up, run whole rounds for about ``seconds``, then check outputs.

    A round starts only when the rounds so far say it will end within
    ``seconds``; the first always runs.  Traced runs alternate an untraced
    and a traced round, so the tracing overhead is measured in the same run.
    Throughputs are total work over total time of the untraced rounds.
    """
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(w, seed, work)
    setup_s, setup_digests = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        runner.setup()
        setup_s.append(time.perf_counter() - start)
        setup_digests.append(runner.setup_artifacts())

    tracer = tracing.Tracer()
    rounds, round_counts = [], []
    attempted = failed = 0
    per_unit = 2 if trace else 1
    start = time.perf_counter()
    while True:
        traced = trace and len(rounds) % 2 == 1
        before = dict(tracer.counts)
        times = {}
        round_start = time.perf_counter()
        with tracer if traced else contextlib.nullcontext():
            for name, argv in runner.commands():
                t0 = time.perf_counter()
                code = run_cli(argv, tracer if traced else None)
                times[name] = time.perf_counter() - t0
                attempted += 1
                failed += int(code != 0)
        times["round"] = time.perf_counter() - round_start
        rounds.append({"traced": traced, "times": times,
                       "artifacts": runner.round_artifacts()})
        if traced:
            round_counts.append({k: v - before.get(k, 0)
                                 for k, v in tracer.counts.items()})
        if len(rounds) % per_unit:
            continue
        elapsed = time.perf_counter() - start
        if elapsed * (1 + per_unit / len(rounds)) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    found = runner.verify()
    found.append(_same("setup_artifacts_repeat", setup_digests))
    found.append(_same("round_artifacts_repeat",
                       [r["artifacts"] for r in rounds]))
    untraced = [r["times"] for r in rounds if not r["traced"]]
    if trace:
        found.append(("exact_counts_repeat",
                      all(c == round_counts[0] for c in round_counts),
                      f"{len(round_counts)} traced rounds"))
        traced_walls = [r["times"]["round"] for r in rounds if r["traced"]]
        metrics = tracing.layer_metrics(tracer, len(traced_walls))
        metrics["trace.overhead_s"] = statistics.median(
            t - u["round"] for t, u in zip(traced_walls, untraced))
        (work / "spans.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent"],
             "spans": tracer.spans}))
    else:
        def per_s(work, name):
            return work * len(untraced) / sum(t[name] for t in untraced)
        metrics = {
            "setup_s": statistics.median(setup_s),
            "train_steps_per_s": per_s(w.steps, "train"),
            "generate_windows_per_s": per_s(w.gen_count, "generate"),
            "evaluate_bins_per_s": per_s(
                w.gen_count * w.timesteps + w.reference_cols, "evaluate"),
            "peak_rss_mb": peak_rss_mb,
        }
    return {"attempted": attempted, "failed": failed, "rounds": len(rounds),
            "checks": [(name, bool(ok), detail) for name, ok, detail in found],
            "metrics": metrics,
            "timings": {"setup_s": setup_s, "rounds": rounds}}
