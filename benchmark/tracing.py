"""Spans around calls into spiqgan's layers, and the per-layer metrics
derived from them.

Each layer function is wrapped under the name its caller resolves it by:
names a module imports directly (``from .critic import adam_step``) are
replaced in the importing module, names looked up as module attributes
(``gen_mod.forward_batch``) in the defining module.  Nothing under ``src/``
is edited; the wrappers are removed when the traced block ends.
"""

from __future__ import annotations

import functools
import math
import os
import time
from collections import Counter

from spiqgan import cli, critic, generator, stats, training


def _gate_passes(cfg) -> int:
    """Full-state passes of one circuit: per layer an RX, RY and RZ sweep
    over every qubit, then q-1 CNOT gathers."""
    return cfg.n_layers * (4 * cfg.n_qubits - 1)


# Every pass reads and writes each complex128 amplitude once.
_BYTES_PER_AMP_UPDATE = 2 * 16


def _count_kernel(counts: Counter, cfg, thetas, z) -> None:
    rows = int(thetas.shape[0])
    amps = 2 ** cfg.n_qubits
    updates = rows * amps * _gate_passes(cfg)
    rows_per_chunk = max(1, generator._CHUNK_ELEMS // amps)
    counts["generator.sim_rows"] += rows
    counts["generator.amp_updates"] += updates
    counts["generator.kernel_bytes_computed"] += (
        updates * _BYTES_PER_AMP_UPDATE)
    counts["generator.chunks"] += math.ceil(rows / rows_per_chunk)


def _count_file_bytes(counts: Counter, path, *_) -> None:
    counts["spikedata.load_spikes.bytes"] += os.path.getsize(path)


# (module holding the name the caller resolves, attribute, span name,
#  metric kind, work counter).  Kind "self" reports time minus the time of
# wrapped calls made inside; kind "total" reports the whole span.
WRAPPED = [
    (generator, "batch_patch_probs", "generator.batch_patch_probs", "self",
     _count_kernel),
    (generator, "forward_batch", "generator.forward_batch", "self", None),
    (generator, "param_shift_batch", "generator.param_shift_batch", "self",
     None),
    (cli, "sample_batch", "generator.sample_batch", "self", None),
    (critic, "critic_forward_batch", "critic.critic_forward_batch", "total",
     None),
    (critic, "critic_backward_batch", "critic.critic_backward_batch", "total",
     None),
    (training, "adam_step", "critic.adam_step", "total", None),
    (training, "clip_weights", "critic.clip_weights", "total", None),
    (training, "critic_step", "training.critic_step", "self", None),
    (training, "generator_step", "training.generator_step", "self", None),
    (cli, "train", "training.train", "self", None),
    (training, "model_state_distribution",
     "training.model_state_distribution", "total", None),
    (cli, "save_checkpoint", "training.save_checkpoint", "total", None),
    (cli, "load_checkpoint", "training.load_checkpoint", "total", None),
    (training, "sample_windows", "spikedata.sample_windows", "total", None),
    (cli, "load_spikes", "spikedata.load_spikes", "total", _count_file_bytes),
    (cli, "save_spikes", "spikedata.save_spikes", "total", None),
    (stats, "build_report", "stats.build_report", "total", None),
    (stats, "state_histogram", "stats.state_histogram", "total", None),
    (stats, "js_divergence", "stats.js_divergence", "total", None),
    (cli, "cmd_train", "cli.train", "self", None),
    (cli, "cmd_generate", "cli.generate", "self", None),
    (cli, "cmd_evaluate", "cli.evaluate", "self", None),
]

# Work counts that must repeat exactly from round to round and run to run.
EXACT_COUNTS = ("generator.sim_rows", "generator.amp_updates",
                "generator.kernel_bytes_computed", "generator.chunks")


def _time_metric(span: str, kind: str) -> str:
    return f"{span}.self_s" if kind == "self" else f"{span}.s"


def per_layer_metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units: dict[str, str] = {}
    for _, _, span, kind, _ in WRAPPED:
        units[_time_metric(span, kind)] = "s"
        units[f"{span}.calls"] = "count"
    units["generator.amp_updates_per_s"] = "1/s"
    units["generator.sim_rows"] = "count"
    units["generator.amp_updates"] = "count"
    units["generator.kernel_bytes_computed"] = "B"
    units["generator.chunks"] = "count"
    units["spikedata.load_spikes.bytes_per_s"] = "B/s"
    units["trace.overhead_s"] = "s"
    return units


class Tracer:
    """Records (name, start, end, parent) spans in memory while installed.

    Use as a context manager around the calls to trace; the wrappers are
    removed on exit even when a call raises.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span of the given name."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent])
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx][1] = start
            self.spans[idx][2] = end

    def _wrap(self, original, name: str, counter):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if counter is not None:
                counter(self.counts, *args, **kwargs)
            return self.span(name, original, *args, **kwargs)
        return wrapper

    def __enter__(self):
        for module, attr, name, _, counter in WRAPPED:
            original = getattr(module, attr)
            self._restore.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, counter))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()
        return False

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total time and self time."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _), children in zip(self.spans, child_time):
            row = out.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0})
            row["calls"] += 1
            row["total"] += end - start
            row["self"] += end - start - children
        return out


def layer_metrics(tracer: Tracer, rounds: int) -> dict[str, float]:
    """Per-layer metrics per traced round (rounds are identical work)."""
    totals = tracer.totals()
    metrics: dict[str, float] = {}
    for _, _, span, kind, _ in WRAPPED:
        row = totals.get(span, {"calls": 0, "total": 0.0, "self": 0.0})
        seconds = row["self"] if kind == "self" else row["total"]
        metrics[_time_metric(span, kind)] = seconds / rounds
        metrics[f"{span}.calls"] = row["calls"] // rounds
    for key in EXACT_COUNTS:
        metrics[key] = tracer.counts[key] // rounds
    kernel_s = metrics["generator.batch_patch_probs.self_s"]
    metrics["generator.amp_updates_per_s"] = (
        metrics["generator.amp_updates"] / kernel_s if kernel_s > 0 else 0.0)
    load_s = metrics["spikedata.load_spikes.s"]
    metrics["spikedata.load_spikes.bytes_per_s"] = (
        tracer.counts["spikedata.load_spikes.bytes"] / rounds / load_s
        if load_s > 0 else 0.0)
    return metrics
