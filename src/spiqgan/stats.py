"""Evaluation statistics for spike windows: firing rate, pairwise covariance,
k-probability, autocorrelogram, state histogram, JS divergence, and MSE.

All moments use divisor N (population form), pooled over every bin of every
sample, so each estimator has one fixed definition an oracle can replicate.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError
from .fileio import atomic_path
from .spikedata import MAX_STATE_BITS, state_indices


@dataclass
class SampleMeta:
    n_neurons: int
    n_bins: int
    n_samples: int
    bin_width: float


@dataclass
class StatReport:
    firing_rate: np.ndarray            # per neuron, Hz
    pairwise_cov: np.ndarray           # upper triangle, row-major pair order
    k_probability: np.ndarray          # length n+1
    autocorrelogram: np.ndarray | None  # per lag; None if undefined
    sample_meta: SampleMeta


def _stack(samples) -> np.ndarray:
    arr = np.asarray(samples, dtype=float)
    if arr.ndim == 2:
        arr = arr[None]
    if arr.ndim != 3 or arr.shape[0] < 1:
        raise ConfigurationError(
            f"samples must be a non-empty stack of n x t matrices, got shape {arr.shape}"
        )
    return arr


def firing_rate(samples, bin_width: float) -> np.ndarray:
    """Spikes per second per neuron, pooled over all samples and bins."""
    arr = _stack(samples)
    if not bin_width > 0:
        raise ConfigurationError("bin_width must be > 0")
    total = arr.sum(axis=(0, 2))
    bins_per_neuron = arr.shape[0] * arr.shape[2]
    return total / (bins_per_neuron * bin_width)


def pairwise_covariance(samples) -> np.ndarray:
    """cov(i, j) = E[s_i s_j] - E[s_i] E[s_j] over pooled bins, for i < j."""
    arr = _stack(samples)
    n = arr.shape[1]
    if n < 2:
        raise ConfigurationError("pairwise covariance needs at least 2 neurons")
    flat = arr.transpose(1, 0, 2).reshape(n, -1)
    mean = flat.mean(axis=1)
    second = (flat @ flat.T) / flat.shape[1]
    cov = second - np.outer(mean, mean)
    iu = np.triu_indices(n, k=1)
    return cov[iu]


def k_probability(samples) -> np.ndarray:
    """P(exactly k neurons spike in a bin), pooled over samples; length n+1."""
    arr = _stack(samples)
    n = arr.shape[1]
    counts = arr.sum(axis=1).astype(int).reshape(-1)
    return np.bincount(counts, minlength=n + 1) / counts.size


def autocorrelogram(samples, max_lag: int) -> np.ndarray:
    """Variance-normalized lag correlation, averaged over non-constant neurons.

    Per neuron the pooled all-bin mean centers every product, lagged products
    are averaged over valid offsets within each sample and then across
    samples, and the lag-0 value (the pooled variance) normalizes the curve,
    so the first entry is exactly 1.
    """
    arr = _stack(samples)
    b, n, t = arr.shape
    if max_lag < 0 or max_lag >= t:
        raise ConfigurationError(
            f"max_lag must satisfy 0 <= max_lag < {t}, got {max_lag}"
        )
    mu = arr.mean(axis=(0, 2))
    centered = arr - mu[None, :, None]
    var = np.einsum("bnt,bnt->n", centered, centered) / (b * t)
    alive = var > 0
    if not alive.any():
        raise ConfigurationError(
            "autocorrelogram undefined: every neuron is constant"
        )
    out = np.empty(max_lag + 1)
    for lag in range(max_lag + 1):
        cov = np.einsum("bnt,bnt->n", centered[:, :, :t - lag],
                        centered[:, :, lag:]) / (b * (t - lag))
        out[lag] = (cov[alive] / var[alive]).mean()
    return out


def state_histogram(samples) -> np.ndarray:
    """Empirical distribution over all 2^(n*t) window states."""
    arr = np.asarray(samples)
    if arr.ndim == 2:
        arr = arr[None]
    _, n, t = arr.shape
    if n * t > MAX_STATE_BITS:
        raise ConfigurationError(
            f"state space 2^{n * t} too large (max {MAX_STATE_BITS} bits)"
        )
    idx = state_indices(arr.astype(np.uint8))
    return np.bincount(idx, minlength=2 ** (n * t)) / idx.size


def js_divergence(p, q) -> float:
    """Jensen-Shannon divergence, base-2 logs, in [0, 1]; 0*log0 := 0."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ConfigurationError(
            f"length mismatch: {p.shape} vs {q.shape}"
        )
    for name, vec in (("p", p), ("q", q)):
        if abs(vec.sum() - 1.0) > 1e-6:
            raise ConfigurationError(f"{name} must sum to 1 within 1e-6")
    p = p / p.sum()
    q = q / q.sum()
    mid = 0.5 * (p + q)

    def half_kl(a):
        mask = a > 0
        return float(np.sum(a[mask] * np.log2(a[mask] / mid[mask])))

    return 0.5 * half_kl(p) + 0.5 * half_kl(q)


def stats_mse(a, b) -> float:
    """Mean squared difference of two equal-length statistic vectors."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ConfigurationError(f"length mismatch: {a.shape} vs {b.shape}")
    return float(np.mean((a - b) ** 2))


def build_report(samples, bin_width: float, max_lag: int) -> StatReport:
    """All estimators over one sample set; the autocorrelogram is omitted
    (None) when every neuron is constant."""
    arr = _stack(samples)
    b, n, t = arr.shape
    try:
        acorr = autocorrelogram(arr, max_lag)
    except ConfigurationError as exc:
        if "undefined" not in str(exc):
            raise
        acorr = None
    return StatReport(
        firing_rate=firing_rate(arr, bin_width),
        pairwise_cov=pairwise_covariance(arr),
        k_probability=k_probability(arr),
        autocorrelogram=acorr,
        sample_meta=SampleMeta(n, t, b, bin_width),
    )


def _write_stat_csv(path: Path, name: str, values: np.ndarray) -> None:
    with atomic_path(path) as tmp, open(tmp, "w", encoding="utf-8",
                                        newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["stat", "index", "value"])
        for i, v in enumerate(values):
            writer.writerow([name, i, repr(float(v))])


def write_report_csvs(report: StatReport, out_dir) -> None:
    """Bundle the report as one directory of stat,index,value CSVs."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_stat_csv(out / "firing_rate.csv", "firing_rate", report.firing_rate)
    _write_stat_csv(out / "pairwise_covariance.csv", "pairwise_covariance",
                    report.pairwise_cov)
    _write_stat_csv(out / "k_probability.csv", "k_probability",
                    report.k_probability)
    if report.autocorrelogram is not None:
        _write_stat_csv(out / "autocorrelogram.csv", "autocorrelogram",
                        report.autocorrelogram)
    meta = report.sample_meta
    with atomic_path(out / "meta.csv") as tmp, open(
            tmp, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["key", "value"])
        writer.writerow(["neurons", meta.n_neurons])
        writer.writerow(["timesteps", meta.n_bins])
        writer.writerow(["samples", meta.n_samples])
        writer.writerow(["bin_width", repr(meta.bin_width)])
