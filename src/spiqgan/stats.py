"""Evaluation statistics for spike windows: firing rate, pairwise covariance,
k-probability, autocorrelogram, state histogram, JS divergence, and MSE.

All moments use divisor N (population form), pooled over every bin of every
sample, so each estimator has one fixed definition an oracle can replicate.

The four moment estimators come from exact integer counts of the 0/1 bins,
taken in one pass over the stack (``_count``): the neuron x neuron pair
counts, each neuron's within-sample lag-product counts and spikes per
offset, and the histogram of per-bin population counts.  The pass packs each
block of samples into bits, one bit per sample, and takes every count as a
popcount of word ANDs, so no float copy of the stack is made and no count
depends on a summation order.  Each moment then follows from the counts in
closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError
from .fileio import write_csv
from .spikedata import binary_uint8, state_indices

# Bytes of the (n, t, samples) uint8 copy that the count pass packs per
# block; a block holds a whole number of 64-sample words, at least one.
_BLOCK_BYTES = 1 << 17


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


@dataclass
class _Counts:
    """Exact integer counts of a (b, n, t) stack of 0/1 bins."""

    n_samples: int
    n_bins: int
    pairs: np.ndarray         # (n, n): bins where neurons i and j both spike
    population: np.ndarray    # (n+1,): bins where exactly k neurons spike
    per_offset: np.ndarray    # (n, t): spikes of neuron i at offset u
    # (n, max_lag+1): within-sample pairs of neuron i's spikes l offsets
    # apart, l <= max_lag.
    lag_products: np.ndarray

    @property
    def n_neurons(self) -> int:
        return self.pairs.shape[0]

    @property
    def total_bins(self) -> int:
        return self.n_samples * self.n_bins

    @property
    def spikes(self) -> np.ndarray:
        """Spike count per neuron (s_i s_i = s_i)."""
        return np.diagonal(self.pairs)


def _stack(samples) -> np.ndarray:
    """The samples as a (b, n, t) uint8 stack, uncopied if already one."""
    arr = np.asarray(samples)
    if arr.ndim == 2:
        arr = arr[None]
    if arr.ndim != 3 or 0 in arr.shape:
        raise ConfigurationError(
            f"samples must be a non-empty stack of n x t matrices, got shape {arr.shape}"
        )
    return binary_uint8(arr, "samples")


def _count(samples, max_lag: int) -> _Counts:
    """Pair and population counts, and lag counts up to ``max_lag``.

    Each block of whole samples is copied to one (n, t, samples) uint8
    array, padded with all-zero samples to a multiple of 64, and packed
    along the sample axis into uint64 words ``w[i, u]``: bit s of neuron
    i's words at offset u is sample s's bin.  Every count is a popcount:
    pairs (i, j) of ``w[i] & w[j]``, lag-l products of
    ``w[:, :t-l] & w[:, l:]`` and spikes per offset of ``w``.  The
    population histogram counts each k among the block's per-bin neuron
    sums, padding excluded.
    """
    arr = _stack(samples)
    b, n, t = arr.shape
    if not 0 <= max_lag < t:
        raise ConfigurationError(
            f"max_lag must satisfy 0 <= max_lag < {t}, got {max_lag}"
        )
    rows = 64 * min(max(1, _BLOCK_BYTES // (64 * n * t)), -(-b // 64))
    bits = np.empty((n, t, rows), dtype=np.uint8)
    pairs = np.zeros((n, n), dtype=np.int64)
    population = np.zeros(n + 1, dtype=np.int64)
    per_offset = np.zeros((n, t), dtype=np.int64)
    products = np.zeros((n, max_lag + 1), dtype=np.int64)
    for start in range(0, b, rows):
        block = arr[start:start + rows].transpose(1, 2, 0)
        size = block.shape[2]
        np.copyto(bits[..., :size], block)
        bits[..., size:] = 0
        sums = bits[..., :size].sum(axis=0, dtype=np.min_scalar_type(n))
        population += [np.count_nonzero(sums == k) for k in range(n + 1)]
        words = np.packbits(bits, axis=-1).view(np.uint64)
        per_offset += _popcount(words, axis=2)
        for i in range(n - 1):
            pairs[i, i + 1:] += _popcount(words[i] & words[i + 1:],
                                          axis=(1, 2))
        for lag in range(1, max_lag + 1):
            products[:, lag] += _popcount(
                words[:, :t - lag] & words[:, lag:], axis=(1, 2))
    spikes = per_offset.sum(axis=1)
    pairs += pairs.T + np.diag(spikes)
    products[:, 0] = spikes
    return _Counts(b, t, pairs, population, per_offset, products)


def _popcount(words: np.ndarray, axis) -> np.ndarray:
    """Set bits of uint64 ``words``, summed over ``axis``, as int64."""
    return np.bitwise_count(words).sum(axis=axis, dtype=np.int64)


def _firing_rate(counts: _Counts, bin_width: float) -> np.ndarray:
    if not bin_width > 0:
        raise ConfigurationError("bin_width must be > 0")
    return counts.spikes / (counts.total_bins * bin_width)


def _pairwise_covariance(counts: _Counts) -> np.ndarray:
    n = counts.n_neurons
    if n < 2:
        raise ConfigurationError("pairwise covariance needs at least 2 neurons")
    mean = counts.spikes / counts.total_bins
    cov = counts.pairs / counts.total_bins - np.outer(mean, mean)
    return cov[np.triu_indices(n, k=1)]


def _k_probability(counts: _Counts) -> np.ndarray:
    return counts.population / counts.total_bins


def _lag_correlations(counts: _Counts) -> np.ndarray | None:
    """The autocorrelogram from lag counts, or None when every neuron is
    constant.

    For neuron i with c spikes in N = b*t bins (mean mu = c/N) and lag l with
    D = b*(t-l) offset pairs, let S be its lag-l product count and E the sum
    of its spike counts over the first and over the last t-l offsets.  Its
    centered lag covariance is (S - mu E) / D + mu^2 and its variance
    c (N - c) / N^2, so their ratio is the integer fraction
    (S N^2 - c N E + c^2 D) / (D c (N - c)), rounded once.
    """
    b, t, total = counts.n_samples, counts.n_bins, counts.total_bins
    spikes = counts.spikes
    alive = (spikes > 0) & (spikes < total)
    if not alive.any():
        return None
    products = counts.lag_products[alive]
    lags = np.arange(products.shape[1])
    prefix = np.zeros((len(products), t + 1), dtype=np.int64)
    np.cumsum(counts.per_offset[alive], axis=1, out=prefix[:, 1:])
    ends = prefix[:, t - lags] + prefix[:, [t]] - prefix[:, lags]
    # Python ints: the numerators reach N^3, and each quotient is rounded
    # once, by int / int.
    c = spikes[alive].astype(object)[:, None]
    spans = b * (t - lags).astype(object)
    numer = (products.astype(object) * total**2
             - c * total * ends.astype(object) + c * c * spans)
    ratio = (numer / (spans * c * (total - c))).astype(float)
    return ratio.mean(axis=0)


def firing_rate(samples, bin_width: float) -> np.ndarray:
    """Spikes per second per neuron, pooled over all samples and bins."""
    return _firing_rate(_count(samples, 0), bin_width)


def pairwise_covariance(samples) -> np.ndarray:
    """cov(i, j) = E[s_i s_j] - E[s_i] E[s_j] over pooled bins, for i < j."""
    return _pairwise_covariance(_count(samples, 0))


def k_probability(samples) -> np.ndarray:
    """P(exactly k neurons spike in a bin), pooled over samples; length n+1."""
    return _k_probability(_count(samples, 0))


def autocorrelogram(samples, max_lag: int) -> np.ndarray:
    """Variance-normalized lag correlation, averaged over non-constant neurons.

    Per neuron the pooled all-bin mean centers every product, lagged products
    are averaged over valid offsets within each sample and then across
    samples, and the lag-0 value (the pooled variance) normalizes the curve,
    so the first entry is exactly 1.
    """
    out = _lag_correlations(_count(samples, max_lag))
    if out is None:
        raise ConfigurationError(
            "autocorrelogram undefined: every neuron is constant"
        )
    return out


def state_histogram(samples) -> np.ndarray:
    """Empirical distribution over all 2^(n*t) window states."""
    arr = _stack(samples)
    _, n, t = arr.shape
    idx = state_indices(arr)
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
    """All estimators over one sample set, from one count pass.  The
    covariance is empty below two neurons and the autocorrelogram is omitted
    (None) when every neuron is constant."""
    counts = _count(samples, max_lag)
    n = counts.n_neurons
    return StatReport(
        firing_rate=_firing_rate(counts, bin_width),
        pairwise_cov=(_pairwise_covariance(counts) if n >= 2
                      else np.empty(0)),
        k_probability=_k_probability(counts),
        autocorrelogram=_lag_correlations(counts),
        sample_meta=SampleMeta(n, counts.n_bins, counts.n_samples,
                               bin_width),
    )


def write_report_csvs(report: StatReport, out_dir) -> None:
    """Bundle the report as one directory of stat,index,value CSVs."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    vectors = {"firing_rate": report.firing_rate,
               "pairwise_covariance": report.pairwise_cov,
               "k_probability": report.k_probability,
               "autocorrelogram": report.autocorrelogram}
    for name, values in vectors.items():
        if values is not None:
            write_csv(out / f"{name}.csv", ("stat", "index", "value"),
                      ((name, i, repr(float(v)))
                       for i, v in enumerate(values)))
    meta = report.sample_meta
    write_csv(out / "meta.csv", ("key", "value"),
              (("neurons", meta.n_neurons), ("timesteps", meta.n_bins),
               ("samples", meta.n_samples),
               ("bin_width", repr(meta.bin_width))))
