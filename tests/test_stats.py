import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spiqgan import stats
from spiqgan.errors import ConfigurationError
from spiqgan.spikedata import SpikeMatrix, all_windows, first_n_spec

from _oracles import (brute_autocorrelogram, brute_firing_rate,
                      brute_k_probability, brute_pairwise_cov,
                      brute_state_histogram)


def random_samples(rng, count=1, n=3, t=8, p=0.4):
    return [(rng.random((n, t)) < p).astype(np.uint8) for _ in range(count)]


# --- firing rate ------------------------------------------------------------

def test_firing_rate_all_zero():
    samples = [np.zeros((3, 5), dtype=int)] * 2
    np.testing.assert_array_equal(stats.firing_rate(samples, 0.02), [0, 0, 0])


def test_firing_rate_arithmetic():
    row = np.zeros((1, 100), dtype=int)
    row[0, :20] = 1
    assert stats.firing_rate([row], 0.02)[0] == pytest.approx(10.0)


def test_firing_rate_all_ones():
    samples = [np.ones((2, 7), dtype=int)]
    np.testing.assert_allclose(stats.firing_rate(samples, 0.02), [50.0, 50.0])


def test_firing_rate_scales_with_bin_width():
    rng = np.random.default_rng(0)
    samples = random_samples(rng, count=3)
    full = stats.firing_rate(samples, 0.02)
    half = stats.firing_rate(samples, 0.01)
    np.testing.assert_allclose(half, 2 * full)


def test_firing_rate_empty_rejected():
    with pytest.raises(ConfigurationError):
        stats.firing_rate(np.zeros((0, 2, 2)), 0.02)


def test_firing_rate_matches_brute_force():
    rng = np.random.default_rng(20)
    samples = random_samples(rng, count=3)
    np.testing.assert_allclose(stats.firing_rate(samples, 0.02),
                               brute_firing_rate(samples, 0.02), atol=1e-12)


# --- pairwise covariance ------------------------------------------------------

def test_covariance_identical_fair_rows():
    sample = np.array([[1, 0, 1, 0], [1, 0, 1, 0]])
    assert stats.pairwise_covariance([sample])[0] == pytest.approx(0.25)


def test_covariance_constant_rows_zero():
    sample = np.array([[1, 1, 1, 1], [0, 0, 0, 0]])
    assert stats.pairwise_covariance([sample])[0] == pytest.approx(0.0)


def test_covariance_matches_brute_force():
    rng = np.random.default_rng(1)
    samples = random_samples(rng, count=2)
    np.testing.assert_allclose(stats.pairwise_covariance(samples),
                               brute_pairwise_cov(samples), atol=1e-12)


def test_covariance_needs_two_neurons():
    with pytest.raises(ConfigurationError):
        stats.pairwise_covariance([np.zeros((1, 4), dtype=int)])


# --- k-probability ------------------------------------------------------------

def test_k_probability_all_zero():
    out = stats.k_probability([np.zeros((3, 4), dtype=int)])
    np.testing.assert_array_equal(out, [1, 0, 0, 0])


def test_k_probability_counting():
    sample = np.array([[0, 0, 1, 1], [0, 1, 0, 1]])
    np.testing.assert_allclose(stats.k_probability([sample]),
                               [0.25, 0.5, 0.25])


def test_k_probability_sums_to_one():
    rng = np.random.default_rng(2)
    out = stats.k_probability(random_samples(rng, count=4))
    assert out.sum() == pytest.approx(1.0, abs=1e-9)


def test_k_probability_matches_brute_force():
    rng = np.random.default_rng(21)
    samples = random_samples(rng, count=3)
    np.testing.assert_allclose(stats.k_probability(samples),
                               brute_k_probability(samples), atol=1e-12)


# --- autocorrelogram -----------------------------------------------------------

def test_autocorrelogram_lag_zero_is_one():
    rng = np.random.default_rng(3)
    out = stats.autocorrelogram(random_samples(rng), max_lag=3)
    assert out[0] == pytest.approx(1.0, abs=1e-12)


def test_autocorrelogram_iid_near_zero():
    rng = np.random.default_rng(4)
    sample = (rng.random((1, 100_000)) < 0.3).astype(np.uint8)
    out = stats.autocorrelogram([sample], max_lag=3)
    sigma = 1.0 / np.sqrt(100_000)
    assert (np.abs(out[1:]) < 3 * sigma).all()


def test_autocorrelogram_alternating_row():
    sample = np.array([[1, 0] * 10])
    out = stats.autocorrelogram([sample], max_lag=2)
    assert out[1] == pytest.approx(-1.0, abs=1e-12)
    assert out[2] == pytest.approx(1.0, abs=1e-12)


def test_autocorrelogram_constant_rejected():
    with pytest.raises(ConfigurationError, match="undefined"):
        stats.autocorrelogram([np.ones((2, 10), dtype=int)], max_lag=2)


def test_autocorrelogram_lag_bounds():
    with pytest.raises(ConfigurationError):
        stats.autocorrelogram([np.zeros((1, 4), dtype=int)], max_lag=4)


def test_autocorrelogram_matches_brute_force():
    rng = np.random.default_rng(5)
    samples = random_samples(rng, count=3)
    np.testing.assert_allclose(stats.autocorrelogram(samples, 5),
                               brute_autocorrelogram(samples, 5), atol=1e-12)


# --- count pass ------------------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(st.integers(1, 6), st.integers(1, 12),
       st.lists(st.sampled_from(["random", "zero", "one"]), min_size=6,
                max_size=6),
       st.integers(0, 3),
       st.one_of(st.integers(1, 20).map(lambda b: (0, b)), st.sampled_from(
           [(0, 63), (0, 64), (0, 65), (1, -1), (1, 0), (1, 1), (2, 1)])),
       st.integers(0, 2**31))
@example(n=3, t=5, kinds=["random"] * 6, words=1, size=(0, 1), seed=0)
@example(n=3, t=5, kinds=["random"] * 6, words=1, size=(0, 63), seed=1)
@example(n=3, t=5, kinds=["random"] * 6, words=0, size=(0, 64), seed=2)
@example(n=3, t=5, kinds=["random"] * 6, words=0, size=(0, 65), seed=3)
@example(n=3, t=5, kinds=["random"] * 6, words=2, size=(1, -1), seed=4)
@example(n=3, t=5, kinds=["random"] * 6, words=2, size=(1, 0), seed=5)
@example(n=3, t=5, kinds=["random"] * 6, words=2, size=(1, 1), seed=6)
@example(n=3, t=5, kinds=["random"] * 6, words=1, size=(2, 1), seed=7)
def test_estimators_match_brute_force_on_random_stacks(n, t, kinds, words,
                                                       size, seed):
    """Every estimator against its brute oracle, with all-zero and constant
    neurons mixed in, on stacks that end inside a 64-sample word, exactly
    on one or one sample past one, and on either side of a block boundary.
    ``size`` is (blocks, extra samples).  A block is ``words`` words of
    samples, or one word when ``words`` is 0 and the block budget holds
    less than a word."""
    blocks, extra = size
    b = blocks * 64 * max(words, 1) + extra
    rng = np.random.default_rng(seed)
    stack = (rng.random((b, n, t)) < rng.uniform(0.05, 0.95)).astype(np.uint8)
    for k, kind in enumerate(kinds[:n]):
        if kind != "random":
            stack[:, k] = kind == "one"
    samples = list(stack)
    budget = 64 * words * n * t if words else 64 * n * t - 1
    with mock.patch.object(stats, "_BLOCK_BYTES", budget):
        np.testing.assert_allclose(stats.firing_rate(stack, 0.02),
                                   brute_firing_rate(samples, 0.02),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(stats.k_probability(stack),
                                   brute_k_probability(samples),
                                   rtol=0, atol=1e-12)
        if n >= 2:
            np.testing.assert_allclose(stats.pairwise_covariance(stack),
                                       brute_pairwise_cov(samples),
                                       rtol=0, atol=1e-12)
        constant = (stack == stack[:1, :, :1]).all(axis=(0, 2))
        # The oracle computes each lag on its own, so every max_lag's curve
        # is a prefix of the longest one.
        curve = None if constant.all() else brute_autocorrelogram(samples,
                                                                  t - 1)
        for max_lag in range(t):
            if curve is None:
                with pytest.raises(ConfigurationError, match="undefined"):
                    stats.autocorrelogram(stack, max_lag)
                continue
            np.testing.assert_allclose(stats.autocorrelogram(stack, max_lag),
                                       curve[:max_lag + 1], rtol=0,
                                       atol=1e-12)


def test_estimators_match_brute_force_on_long_windows():
    """Three 200-bin windows of two neurons, every lag: each estimator
    equals its oracle."""
    b, n, t = 3, 2, 200
    rng = np.random.default_rng(21)
    samples = random_samples(rng, count=b, n=n, t=t, p=0.3)
    report = stats.build_report(np.stack(samples), 0.02, t - 1)
    np.testing.assert_allclose(report.firing_rate,
                               brute_firing_rate(samples, 0.02),
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(report.k_probability,
                               brute_k_probability(samples),
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(report.pairwise_cov,
                               brute_pairwise_cov(samples),
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(report.autocorrelogram,
                               brute_autocorrelogram(samples, t - 1),
                               rtol=0, atol=1e-12)


def test_lag_counts_of_long_windows_stay_small():
    """A 4000-bin window's counts at all 4000 lags hold no t x t matrix: a
    4000 x 4000 int64 one alone would take 128 MB."""
    rng = np.random.default_rng(22)
    stack = (rng.random((2, 1, 4000)) < 0.3).astype(np.uint8)
    tracemalloc.start()
    try:
        report = stats.build_report(stack, 0.02, 3999)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert report.autocorrelogram[0] == 1.0


def test_count_pass_holds_one_block():
    """The count pass over 300 000 non-overlapping 8 x 2 windows of one
    raster (a strided view, not a copy) allocates at most 256 KiB at once,
    whatever the number of blocks."""
    rng = np.random.default_rng(23)
    raster = SpikeMatrix((rng.random((8, 600_000)) < 0.1).astype(np.uint8))
    windows = all_windows(raster, first_n_spec(8, 2), stride=2)
    assert windows.shape == (300_000, 8, 2) and windows.base is not None
    tracemalloc.start()
    try:
        counts = stats._count(windows, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 256 * 2**10
    np.testing.assert_array_equal(counts.spikes,
                                  raster.data.sum(axis=1, dtype=np.int64))


def test_estimators_exact_on_two_million_bins():
    """At 2^21 bins per neuron, over many blocks, the counts are exact:
    each moment equals its formula over Python-int counts."""
    rng = np.random.default_rng(9)
    b, n, t = 2**17, 3, 16
    burst = rng.random((b, 1, t)) < 0.3
    stack = (rng.random((b, n, t)) < np.where(burst, 0.5, 0.1)).astype(np.uint8)
    total = b * t
    spikes = [int(np.count_nonzero(stack[:, i])) for i in range(n)]
    rates = stats.firing_rate(stack, 0.02)
    for i in range(n):
        assert rates[i] == pytest.approx(spikes[i] / (total * 0.02),
                                         rel=1e-15)
    per_bin = stack.sum(axis=1).ravel()
    kprob = stats.k_probability(stack)
    for k in range(n + 1):
        assert kprob[k] == pytest.approx(
            int(np.count_nonzero(per_bin == k)) / total, rel=1e-15)
    cov = stats.pairwise_covariance(stack)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for value, (i, j) in zip(cov, pairs):
        both = int(np.count_nonzero(stack[:, i] & stack[:, j]))
        expected = both / total - (spikes[i] / total) * (spikes[j] / total)
        assert value == pytest.approx(expected, rel=1e-15)
    assert stats.autocorrelogram(stack, 3)[0] == 1.0


def test_samples_must_be_binary():
    with pytest.raises(ConfigurationError, match="0/1"):
        stats.firing_rate([np.full((2, 3), 2)], 0.02)
    with pytest.raises(ConfigurationError, match="0/1"):
        stats.k_probability(np.full((1, 2, 3), 2, dtype=np.uint8))


# --- state histogram -----------------------------------------------------------

def test_state_histogram_identical_samples():
    sample = np.array([[1], [0]])
    out = stats.state_histogram([sample] * 5)
    assert out[2] == 1.0
    assert out.sum() == 1.0


def test_state_histogram_uniform():
    samples = [np.array([[0], [0]]), np.array([[0], [1]]),
               np.array([[1], [0]]), np.array([[1], [1]])]
    np.testing.assert_allclose(stats.state_histogram(samples), [0.25] * 4)


def test_state_histogram_guard():
    with pytest.raises(ConfigurationError):
        stats.state_histogram([np.zeros((3, 7), dtype=int)])


def test_state_histogram_matches_brute_force():
    rng = np.random.default_rng(6)
    samples = random_samples(rng, count=20, n=2, t=3)
    np.testing.assert_allclose(stats.state_histogram(samples),
                               brute_state_histogram(samples), atol=1e-12)


@pytest.mark.parametrize("n, t", [(2, 4), (3, 3), (4, 4), (1, 17)])
def test_state_histogram_matches_brute_force_past_a_byte(n, t):
    """Indices of 8, 9, 16 and 17 bits, in uint8, uint16 and uint32."""
    rng = np.random.default_rng(16 + n * t)
    samples = random_samples(rng, count=30, n=n, t=t)
    samples[0] = np.ones((n, t), dtype=samples[0].dtype)
    np.testing.assert_array_equal(stats.state_histogram(samples),
                                  brute_state_histogram(samples))


# --- JS divergence --------------------------------------------------------------

def test_js_identical_is_zero():
    p = np.array([0.2, 0.3, 0.5])
    assert stats.js_divergence(p, p) == 0.0


def test_js_disjoint_is_one():
    assert stats.js_divergence([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(0.01, 10.0), min_size=2, max_size=16),
       st.integers(0, 2**31))
def test_js_symmetric_and_bounded(weights, seed):
    p = np.array(weights)
    p /= p.sum()
    q = np.random.default_rng(seed).dirichlet(np.ones(len(weights)))
    forward = stats.js_divergence(p, q)
    backward = stats.js_divergence(q, p)
    assert forward == pytest.approx(backward, abs=1e-12)
    assert -1e-12 <= forward <= 1.0 + 1e-12


def test_js_input_validation():
    with pytest.raises(ConfigurationError):
        stats.js_divergence([0.5, 0.5], [0.3, 0.3, 0.4])
    with pytest.raises(ConfigurationError):
        stats.js_divergence([0.7, 0.7], [0.5, 0.5])


# --- MSE -------------------------------------------------------------------------

def test_stats_mse_examples():
    assert stats.stats_mse([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert stats.stats_mse([0.0, 0.0], [1.0, 1.0]) == 1.0
    assert stats.stats_mse([2.0], [0.0]) == 4.0
    with pytest.raises(ConfigurationError):
        stats.stats_mse([1.0], [1.0, 2.0])


# --- report -----------------------------------------------------------------------

def test_report_all_zero_samples():
    report = stats.build_report([np.zeros((2, 6), dtype=int)], 0.02, 3)
    np.testing.assert_array_equal(report.firing_rate, [0, 0])
    np.testing.assert_array_equal(report.pairwise_cov, [0])
    assert report.k_probability[0] == 1.0
    assert report.autocorrelogram is None


def test_report_composition_matches_parts():
    rng = np.random.default_rng(7)
    samples = random_samples(rng, count=4)
    report = stats.build_report(samples, 0.02, 4)
    np.testing.assert_array_equal(report.firing_rate,
                                  stats.firing_rate(samples, 0.02))
    np.testing.assert_array_equal(report.pairwise_cov,
                                  stats.pairwise_covariance(samples))
    np.testing.assert_array_equal(report.k_probability,
                                  stats.k_probability(samples))
    np.testing.assert_array_equal(report.autocorrelogram,
                                  stats.autocorrelogram(samples, 4))
    assert report.sample_meta.n_samples == 4


def test_report_csv_bundle(tmp_path):
    rng = np.random.default_rng(8)
    report = stats.build_report(random_samples(rng, count=2), 0.02, 2)
    out = tmp_path / "report"
    stats.write_report_csvs(report, out)
    names = {p.name for p in out.iterdir()}
    assert names == {"firing_rate.csv", "pairwise_covariance.csv",
                     "k_probability.csv", "autocorrelogram.csv", "meta.csv"}
    lines = (out / "firing_rate.csv").read_text().splitlines()
    assert lines[0] == "stat,index,value"
    assert lines[1].startswith("firing_rate,0,")
