import hashlib
import os
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spiqgan import spikedata as sd
from spiqgan.errors import ConfigurationError, DataFormatError
from spiqgan.training import PURPOSE_SURROGATE, substream

from _oracles import (brute_windows, flatten_windows, reference_load_spikes,
                      state_index)


def test_load_simple_file(tmp_path):
    path = tmp_path / "tiny.spk"
    path.write_text("SPIKES v1 2 4 0.02\n0101\n0011\n")
    m = sd.load_spikes(path)
    np.testing.assert_array_equal(m.data, [[0, 1, 0, 1], [0, 0, 1, 1]])
    assert m.bin_width == 0.02


@pytest.mark.parametrize("text", [
    b"SPIKES v1 2 4 0.02\r\n0101\r\n0011\r\n",
    b"SPIKES v1 2 4 0.02\r0101\r0011\r",
    b"SPIKES v1 2 4 0.02\n0101\n0011",
    b"SPIKES v1 2 4 0.02\n0101\n0011\n\n \n",
])
def test_load_reads_text_that_is_not_plain_lf_rows(tmp_path, text):
    """CRLF and CR line ends, a missing last line end and trailing blank
    lines are read like LF rows."""
    path = tmp_path / "text.spk"
    path.write_bytes(text)
    np.testing.assert_array_equal(sd.load_spikes(path).data,
                                  [[0, 1, 0, 1], [0, 0, 1, 1]])


_LINE_ENDS = (b"\n", b"\r\n", b"\r")
# Each edit replaces, inserts or deletes one of these byte strings.
_EDIT_BYTES = (b"0", b"1", b"x", b"2", b" ", b"\r", b"\n",
               "\u00e9".encode(), b"\xff")


@st.composite
def spike_files(draw):
    """A valid file's bytes, with random line ends, with or without a last
    line end and blank lines after it, and then 0-2 random byte edits."""
    n = draw(st.integers(1, 4))
    # Some files are long enough to cross the reader's 8 KiB buffer.
    bins = draw(st.integers(1, 8) | st.integers(2000, 4000))
    raster = np.random.default_rng(draw(st.integers(0, 2**32 - 1))
                                   ).integers(0, 2, (n, bins), dtype=np.uint8)
    width = draw(st.sampled_from(["0.02", "1.0", "2.5e-3"]))
    lines = [f"SPIKES v1 {n} {bins} {width}".encode()]
    lines += [(row + ord("0")).tobytes() for row in raster]
    ends = draw(st.lists(st.sampled_from(_LINE_ENDS), min_size=n + 1,
                         max_size=n + 1))
    if draw(st.booleans()):
        ends[-1] = b""
    data = b"".join(line + end for line, end in zip(lines, ends))
    data += draw(st.sampled_from([b"", b"\n", b"\r\n\n", b" \n\t\r"]))
    edits = draw(st.lists(st.tuples(
        st.sampled_from(["replace", "insert", "delete"]),
        st.integers(0, 2**20), st.sampled_from(_EDIT_BYTES)), max_size=2))
    for kind, at, new in edits:
        at %= len(data) + (kind == "insert")
        keep = at + (kind != "insert")
        data = data[:at] + (b"" if kind == "delete" else new) + data[keep:]
    return data, edits


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(spike_files())
def test_load_agrees_with_reference_reader(tmp_path, case):
    """The byte reader accepts and refuses what the reference text parser
    does, with the same raster and bin width, and names an ASCII file's
    single fault as it does."""
    data, edits = case
    path = tmp_path / "fuzz.spk"
    path.write_bytes(data)
    try:
        expected, width = reference_load_spikes(path)
    except ValueError as exc:
        with pytest.raises(DataFormatError) as refused:
            sd.load_spikes(path)
        if len(edits) == 1 and data.isascii():
            assert str(refused.value) == str(exc)
        return
    m = sd.load_spikes(path)
    np.testing.assert_array_equal(m.data, expected)
    assert m.bin_width == width


def load_through_fifo(fifo, data):
    """``load_spikes`` of a new FIFO that another thread writes ``data`` to."""
    os.mkfifo(fifo)

    def feed():
        try:
            with open(fifo, "wb") as fh:
                fh.write(data)
        except BrokenPipeError:  # the reader refused the file early
            pass

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        return sd.load_spikes(fifo)
    finally:
        writer.join(timeout=60)
        assert not writer.is_alive()


@pytest.mark.parametrize("end", _LINE_ENDS, ids=["lf", "crlf", "cr"])
def test_load_reads_a_pipe_like_a_file(tmp_path, end):
    """A raster larger than a pipe's buffer, read through a FIFO, equals
    the regular file's; a bad entry is named the same way."""
    rng = np.random.default_rng(8)
    m = sd.SpikeMatrix(rng.integers(0, 2, (3, 50_000)), bin_width=0.005)
    path = tmp_path / "data.spk"
    sd.save_spikes(m, path)
    data = path.read_bytes().replace(b"\n", end)
    path.write_bytes(data)
    piped = load_through_fifo(tmp_path / "good", data)
    np.testing.assert_array_equal(piped.data, sd.load_spikes(path).data)
    assert piped.bin_width == 0.005
    bad = data[:-10] + b"x" + data[-9:]
    with pytest.raises(DataFormatError,
                       match=r"^non-binary entry 'x' at row 2, column "):
        load_through_fifo(tmp_path / "bad", bad)


def test_load_names_a_non_ascii_entry_as_a_byte(tmp_path):
    path = tmp_path / "accent.spk"
    path.write_bytes("SPIKES v1 1 3 0.02\n0\u00e9\n".encode())
    with pytest.raises(DataFormatError, match=(
            r"^non-binary entry b'\\xc3' at row 0, column 1$")):
        sd.load_spikes(path)


def test_load_rejects_non_binary_entry(tmp_path):
    path = tmp_path / "bad.spk"
    path.write_text("SPIKES v1 1 3 0.02\n012\n")
    with pytest.raises(DataFormatError, match="row 0, column 2"):
        sd.load_spikes(path)


def test_load_rejects_ragged_rows(tmp_path):
    path = tmp_path / "ragged.spk"
    path.write_text("SPIKES v1 2 4 0.02\n0101\n011\n")
    with pytest.raises(DataFormatError, match="row 1"):
        sd.load_spikes(path)


@pytest.mark.parametrize("header", [
    "SPIKES v2 1 1 0.02",
    "NOTSPIKES v1 1 1 0.02",
    "SPIKES v1 1 1",
    "SPIKES v1 x 1 0.02",
    "SPIKES v1 1 1 -0.5",
])
def test_load_rejects_bad_headers(tmp_path, header):
    path = tmp_path / "bad.spk"
    path.write_text(header + "\n0\n")
    with pytest.raises(DataFormatError):
        sd.load_spikes(path)


def test_load_rejects_trailing_rows(tmp_path):
    path = tmp_path / "extra.spk"
    path.write_text("SPIKES v1 1 3 0.02\n010\n111\n")
    with pytest.raises(DataFormatError, match="trailing"):
        sd.load_spikes(path)


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    m = sd.SpikeMatrix((rng.random((5, 40)) < 0.3).astype(int), bin_width=0.01)
    path = tmp_path / "round.spk"
    sd.save_spikes(m, path)
    loaded = sd.load_spikes(path)
    np.testing.assert_array_equal(loaded.data, m.data)
    assert loaded.bin_width == m.bin_width


def test_long_raster_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    m = sd.SpikeMatrix((rng.random((2, 1_000_000)) < 0.3).astype(np.uint8))
    path = tmp_path / "long.spk"
    sd.save_spikes(m, path)
    rows = ["".join(map(str, row.tolist())) for row in m.data]
    assert path.read_bytes() == (
        "SPIKES v1 2 1000000 0.02\n" + "\n".join(rows) + "\n").encode()
    np.testing.assert_array_equal(sd.load_spikes(path).data, m.data)


def test_save_holds_one_row(tmp_path):
    """Writing a 2 x 10^6 raster allocates one row's line, not copies of
    the raster."""
    m = sd.SpikeMatrix(np.ones((2, 1_000_000), dtype=np.uint8))
    tracemalloc.start()
    try:
        sd.save_spikes(m, tmp_path / "long.spk")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * m.n_bins


def test_load_reports_bad_entry_far_into_row(tmp_path):
    row = ["0"] * 200_000
    row[123_456] = "x"
    path = tmp_path / "bad.spk"
    path.write_text("SPIKES v1 2 200000 0.02\n" + "1" * 200_000 + "\n"
                    + "".join(row) + "\n")
    with pytest.raises(DataFormatError,
                       match=r"non-binary entry 'x' at row 1, column 123456$"):
        sd.load_spikes(path)


def test_save_is_byte_deterministic(tmp_path):
    m = sd.SpikeMatrix(np.array([[1, 0], [0, 1]]))
    a, b = tmp_path / "a.spk", tmp_path / "b.spk"
    sd.save_spikes(m, a)
    sd.save_spikes(m, b)
    assert a.read_bytes() == b.read_bytes()


def test_empty_matrix_refused():
    with pytest.raises(ConfigurationError):
        sd.SpikeMatrix(np.zeros((0, 4)))
    with pytest.raises(ConfigurationError):
        sd.SpikeMatrix(np.zeros((2, 0)))


def test_non_binary_matrix_refused():
    with pytest.raises(ConfigurationError):
        sd.SpikeMatrix(np.array([[0, 2], [1, 0]]))


def test_windows_full_width():
    m = sd.SpikeMatrix(np.array([[0, 1, 0], [1, 1, 0]]))
    spec = sd.WindowSpec((0, 1), 3)
    out = sd.sample_windows(m, spec, 4, np.random.default_rng(0))
    assert out.shape == (4, 6)
    expected = flatten_windows(m.data[None])[0]
    for row in out:
        np.testing.assert_array_equal(row, expected)


def test_windows_constant_matrix():
    m = sd.SpikeMatrix(np.ones((3, 20), dtype=int))
    spec = sd.WindowSpec((0, 1, 2), 4)
    out = sd.sample_windows(m, spec, 8, np.random.default_rng(1))
    assert (out == 1.0).all()


def test_window_layout_is_patch_major():
    m = sd.SpikeMatrix(np.array([[1, 0], [0, 1]]))
    out = sd.sample_windows(m, sd.WindowSpec((0, 1), 2), 1,
                            np.random.default_rng(0))
    # timestep 0: neurons (1, 0); timestep 1: neurons (0, 1)
    np.testing.assert_array_equal(out[0], [1, 0, 0, 1])


def test_window_start_uniformity():
    # encode each column index in binary over 7 rows so a sampled t=1
    # window identifies its start column exactly
    cols = 100
    data = np.array([[(c >> i) & 1 for c in range(cols)] for i in range(7)])
    m = sd.SpikeMatrix(data)
    spec = sd.WindowSpec(tuple(range(7)), 1)
    draws = 10_000
    out = sd.sample_windows(m, spec, draws, np.random.default_rng(2))
    starts = (out.astype(int) * (1 << np.arange(7))).sum(axis=1)
    assert starts.min() >= 0 and starts.max() <= cols - 1
    counts = np.bincount(starts, minlength=cols)
    expected = draws / cols
    sigma = np.sqrt(draws * (1 / cols) * (1 - 1 / cols))
    assert (np.abs(counts - expected) < 3 * sigma).mean() > 0.97


def test_window_spec_validation():
    m = sd.SpikeMatrix(np.zeros((2, 5), dtype=int))
    with pytest.raises(ConfigurationError):
        sd.WindowSpec((0, 0), 2)
    with pytest.raises(ConfigurationError):
        sd.WindowSpec((0, 1), 0)
    with pytest.raises(ConfigurationError):
        sd.WindowSpec((0, 5), 2).validate_for(m)
    with pytest.raises(ConfigurationError):
        sd.WindowSpec((0, 1), 9).validate_for(m)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 30), st.integers(1, 30),
       st.integers(0, 2**31))
def test_windows_stay_in_bounds(n, cols, window_len, seed):
    rng = np.random.default_rng(seed)
    m = sd.SpikeMatrix((rng.random((n, cols)) < 0.5).astype(int))
    if window_len > cols:
        with pytest.raises(ConfigurationError):
            sd.WindowSpec(tuple(range(n)), window_len).validate_for(m)
        return
    spec = sd.WindowSpec(tuple(range(n)), window_len)
    out = sd.sample_windows(m, spec, 16, rng)
    assert out.shape == (16, n * window_len)
    assert np.isin(out, (0.0, 1.0)).all()


def test_surrogate_iid_rates():
    rng = np.random.default_rng(3)
    rates = np.array([0.1, 0.3])
    m = sd.synthesize_surrogate(2, 100_000, rates, 0.9, 1.0, rng)
    emp = m.data.mean(axis=1)
    sigma = np.sqrt(rates * (1 - rates) / 100_000)
    assert (np.abs(emp - rates) < 3 * sigma).all()


def test_surrogate_iid_covariance_near_zero():
    rng = np.random.default_rng(4)
    m = sd.synthesize_surrogate(2, 100_000, [0.2, 0.2], 0.9, 1.0, rng)
    x, y = m.data[0].astype(float), m.data[1].astype(float)
    cov = (x * y).mean() - x.mean() * y.mean()
    sigma = np.sqrt(0.2 * 0.8 * 0.2 * 0.8 / 100_000)
    assert abs(cov) < 3 * sigma


def test_surrogate_bursting_positive_covariances():
    rng = np.random.default_rng(5)
    m = sd.synthesize_surrogate(4, 100_000, [0.1, 0.15, 0.2, 0.25],
                                0.9, 2.5, rng)
    data = m.data.astype(float)
    for i in range(4):
        for j in range(i + 1, 4):
            cov = (data[i] * data[j]).mean() - data[i].mean() * data[j].mean()
            assert cov > 0


def test_surrogate_bytes_are_pinned():
    """One seed's raster is fixed: the row-by-row draw must take Philox's
    uniforms in the order of one (n, cols) draw."""
    m = sd.synthesize_surrogate(3, 5000, [0.05, 0.1, 0.3], 0.9, 2.5,
                                substream(1234, PURPOSE_SURROGATE))
    assert hashlib.sha256(m.data.tobytes()).hexdigest() == (
        "dfcfd0549a9e6eea04ea3e1a7da5c94397d17f0df18140328b04209d1e969547")


@pytest.mark.parametrize("burst_gain", [0.5, 2.5])
def test_surrogate_chunks_match_whole_row_draws(burst_gain):
    """Rows longer than a few draw chunks equal the raster drawn from one
    uniform per switch and one (n, cols) block, in that order."""
    n, cols, burst_prob, rates = 3, 2 * sd._SURROGATE_CHUNK + 3, 0.9, [0.1, 0.2, 0.3]
    m = sd.synthesize_surrogate(n, cols, rates, burst_prob, burst_gain,
                                substream(5, PURPOSE_SURROGATE))
    rng = substream(5, PURPOSE_SURROGATE)
    start = rng.random() < 0.5
    switches = rng.random(cols - 1) >= burst_prob
    bursting = np.concatenate(
        [[start], start ^ np.logical_xor.accumulate(switches)])
    thresholds = np.array(rates)[:, None] * np.where(bursting, burst_gain, 1.0)
    np.testing.assert_array_equal(m.data, rng.random((n, cols)) < thresholds)


def test_surrogate_holds_no_float_copy_of_its_rows():
    """Synthesis allocates the raster plus its burst state and two draw
    chunks, not float64 arrays as long as its rows."""
    n, cols = 4, 400_000
    tracemalloc.start()
    try:
        sd.synthesize_surrogate(n, cols, [0.1], 0.9, 2.0,
                                substream(3, PURPOSE_SURROGATE))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * cols + 2_000_000


def test_surrogate_validation():
    rng = np.random.default_rng(6)
    with pytest.raises(ConfigurationError):
        sd.synthesize_surrogate(2, 10, [0.0, 0.5], 0.9, 1.0, rng)
    with pytest.raises(ConfigurationError):
        sd.synthesize_surrogate(2, 10, [0.5, 0.5], 0.9, 3.0, rng)
    with pytest.raises(ConfigurationError):
        sd.synthesize_surrogate(2, 10, [0.2, 0.2], 1.5, 1.0, rng)


def test_state_index_examples():
    windows = [np.zeros((2, 2), dtype=int), np.array([[1], [0]]),
               np.ones((2, 2), dtype=int)]
    assert [sd.state_indices(w[None])[0] for w in windows] == [0, 2, 15]
    assert [state_index(w) for w in windows] == [0, 2, 15]


def test_state_index_guard():
    with pytest.raises(ConfigurationError):
        sd.state_indices(np.zeros((1, 3, 7), dtype=int))


@pytest.mark.parametrize("n,t", [(1, 1), (2, 1), (2, 2), (3, 2), (2, 5), (3, 4)])
def test_state_index_bijection(n, t):
    seen = set()
    for value in range(2 ** (n * t)):
        bits = [(value >> i) & 1 for i in range(n * t - 1, -1, -1)]
        window = np.array(bits).reshape(t, n).T
        idx = sd.state_indices(window[None])[0]
        assert idx == value
        seen.add(idx)
    assert len(seen) == 2 ** (n * t)


def test_state_indices_vectorized_matches_scalar():
    rng = np.random.default_rng(7)
    windows = (rng.random((50, 3, 4)) < 0.4).astype(np.uint8)
    vec = sd.state_indices(windows)
    for j in range(50):
        assert vec[j] == state_index(windows[j])


@pytest.mark.parametrize("n, t", [(2, 4), (3, 3), (4, 4), (1, 17), (4, 5)])
def test_state_indices_at_every_index_width(n, t):
    """At 8, 9, 16, 17 and 20 state bits the indices come in the smallest
    unsigned type that holds 2^(n t) - 1 and equal the scalar oracle's,
    from uint8 and int windows alike, the all-ones window included."""
    rng = np.random.default_rng(n * t)
    windows = (rng.random((40, n, t)) < 0.5).astype(np.uint8)
    windows[0] = 1
    expected = [state_index(w) for w in windows]
    assert expected[0] == 2**(n * t) - 1
    for stack in (windows, windows.astype(int)):
        idx = sd.state_indices(stack)
        assert idx.dtype == np.min_scalar_type(2**(n * t) - 1)
        assert idx.tolist() == expected


def test_bit_reverse_permutation():
    rev = sd.bit_reverse_permutation(3)
    assert rev[0b001] == 0b100
    assert rev[0b011] == 0b110
    assert rev[0b111] == 0b111


def test_all_windows_counts_and_stride():
    m = sd.SpikeMatrix((np.arange(10)[None, :] % 2))
    spec = sd.WindowSpec((0,), 3)
    sliding = sd.all_windows(m, spec)
    assert sliding.shape == (8, 1, 3)
    strided = sd.all_windows(m, spec, stride=3)
    assert strided.shape == (3, 1, 3)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40), st.integers(1, 7), st.data(), st.integers(0, 2**31),
       st.sampled_from([(1, 2), (3, 0, 2)]))
def test_all_windows_tiling_matches_oracle_and_is_read_only(
        n_bins, t, data, seed, subset):
    stride = data.draw(st.integers(1, t + 1), label="stride")
    rng = np.random.default_rng(seed)
    m = sd.SpikeMatrix((rng.random((4, max(n_bins, t))) < 0.5)
                       .astype(np.uint8))
    spec = sd.WindowSpec(subset, t)
    windows = sd.all_windows(m, spec, stride=stride)
    expected = brute_windows(m.data, subset, t, stride)
    assert windows.shape == expected.shape == (
        (m.n_bins - t) // stride + 1, len(subset), t)
    np.testing.assert_array_equal(windows, expected)
    # Consecutive rows in order are windowed in place; any other subset
    # through one copy of its rows.
    assert np.shares_memory(windows, m.data) == (subset == (1, 2))
    with pytest.raises(ValueError):
        windows[0, 0, 0] = 1
