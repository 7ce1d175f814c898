"""Spike raster I/O, training windows, and surrogate-data synthesis.

File format (``SPIKES v1``), chosen for diff-ability and trivial parsing:

    SPIKES v1 <neurons> <bins> <bin_width_seconds>
    0101...        one line of 0/1 characters per neuron
    0011...

UTF-8, no separators inside a row.  Files are written with LF line ends and
read with LF, CRLF or CR ones.  Saving the same matrix twice produces
byte-identical files.
"""

from __future__ import annotations

import os
import stat
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DataFormatError
from .fileio import atomic_path

_HEADER_PREFIX = "SPIKES v1"
# State indices cover 2^(n*t) outcomes; past 20 bits the histogram is
# intractable and downstream consumers refuse to build it.
MAX_STATE_BITS = 20
# Columns of uniforms that synthesize_surrogate draws at a time.
_SURROGATE_CHUNK = 1 << 16


def binary_uint8(arr: np.ndarray, what: str) -> np.ndarray:
    """``arr`` as uint8 (uncopied if it is), once every entry is 0 or 1."""
    if not (arr.max() <= 1 if arr.dtype == np.uint8
            else ((arr == 0) | (arr == 1)).all()):
        raise ConfigurationError(f"{what} must hold only 0/1 entries")
    return arr.astype(np.uint8, copy=False)


@dataclass
class SpikeMatrix:
    """Binary raster: rows are neurons, columns are time bins."""

    data: np.ndarray
    bin_width: float = 0.02

    def __post_init__(self):
        arr = np.asarray(self.data)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ConfigurationError(
                f"spike matrix must be 2-D and non-empty, got shape {arr.shape}"
            )
        if not self.bin_width > 0:
            raise ConfigurationError("bin_width must be > 0")
        self.data = binary_uint8(arr, "spike matrix")

    @property
    def n_neurons(self) -> int:
        return self.data.shape[0]

    @property
    def n_bins(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class WindowSpec:
    """Which neurons to read and how many bins per training window."""

    neuron_subset: tuple[int, ...]
    window_len: int

    def __post_init__(self):
        subset = tuple(int(i) for i in self.neuron_subset)
        if len(subset) < 1:
            raise ConfigurationError("neuron_subset must be non-empty")
        if len(set(subset)) != len(subset):
            raise ConfigurationError("neuron_subset indices must be distinct")
        if any(i < 0 for i in subset):
            raise ConfigurationError("neuron_subset indices must be >= 0")
        if self.window_len < 1:
            raise ConfigurationError("window_len must be >= 1")
        object.__setattr__(self, "neuron_subset", subset)

    def validate_for(self, m: SpikeMatrix) -> None:
        if max(self.neuron_subset) >= m.n_neurons:
            raise ConfigurationError(
                f"neuron index {max(self.neuron_subset)} out of range for "
                f"{m.n_neurons} neurons"
            )
        if self.window_len > m.n_bins:
            raise ConfigurationError(
                f"window_len {self.window_len} exceeds {m.n_bins} bins"
            )


def first_n_spec(n: int, window_len: int) -> WindowSpec:
    """Window spec over the first ``n`` neuron rows."""
    return WindowSpec(tuple(range(n)), window_len)


def load_spikes(path) -> SpikeMatrix:
    """Read a ``SPIKES v1`` file or pipe, validating every entry.

    Lines end in LF, CRLF or CR, the last one may have none, and blank
    space may follow the last row.  Each row is read as bytes straight into
    the raster, and the raster is scanned once for bad entries."""
    with open(path, "rb") as fh:
        n_neurons, n_bins, bin_width = _parse_header(
            _read_line(fh).decode("utf-8", "replace"), fh)
        rows = np.empty((n_neurons, n_bins), dtype=np.uint8)
        for i, row in enumerate(rows):
            got = fh.readinto(row)
            if got < n_bins or not _at_line_end(fh):
                length = got if got < n_bins else n_bins + len(_read_line(fh))
                row[got:] = ord("0")
                _refuse(rows[:i + 1],
                        f"row {i} has {length} entries, expected {n_bins}")
        if fh.read().decode("utf-8", "replace").strip():
            _refuse(rows, f"trailing content after {n_neurons} declared rows")
    rows -= ord("0")
    if rows.max() > 1:
        i, j = np.argwhere(rows > 1)[0]
        rows += ord("0")
        byte = int(rows[i, j])
        entry = repr(chr(byte) if byte < 128 else bytes([byte]))
        _refuse(rows, f"non-binary entry {entry} at row {i}, column {j}")
    return SpikeMatrix(rows, bin_width=bin_width)


def _refuse(rows: np.ndarray, fault: str):
    """Raise ``fault``, unless a line end inside one of the ``rows`` read
    cuts that row short first."""
    cut = np.argwhere((rows == ord("\n")) | (rows == ord("\r")))
    if cut.size:
        i, j = cut[0]
        fault = f"row {i} has {j} entries, expected {rows.shape[1]}"
    raise DataFormatError(fault)


def _at_line_end(fh) -> bool:
    """Whether ``fh`` is at a line end or at the end of the file; a LF, CR
    or CRLF line end is consumed."""
    end = fh.peek(1)[:1]
    if end not in (b"", b"\n", b"\r"):
        return False
    if fh.read(1) == b"\r" and fh.peek(1)[:1] == b"\n":
        fh.read(1)
    return True


def _read_line(fh) -> bytearray:
    """The bytes up to the next line end or the end of the file, after
    which the line end is consumed."""
    line = bytearray()
    while not _at_line_end(fh):
        line += fh.read(len(fh.peek().split(b"\n", 1)[0].split(b"\r", 1)[0]))
    return line


def _parse_header(header: str, fh) -> tuple[int, int, float]:
    """Neurons, bins and bin width of a header line without its line end."""
    parts = header.split(" ")
    if len(parts) != 5 or " ".join(parts[:2]) != _HEADER_PREFIX:
        raise DataFormatError(
            f"bad header {header!r}: expected "
            f"'{_HEADER_PREFIX} <neurons> <bins> <bin_width>'"
        )
    try:
        n_neurons = int(parts[2])
        n_bins = int(parts[3])
        bin_width = float(parts[4])
    except ValueError as exc:
        raise DataFormatError(f"bad header fields in {header!r}") from exc
    if n_neurons < 1 or n_bins < 1 or not bin_width > 0:
        raise DataFormatError(f"bad header values in {header!r}")
    info = os.fstat(fh.fileno())  # a pipe has no size to check against
    if stat.S_ISREG(info.st_mode) and n_neurons * n_bins > info.st_size:
        raise DataFormatError(f"header declares {n_neurons} x {n_bins} "
                              f"entries in a {info.st_size}-byte file")
    return n_neurons, n_bins, bin_width


def save_spikes(m: SpikeMatrix, path) -> None:
    """Write the canonical ``SPIKES v1`` representation, one row at a time
    through one reused line buffer."""
    header = f"{_HEADER_PREFIX} {m.n_neurons} {m.n_bins} {m.bin_width!r}\n"
    line = np.full(m.n_bins + 1, ord("\n"), dtype=np.uint8)
    with atomic_path(path) as tmp, open(tmp, "wb") as fh:
        fh.write(header.encode("utf-8"))
        for row in m.data:
            np.add(row, ord("0"), out=line[:-1])
            fh.write(line)


def sample_windows(m: SpikeMatrix, spec: WindowSpec, batch: int,
                   rng: np.random.Generator) -> np.ndarray:
    """Draw ``batch`` windows at uniform start columns, flattened patch-major.

    Returns a (batch, n*t) float array; entry p*n + k of a row is neuron
    ``spec.neuron_subset[k]`` at window offset p.
    """
    spec.validate_for(m)
    t = spec.window_len
    starts = rng.integers(0, m.n_bins - t + 1, size=batch)
    cols = starts[:, None, None] + np.arange(t)[None, :, None]
    windows = m.data[np.array(spec.neuron_subset), cols]  # (batch, t, n)
    return windows.reshape(batch, -1).astype(float)


def all_windows(m: SpikeMatrix, spec: WindowSpec, stride: int = 1) -> np.ndarray:
    """Every window at the given stride, as a read-only (W, n, t) uint8 view.

    The view is of the raster itself when the subset is consecutive rows in
    increasing order, and of one copy of the chosen rows otherwise.
    """
    spec.validate_for(m)
    subset = spec.neuron_subset
    run = range(subset[0], subset[0] + len(subset))
    rows = (m.data[run.start:run.stop] if subset == tuple(run)
            else m.data[list(subset)])
    return np.lib.stride_tricks.sliding_window_view(
        rows, spec.window_len, axis=1)[:, ::stride].transpose(1, 0, 2)


def synthesize_surrogate(n: int, cols: int, rates, burst_prob: float,
                         burst_gain: float, rng: np.random.Generator,
                         bin_width: float = 0.02) -> SpikeMatrix:
    """Markov-modulated Bernoulli raster.

    A hidden two-state chain (stay probability ``burst_prob``, symmetric,
    started from its uniform stationary law) switches every neuron's spike
    probability between ``rates[i]`` and ``burst_gain * rates[i]``; spikes
    are conditionally independent given the state.  The shared burst state
    induces positive pairwise covariance and bursting whenever
    ``burst_gain > 1``; with ``burst_gain == 1`` rows are i.i.d. Bernoulli.
    """
    if n < 1 or cols < 1:
        raise ConfigurationError("n and cols must be >= 1")
    rates = np.asarray(rates, dtype=float).reshape(-1)
    if rates.size not in (1, n):
        raise ConfigurationError(
            f"rates has {rates.size} entries; give one or one per neuron ({n})"
        )
    rates = np.broadcast_to(rates, (n,)).copy()
    if not ((rates > 0) & (rates < 1)).all():
        raise ConfigurationError("rates must lie strictly in (0, 1)")
    if not (burst_gain > 0 and burst_gain * rates.max() <= 1):  # refuses NaN
        raise ConfigurationError(
            "burst_gain must be > 0 with burst_gain * max(rates) <= 1"
        )
    if not 0 <= burst_prob <= 1:
        raise ConfigurationError("burst_prob must lie in [0, 1]")
    # Uniforms are drawn _SURROGATE_CHUNK columns at a time into one reused
    # buffer: Philox yields them in the order whole-row draws would, without
    # a float64 array as long as the raster's rows.
    u = np.empty(min(cols, _SURROGATE_CHUNK))
    threshold = np.empty_like(u)
    bursting = np.empty(cols, dtype=bool)
    bursting[0] = rng.random() < 0.5
    for c0 in range(1, cols, _SURROGATE_CHUNK):
        c1 = min(c0 + _SURROGATE_CHUNK, cols)
        switches = rng.random(out=u[:c1 - c0]) >= burst_prob
        np.logical_xor.accumulate(switches, out=bursting[c0:c1])
        bursting[c0:c1] ^= bursting[c0 - 1]
    data = np.empty((n, cols), dtype=np.uint8)
    for i in range(n):
        for c0 in range(0, cols, _SURROGATE_CHUNK):
            c1 = min(c0 + _SURROGATE_CHUNK, cols)
            thr = threshold[:c1 - c0]
            thr.fill(rates[i])
            thr[bursting[c0:c1]] = burst_gain * rates[i]
            np.less(rng.random(out=u[:c1 - c0]), thr, out=data[i, c0:c1])
    return SpikeMatrix(data, bin_width=bin_width)


def state_indices(windows: np.ndarray) -> np.ndarray:
    """State number of each (n, t) binary window of a (B, n, t) integer stack.

    Bits are read patch-major with neuron 0 of timestep 0 as the most
    significant bit, so for n=2, t=1 the states 00,01,10,11 carry indices
    0,1,2,3 with index 2 meaning "neuron 0 fired".  The indices come in the
    smallest unsigned type that holds 2^(n*t) - 1, so each of the n*t
    shift-or passes moves as few bytes as it can.
    """
    w = np.asarray(windows)
    b, n, t = w.shape
    if n * t > MAX_STATE_BITS:
        raise ConfigurationError(
            f"state space 2^{n * t} too large (max {MAX_STATE_BITS} bits)"
        )
    idx = np.zeros(b, dtype=np.min_scalar_type(2**(n * t) - 1))
    for p in range(t):
        for k in range(n):
            idx <<= 1
            np.bitwise_or(idx, w[:, k, p], out=idx, casting="unsafe")
    return idx


def bit_reverse_permutation(n_bits: int) -> np.ndarray:
    """perm[v] reverses the low ``n_bits`` bits of v (LSB-first <-> MSB-first)."""
    values = np.arange(2**n_bits)
    out = np.zeros_like(values)
    for k in range(n_bits):
        out |= ((values >> k) & 1) << (n_bits - 1 - k)
    return out
