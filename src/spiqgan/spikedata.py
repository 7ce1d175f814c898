"""Spike raster I/O, training windows, and surrogate-data synthesis.

File format (``SPIKES v1``), chosen for diff-ability and trivial parsing:

    SPIKES v1 <neurons> <bins> <bin_width_seconds>
    0101...        one line of 0/1 characters per neuron
    0011...

UTF-8, LF line endings, no separators inside a row.  Saving the same matrix
twice produces byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DataFormatError
from .fileio import atomic_path

_HEADER_PREFIX = "SPIKES v1"
# State indices cover 2^(n*t) outcomes; past 20 bits the histogram is
# intractable and downstream consumers refuse to build it.
MAX_STATE_BITS = 20


@dataclass
class SpikeMatrix:
    """Binary raster: rows are neurons, columns are time bins."""

    data: np.ndarray
    bin_width: float = 0.02
    neuron_ids: list[str] | None = None

    def __post_init__(self):
        arr = np.asarray(self.data)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ConfigurationError(
                f"spike matrix must be 2-D and non-empty, got shape {arr.shape}"
            )
        if not ((arr == 0) | (arr == 1)).all():
            raise ConfigurationError("spike matrix entries must be 0 or 1")
        if not self.bin_width > 0:
            raise ConfigurationError("bin_width must be > 0")
        self.data = arr.astype(np.uint8, copy=False)

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
    """Parse a ``SPIKES v1`` file, validating every entry."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return _parse_spikes(fh)
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path} is not UTF-8 text: {exc}") from exc


def _parse_spikes(fh) -> SpikeMatrix:
    header = fh.readline().rstrip("\n")
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
    rows = np.empty((n_neurons, n_bins), dtype=np.uint8)
    for i in range(n_neurons):
        line = fh.readline().rstrip("\n")
        if len(line) != n_bins:
            raise DataFormatError(
                f"row {i} has {len(line)} entries, expected {n_bins}"
            )
        if line.count("0") + line.count("1") != n_bins:
            j = next(j for j, ch in enumerate(line) if ch not in "01")
            raise DataFormatError(
                f"non-binary entry {line[j]!r} at row {i}, column {j}")
        rows[i] = np.frombuffer(line.encode("ascii"), np.uint8)
    if fh.read().strip():
        raise DataFormatError(
            f"trailing content after {n_neurons} declared rows"
        )
    rows -= ord("0")
    return SpikeMatrix(rows, bin_width=bin_width)


def save_spikes(m: SpikeMatrix, path) -> None:
    """Write the canonical ``SPIKES v1`` representation."""
    lines = [f"{_HEADER_PREFIX} {m.n_neurons} {m.n_bins} {m.bin_width!r}"]
    lines.extend(row.tobytes().decode("ascii") for row in m.data + ord("0"))
    with atomic_path(path) as tmp, open(tmp, "w", encoding="utf-8",
                                        newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def sample_windows(m: SpikeMatrix, spec: WindowSpec, batch: int,
                   rng: np.random.Generator) -> np.ndarray:
    """Draw ``batch`` windows at uniform start columns, flattened patch-major.

    Returns a (batch, n*t) float array; entry p*n + k of a row is neuron
    ``spec.neuron_subset[k]`` at window offset p.
    """
    spec.validate_for(m)
    t = spec.window_len
    starts = rng.integers(0, m.n_bins - t + 1, size=batch)
    sub = m.data[list(spec.neuron_subset)]
    cols = starts[:, None] + np.arange(t)[None, :]
    windows = sub[:, cols]                    # (n, batch, t)
    windows = windows.transpose(1, 2, 0)      # (batch, t, n): patch-major
    return windows.reshape(batch, -1).astype(float)


def all_windows(m: SpikeMatrix, spec: WindowSpec, stride: int = 1) -> np.ndarray:
    """Every window at the given stride, as a (W, n, t) uint8 array."""
    spec.validate_for(m)
    t = spec.window_len
    starts = np.arange(0, m.n_bins - t + 1, stride)
    sub = m.data[list(spec.neuron_subset)]
    cols = starts[:, None] + np.arange(t)[None, :]
    return sub[:, cols].transpose(1, 0, 2)


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
    if burst_gain <= 0 or burst_gain * rates.max() > 1:
        raise ConfigurationError(
            "burst_gain must be > 0 with burst_gain * max(rates) <= 1"
        )
    if not 0 <= burst_prob <= 1:
        raise ConfigurationError("burst_prob must lie in [0, 1]")
    start = rng.random() < 0.5
    switches = rng.random(cols - 1) >= burst_prob
    bursting = np.empty(cols, dtype=bool)
    bursting[0] = start
    bursting[1:] = start ^ (np.cumsum(switches) % 2).astype(bool)
    p = np.where(bursting[None, :], burst_gain * rates[:, None], rates[:, None])
    data = (rng.random((n, cols)) < p).astype(np.uint8)
    return SpikeMatrix(data, bin_width=bin_width)


def state_indices(windows: np.ndarray) -> np.ndarray:
    """State number of each (n, t) binary window of a (B, n, t) stack.

    Bits are read patch-major with neuron 0 of timestep 0 as the most
    significant bit, so for n=2, t=1 the states 00,01,10,11 carry indices
    0,1,2,3 with index 2 meaning "neuron 0 fired".
    """
    w = np.asarray(windows)
    b, n, t = w.shape
    if n * t > MAX_STATE_BITS:
        raise ConfigurationError(
            f"state space 2^{n * t} too large (max {MAX_STATE_BITS} bits)"
        )
    flat = w.transpose(0, 2, 1).reshape(b, n * t).astype(np.int64)
    weights = 1 << np.arange(n * t - 1, -1, -1, dtype=np.int64)
    return flat @ weights


def bit_reverse_permutation(n_bits: int) -> np.ndarray:
    """perm[v] reverses the low ``n_bits`` bits of v (LSB-first <-> MSB-first)."""
    values = np.arange(2**n_bits)
    out = np.zeros_like(values)
    for k in range(n_bits):
        out |= ((values >> k) & 1) << (n_bits - 1 - k)
    return out
