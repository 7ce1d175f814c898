"""Patch generator: one data re-uploading circuit per timestep, and the
dense state-vector kernel that simulates it.

Each patch (sub-generator) drives ``n_feature + n_aux`` qubits.  Every layer
first re-uploads the noise angles with an RX on each qubit, then applies a
trainable RY/RZ pair per qubit, then entangles neighbours with an open CNOT
chain.  All patches share the ansatz but own independent parameters.

Conventions: qubit 0 is the least-significant bit of a basis index, so basis
state ``b`` assigns ``(b >> k) & 1`` to qubit ``k``; rotations are
``R_A(phi) = exp(-i * phi * A / 2)`` for A in {X, Y, Z}.  Feature qubits are
indices ``0 .. n_feature-1``; auxiliary qubits occupy the top indices and are
discarded at readout.  Flattened outputs are patch-major: entry
``p * n_feature + k`` is neuron ``k`` at timestep ``p``.

The kernel runs each circuit in the Hadamard frame phi = H^q psi, where
RX(z) = H RZ(z) H makes a layer's noise a per-row diagonal d(z): a layer is
phi <- P' V d(z) phi, V = H RZ RY H is shared by all rows of a patch as two
Kronecker factors over the top and bottom qubits, and P' = H P H is the
CNOT chain with control and target swapped, a gather.  The last layer
applies RZ RY H and P, back in the computational basis.  ``_blocks`` lays
rows out (patches, 2^q, samples), so each factor is one matmul per patch
over a block's rows; the forward passes and the adjoint gradient walk it.
From ``_PREFIX_QUBITS`` qubits on, the forward pass runs its first layers
as a factored prefix (``_forward``): the chain crosses the cut between the
top and bottom qubits once, so a row stays a sum of r products of a top and
a bottom vector and each layer doubles r.  The prefix stops at the last
layer or at the rank bound 2^min(hi, lo), whichever comes first, and one
matmul per row assembles its terms into the rows, which run the remaining
chain and layers dense.  Narrower rows leave the product form after the
first layer.  Up to ``_DENSE_QUBITS`` qubits the forward pass, though not
the adjoint's, runs each layer as one dense operator P' V, built per block
as the product of the layer's two Kronecker factors with the chain folded
into its rows: x <- P' V d(z) x is then one matmul per patch.
A block's d(z) comes from a table of each angle's pair (e^{-iz/2},
e^{iz/2}), contiguous along the samples, with one tan per angle
(``_phases``); each qubit's gates are computed once per call.
Sampling reads each row's inverse CDF: as a running sum over contiguous rows
in blocks of at least ``_RUNNING_SUM_SAMPLES`` samples, by ``np.cumsum``
over the state axis in shorter ones, with the same draws either way.
Each block writes its states to its contiguous rows of one (t, B) array,
and the feature bits are read off it once per call.
``_feature_bits`` serves only the forward marginals and the adjoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigurationError

# 2^24 complex doubles is ~268 MB per row; more is a configuration bug.
MAX_QUBITS = 24

# Amplitudes per kernel block, one state per row: 2^15 complex128 is 512 KB,
# so a forward block's states and its three scratch slots stay in a core's
# 2 MB L2 cache.  Against 2^14 the n=10, t=30, B=32 gradient went 350 -> 294
# ms, no call at q = 2-10 got slower.
_CHUNK_ELEMS = 1 << 15

# Scratch per block over all of its slots, in chunks.  The adjoint keeps
# one slot per layer and row, so past this its blocks hold fewer rows than
# a forward block.  Against three chunks the n=10, t=30 gradient went about
# 237 -> 176 ms and q = 6-9 gained 12-25 %; at 12 and 16 chunks no cell
# gained more (one CPU of a 2-vCPU Xeon, BENCH_adjoint_keeps_psi.json).
_SCRATCH_CHUNKS = 8

# Inverse-CDF readout: blocks of at least this many samples per patch take
# a running sum over contiguous rows instead of ``np.cumsum`` (``_draws``).
# Timed alone on one CPU of a 2-vCPU Xeon, the running sum won from 512
# samples at every q = 2-7 and did not win at 256 from q = 3; from q = 7 a
# block never has 512 samples (BENCH_tiny_sampling.json).
_RUNNING_SUM_SAMPLES = 512

# The factored prefix (``_forward``) runs from this width on; narrower
# circuits hand over to the dense layers after the first.  Its terms are
# assembled by one small matmul per row, which lost to the dense layers or
# broke even at q = 4-6 (by up to 66 % at q=4) and won from q = 7, with 2, 4
# and 8 layers (one CPU of a 2-vCPU Xeon, BENCH_factored_prefix.json).
_PREFIX_QUBITS = 7

# Up to this width the forward pass without ``keep`` runs each layer as one
# dense operator, built per block as the product of its two Kronecker
# factors with its chain folded in: one batched zgemm and one diagonal
# multiply per layer, where the factors take two zgemms and a gather.
# Against the factors, ``sample_batch`` of 4096 windows at t = 2 and 30
# gained 1.06-1.49x at q = 1-4 and lost 0.90-0.94x at q=5 and 0.67-0.68x at
# q=6; ``forward_batch`` of 32 samples lost 0.66-0.92x at q=5 (one CPU of a
# 2-vCPU Xeon, BENCH_narrow_dense.json).
_DENSE_QUBITS = 4


@dataclass(frozen=True)
class GeneratorConfig:
    """Shape of the patch generator.

    ``n_layers`` defaults to 4 so that the trainable-angle count comes out
    at ``8 * n_feature * n_patches`` with no auxiliary qubits.
    """

    n_feature: int
    n_patches: int
    n_layers: int = 4
    n_aux: int = 0
    noise_low: float = 0.0
    noise_high: float = math.pi

    def __post_init__(self):
        if self.n_feature < 1:
            raise ConfigurationError("n_feature must be >= 1")
        if self.n_patches < 1:
            raise ConfigurationError("n_patches must be >= 1")
        if self.n_layers < 1:
            raise ConfigurationError("n_layers must be >= 1")
        if self.n_aux < 0:
            raise ConfigurationError("n_aux must be >= 0")
        if self.n_feature + self.n_aux > MAX_QUBITS:
            raise ConfigurationError(
                f"n_feature + n_aux must be <= {MAX_QUBITS}"
            )
        if not (math.isfinite(self.noise_low)
                and math.isfinite(self.noise_high)):
            raise ConfigurationError("noise_low and noise_high must be finite")
        span = self.noise_high - self.noise_low
        if not math.isfinite(span):
            raise ConfigurationError("noise_high - noise_low must be finite")
        # NumPy's uniform reads the sign bit, so it refuses 0.0 to -0.0 too.
        if math.copysign(1.0, span) < 0:
            raise ConfigurationError(
                f"noise_high - noise_low must be >= +0.0, got {span!r}")

    @property
    def n_qubits(self) -> int:
        return self.n_feature + self.n_aux

    @property
    def output_dim(self) -> int:
        return self.n_feature * self.n_patches

    @property
    def params_per_patch(self) -> int:
        return 2 * self.n_layers * self.n_qubits

    @property
    def param_count(self) -> int:
        return self.params_per_patch * self.n_patches

    def noise_shape(self) -> tuple[int, ...]:
        """Per-sample noise tensor shape: one angle per qubit of each
        patch, re-uploaded on every layer."""
        return (self.n_patches, self.n_qubits)


@dataclass
class GeneratorParams:
    """Trainable angles, indexed [patch][layer][qubit][axis] (axis 0=RY, 1=RZ)."""

    theta: np.ndarray

    @property
    def count(self) -> int:
        return self.theta.size


def init_params(cfg: GeneratorConfig, rng: np.random.Generator) -> GeneratorParams:
    """Draw every angle i.i.d. uniform from [0, 2*pi)."""
    shape = (cfg.n_patches, cfg.n_layers, cfg.n_qubits, 2)
    return GeneratorParams(rng.uniform(0.0, 2.0 * math.pi, shape))


def sample_noise(cfg: GeneratorConfig, rng: np.random.Generator,
                 batch: int) -> np.ndarray:
    """Draw a (batch, t, q) block of noise angles uniform in [noise_low,
    noise_high)."""
    return rng.uniform(cfg.noise_low, cfg.noise_high,
                       (batch,) + cfg.noise_shape())


# --- vectorized many-circuit kernels -------------------------------------

# sqrt(2) H: every scale factor of the frame is then an exact power of two.
_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]])


@lru_cache(maxsize=None)
def _chain_permutation(num_qubits: int, frame: bool = False) -> np.ndarray:
    """Source indices of the CNOT chain, ``new[i] = old[perm[i]]``: CNOT(k,
    k+1) for k = 0 .. q-2 in circuit order, or with ``frame`` CNOT(k+1, k),
    the chain seen through a Hadamard on every qubit."""
    idx = np.arange(2**num_qubits)
    perm = idx
    for k in range(num_qubits - 1):
        control, target = (k + 1, k) if frame else (k, k + 1)
        perm = perm[np.where((idx >> control) & 1 == 1, idx ^ (1 << target),
                             idx)]
    perm.setflags(write=False)
    return perm


def _phases(z: np.ndarray, split: int) -> list:
    """The diagonal of RZ(z) on the top qubits split .. q-1 and on the bottom
    qubits, for angles z (..., q, S), as contiguous (..., 2^hi, S) and
    (..., 2^lo, S).  Each angle's cos and sin of z/2 fill a table
    (..., q, 2, S) of its pair (e^{-iz/2}, e^{iz/2}) along the samples, and
    a half's diagonal multiplies its qubits' pairs, lowest qubit fastest.
    Both come from one t = tan(z/4) per angle, as cos(z/2) = 2/(1+t^2) - 1
    and sin(z/2) = 2t/(1+t^2): NumPy's float64 ``np.tan`` is vectorized
    where ``np.cos`` and ``np.sin`` are scalar calls, several times slower
    each.  No double lies within 2^-61 of an odd multiple of pi/2, so
    |t| < 2^61 and t^2 stays finite for every finite z.  Each call fills a
    table of its own, as a caller may hold several blocks at once."""
    tan = np.multiply(z, 0.25, out=np.empty(z.shape))
    np.tan(tan, out=tan)
    scale = np.square(tan)
    scale += 1.0
    np.divide(2.0, scale, out=scale)
    pairs = np.empty(z.shape[:-1] + (2,) + z.shape[-1:], dtype=complex)
    np.subtract(scale, 1.0, out=pairs.real[..., 1, :])
    np.multiply(tan, scale, out=pairs.imag[..., 1, :])
    np.conjugate(pairs[..., 1, :], out=pairs[..., 0, :])
    halves = []
    for f in (pairs[..., split:, :, :], pairs[..., :split, :, :]):
        diag = (f[..., 0, :, :] if f.shape[-3] else
                np.ones(f.shape[:-3] + (1, f.shape[-1]), dtype=complex))
        for k in range(1, f.shape[-3]):
            diag = (f[..., k, :, None, :] * diag[..., None, :, :]).reshape(
                f.shape[:-3] + (-1, f.shape[-1]))
        halves.append(diag)
    return halves


def _kron(factors: np.ndarray) -> np.ndarray:
    """Kronecker products ``f[j-1] x ... x f[1] x f[0]`` of factors
    (..., j, r, c), as (..., r^j, c^j): factor 0 (the lowest qubit) varies
    fastest along both axes, matching the basis-index convention."""
    out = (factors[..., 0, :, :] if factors.shape[-3] else
           np.ones(factors.shape[:-3] + (1, 1), dtype=complex))
    for k in range(1, factors.shape[-3]):
        f = factors[..., k, :, :]
        out = (f[..., :, None, :, None] * out[..., None, :, None, :]).reshape(
            f.shape[:-2] + (-1, f.shape[-1] * out.shape[-1]))
    return out


def _layer_gates(theta: np.ndarray) -> np.ndarray:
    """Each qubit's gate for angles ``theta`` (P, L, q, 2), as (L, P, q, 2,
    2).  With e = e^{-i phi/2} and u, w = cos(theta/2) -+ sin(theta/2), a
    qubit's gate is H RZ RY H = [[e u + e* w, e w - e* u], [e u - e* w,
    e w + e* u]] / 2, and on the last layer sqrt(2) RZ RY H = [[e u, e w],
    [e* w, -e* u]], whose sqrt(2) undoes the start's extra 2^{-1/2} per
    qubit."""
    half = 0.5 * theta
    cos, sin = np.cos(half[..., 0]), np.sin(half[..., 0])
    phase = np.exp(-1j * half[..., 1])
    eu, ew = phase * (cos - sin), phase * (cos + sin)
    cu, cw = phase.conj() * (cos - sin), phase.conj() * (cos + sin)
    gates = 0.5 * np.stack([eu + cw, ew - cu, eu - cw, ew + cu], axis=-1)
    gates[:, -1] = np.stack([eu, ew, cw, -cu], axis=-1)[:, -1]
    return gates.reshape(theta.shape[:-1] + (2, 2)).swapaxes(0, 1)


def _layer_kron(hi: np.ndarray, lo: np.ndarray, layer=slice(None)):
    """Each layer's Kronecker factors (L, P, ., .) of the gates hi and lo
    (L, P, ., 2, 2) of the top and bottom qubits, or one ``layer``'s,
    (P, ., .)."""
    return _kron(hi[layer]), _kron(lo[layer])


class _Block(NamedTuple):
    """Rows ``patches`` x ``samples``, their factors, phases and scratch.
    The factors are the group's one operator table: the narrow forward
    pass builds its dense layers from them per block."""

    patches: slice
    samples: slice
    factors: Callable     # layer -> its (P, 2^hi, 2^hi), (P, 2^lo, 2^lo)
    phase_hi: np.ndarray  # (P, 2^hi, S) noise phases
    phase_lo: np.ndarray  # (P, 2^lo, S)
    work: np.ndarray      # (slots, P, 2^q, S) scratch


def _blocks(cfg: GeneratorConfig, theta: np.ndarray,
            noise_batch: np.ndarray, slots: int = 3):
    """The blocks of a batch, patch-major: as many samples of one patch as
    fit in ``_CHUNK_ELEMS`` amplitudes, with ``slots`` scratch rows each in
    ``_SCRATCH_CHUNKS`` chunks, or whole patches when their whole batch
    fits and so do their factors; at least one row.  Factors that outgrow a
    chunk are built per layer.  Every patch's per-qubit gates are computed
    once per call (``_layer_gates``); a group of patches only takes the
    Kronecker products of its own.  The noise must hold one angle per qubit
    of each of ``theta``'s patches."""
    q, split = cfg.n_qubits, cfg.n_qubits // 2
    if noise_batch.ndim != 3 or noise_batch.shape[1:] != (len(theta), q):
        raise ConfigurationError(
            f"noise batch has shape {noise_batch.shape}, expected "
            f"(batch, {len(theta)}, {q})")
    batch, patches = noise_batch.shape[:2]
    amps, held = slots * 2**q, cfg.n_layers * (4**(q - split) + 4**split)
    rows = min(_CHUNK_ELEMS // 2**q, _SCRATCH_CHUNKS * _CHUNK_ELEMS // amps)
    samples = max(1, min(batch, rows))
    group = (min(patches, max(1, min(rows // batch, _CHUNK_ELEMS // held)))
             if samples == batch else 1)
    flat = np.empty(group * samples * amps, dtype=complex)
    z = np.moveaxis(noise_batch, 0, -1)
    gates = _layer_gates(theta)
    for p0 in range(0, patches, group):
        part = slice(p0, min(p0 + group, patches))
        factors = partial(_layer_kron, gates[:, part, split:],
                          gates[:, part, :split])
        if held <= _CHUNK_ELEMS:  # every layer's (hi, lo), built once
            factors = list(zip(*factors())).__getitem__
        for s0 in range(0, batch, samples):
            cols = slice(s0, min(s0 + samples, batch))
            zb = z[part, ..., cols]
            size = (part.stop - p0) * amps * (cols.stop - cols.start)
            yield _Block(part, cols, factors, *_phases(zb, split), flat[
                :size].reshape(slots, part.stop - p0, 2**q, -1))


def _diag(blk: _Block) -> np.ndarray:
    """The rows' noise phases d(z), in scratch slot 2."""
    hi, lo = blk.phase_hi, blk.phase_lo
    out = blk.work[2]
    np.multiply(hi[:, :, None], lo[:, None],
                out=out.reshape(hi.shape[:2] + lo.shape[1:], copy=False))
    return out


def _gates(x: np.ndarray, spare: np.ndarray, hi: np.ndarray,
           lo: np.ndarray) -> None:
    """``x <- (hi (x) lo) x`` for states x (P, 2^q, S) and factors hi, lo
    (P, ., .): per patch one matmul by ``hi`` over all of its rows and one
    batched matmul by ``lo``, through ``spare`` of x's shape."""
    (p, _, s), h = x.shape, hi.shape[-1]
    np.matmul(hi, x.reshape((p, h, -1), copy=False),
              out=spare.reshape((p, h, -1), copy=False))
    np.matmul(lo[:, None], spare.reshape((p, h, -1, s), copy=False),
              out=x.reshape((p, h, -1, s), copy=False))


@lru_cache(maxsize=None)
def _cut(num_qubits: int):
    """Index tables for the factored prefix's chain.

    The chain is F_hi C F_lo: F_hi and F_lo are the chains of the top and
    bottom qubits alone, and C = CNOT(split -> split-1) is its one gate
    across the cut, so it maps a (x) b to (F_hi P_0 a) (x) (F_lo b) +
    (F_hi P_1 a) (x) (X F_lo b), P_c keeping the top entries whose low bit
    is c and X flipping the top bottom-qubit.  Returned: the top rows in
    even-then-odd order; the top columns (2, 2^hi / 2) that meet P_c a
    after F_hi, for the next top factor and phases; and the sources
    (2^lo, 2) of X^c F_lo b, ``new[i, c] = b[src[i, c]]``."""
    split = num_qubits // 2
    top = np.argsort(_chain_permutation(num_qubits - split, True))
    bottom = _chain_permutation(split, True)
    flip = np.arange(2**split) ^ (1 << split - 1)
    tables = (np.argsort(np.arange(len(top)) & 1, kind="stable"),
              top.reshape(-1, 2).T.copy(), np.stack([bottom, bottom[flip]], 1))
    for table in tables:
        table.setflags(write=False)
    return tables


def _slot(work: np.ndarray, start: int, shape: tuple) -> np.ndarray:
    """A contiguous (P, *shape) array in a scratch slot (P, 2^q, S), from
    element P * ``start`` of the slot."""
    p, size = len(work), math.prod(shape)
    return work.reshape(-1, copy=False)[p * start:p * (start + size)].reshape(
        (p,) + shape)


def _prefix_end(cfg: GeneratorConfig) -> int:
    """The layer whose factors end the factored prefix: the last layer, or
    the one whose chain would reach the rank bound 2^min(hi, lo); 0 below
    ``_PREFIX_QUBITS``, where the rows run dense after the first layer."""
    if cfg.n_qubits < _PREFIX_QUBITS:
        return 0
    return min(cfg.n_layers - 1, cfg.n_qubits // 2 - 1)


def _kept_slots(cfg: GeneratorConfig) -> int:
    """Scratch slots per row of the adjoint: 0 and 1 for the forward
    pass's scratch and the pair sums' copies, 2 for d(z), 3 and 4 for bra
    and its spare, 5 for the prefix layers' terms if there is a prefix,
    then one per layer from the prefix's end (``_forward`` with ``keep``)."""
    last = _prefix_end(cfg)
    return 5 + (last > 0) + cfg.n_layers - last


def _terms(store: np.ndarray, layer: int, h: int, n: int, s: int):
    """A prefix layer's kept terms in ``store``, top (P, R, S, 2^hi) and
    bottom (P, R, S, 2^lo) with R = 2^layer, after the terms of the layers
    before it.  Only the layers before ``_prefix_end`` <= lo - 1 keep
    terms, so together they take fewer than 2^{lo-1} (2^hi + 2^lo) <= 2^q
    amplitudes per sample, one slot."""
    r = 2**layer
    start = (r - 1) * (h + n) * s
    return (_slot(store, start, (r, s, h)),
            _slot(store, start + r * s * h, (r, s, n)))


def _assemble(top: np.ndarray, bottom: np.ndarray, scratch: np.ndarray,
              rows: np.ndarray) -> None:
    """Rows (P, 2^hi, 2^lo, S) <- sum_k top_k (x) bottom_k of terms top
    (P, R, S, 2^hi) and bottom (P, R, S, 2^lo): one matmul per row, written
    sample-major to ``scratch`` and copied into place."""
    s, h = top.shape[2:]
    by_sample = _slot(scratch, 0, (s, h, bottom.shape[-1]))
    np.matmul(top.transpose(0, 2, 3, 1), bottom.swapaxes(1, 2),
              out=by_sample)
    np.copyto(rows, by_sample.transpose(0, 2, 3, 1))


def _forward(cfg: GeneratorConfig, blk: _Block, keep: bool = False):
    """Run a block's rows through every layer: returns the output rows
    (P, 2^q, S), and d(z) (``_diag``) if the layers needed it, else None.

    The rows start at 2^{-q} (1, ..., 1), a product over the qubit halves.
    From ``_PREFIX_QUBITS`` on, the first layers keep them as sums of r
    such terms, the factored prefix: a layer multiplies each term's halves
    by their phases and factors, and its chain doubles r, as it crosses the
    cut once (``_cut``).  F_hi and P_c are folded into the next top factor's
    columns and phase rows, as each term's top half is kept as its even and
    odd halves, which the top factor before writes first and second; X F_lo
    is one gather of the bottom terms.  The prefix ends with the factors of
    layer m = ``_prefix_end``.  m's factors act on the terms, written
    sample-major, and ``_assemble`` turns them into the rows, which run the
    chain of m and the layers after it dense.  Narrower rows are one
    product after layer 0 and run dense from its chain.  Layer m reads its
    top terms from scratch slot 1 and writes to slot 2, the layers before
    it alternate, and slot 0 holds the gathered bottom terms until the rows
    replace them; the dense layers alternate slots 0 and 1.

    With ``keep`` each layer's rows after its gates stay for the adjoint:
    the prefix layers' terms, top rows in order, in slot 5 (``_terms``),
    and the rows of layer m + i in slot 5 + (m > 0) + i, whose chain
    gathers them into the next layer's slot; the output goes to slot 3 and
    d(z) is always built.

    Without ``keep``, rows of at most ``_DENSE_QUBITS`` qubits take x <-
    W_l (d(z) x) per layer, from x = W_0 d(z): one batched matmul and one
    multiply, in slots 0 and 1 with d(z) in slot 2.  W_l = P'_l (hi (x) lo)
    is one broadcast product of the layer's factors, its rows gathered by
    the chain (the frame's, or on the last layer the computational one),
    and W_0 also carries the start's 2^{-q}, an exact power of two."""
    q, layers = cfg.n_qubits, cfg.n_layers
    if not keep and q <= _DENSE_QUBITS:
        rows = diag = _diag(blk)
        for layer in range(layers):
            hi, lo = blk.factors(layer)
            op = hi[:, :, None, :, None] * lo[:, None, :, None]
            op = op.reshape(len(hi), 2**q, 2**q)[
                :, _chain_permutation(q, layer < layers - 1)]
            if layer:
                rows *= diag
            else:
                op *= 2.0**-q
            rows = np.matmul(op, rows, out=blk.work[layer % 2])
        return rows, diag
    last = _prefix_end(cfg)
    (p, h, s), n = blk.phase_hi.shape, blk.phase_lo.shape[1]
    work = blk.work
    if keep:
        dests = [*work[5 + (last > 0):], work[3]]
    else:
        dests = [work[i % 2] for i in range(layers - last + 1)]
    parity_rows, cols_hi, sources = _cut(q) if last else (slice(None),) * 3
    hi, lo = blk.factors(0)
    top = np.matmul(hi[:, parity_rows], blk.phase_hi, out=_slot(
        work[1 + (last - 1) % 2], 0, (h, s)))[:, :, None]
    bottom = np.matmul(lo * 2.0**-q, blk.phase_lo, out=_slot(
        work[1 + last % 2], 0, (n, s)))[:, :, None]
    rows = dests[0].reshape((p, h, n, s), copy=False)
    if last:
        phase_hi = np.take(blk.phase_hi, cols_hi, axis=1)[:, :, :, None]
        phase_lo = blk.phase_lo[:, :, None, None]
        in_order = np.argsort(parity_rows)
    for layer in range(1, last + 1):
        if keep:
            kept_top, kept_bottom = _terms(work[5], layer - 1, h, n, s)
            np.take(top, in_order, axis=1, mode="clip",
                    out=kept_top.transpose(0, 3, 1, 2))
            np.copyto(kept_bottom.transpose(0, 3, 1, 2), bottom)
        hi, lo = blk.factors(layer)
        into, r = work[1 + (last - layer + 1) % 2], top.shape[2]
        branch = np.take(bottom, sources, axis=1,
                         out=_slot(work[0], 0, (n, 2, r, s)))
        branch *= phase_lo
        terms = top.reshape((p, 2, h // 2, r, s), copy=False)
        terms *= phase_hi
        if layer < last:
            bottom = _slot(into, 0, (n, 2, r, s))
            np.matmul(lo, branch.reshape(p, n, -1),
                      out=bottom.reshape((p, n, -1), copy=False))
            top = _slot(into, bottom.size // p, (h, 2, r, s))
            np.matmul(np.take(hi[:, parity_rows], cols_hi,
                              axis=2).swapaxes(1, 2),
                      terms.reshape(p, 2, h // 2, -1),
                      out=top.reshape((p, h, 2, -1),
                                      copy=False).swapaxes(1, 2))
            top, bottom = (x.reshape(p, x.shape[1], 2 * r, s)
                           for x in (top, bottom))
        else:
            bottom = _slot(into, 0, (2 * r, s, n))
            np.matmul(branch.reshape(p, n, -1).swapaxes(1, 2),
                      lo.swapaxes(1, 2),
                      out=bottom.reshape((p, -1, n), copy=False))
            top = _slot(into, bottom.size // p, (2, r * s, h))
            np.matmul(terms.reshape(p, 2, h // 2, -1).swapaxes(2, 3),
                      np.take(hi, cols_hi, axis=2).transpose(0, 2, 3, 1),
                      out=top)
            _assemble(top.reshape(p, 2 * r, s, h), bottom, work[1], rows)
    if not last:
        np.multiply(top[:, :, None, 0], bottom[:, None, :, 0], out=rows)
    diag = _diag(blk) if keep or last + 1 < layers else None
    for layer in range(last, layers):
        states, chained = dests[layer - last], dests[layer - last + 1]
        if layer > last:
            states *= diag
            _gates(states, chained, *blk.factors(layer))
        np.take(states, _chain_permutation(q, layer < layers - 1), axis=1,
                out=chained, mode="clip")
    return dests[-1], diag


def _probs(cfg: GeneratorConfig, blk: _Block) -> np.ndarray:
    """Measurement distributions (P, 2^q, S) of a block's rows."""
    psi = _forward(cfg, blk)[0]
    return np.square(psi.real) + np.square(psi.imag)


@lru_cache(maxsize=4)
def _feature_bits(n_qubits: int, n_feature: int) -> np.ndarray:
    """Feature bits (2^q, n) of each basis state; ``bits.T @ probs`` are
    the marginals P(qubit k reads 1).  The cache holds the latest few
    widths, as at q=24 one table takes 3.2 GB."""
    basis = np.arange(2**n_qubits)[:, None]
    bits = ((basis >> np.arange(n_feature)) & 1).astype(float)
    bits.setflags(write=False)
    return bits


def batch_patch_probs(cfg: GeneratorConfig, thetas: np.ndarray,
                      z: np.ndarray) -> np.ndarray:
    """Measurement distributions for many patch instances at once.

    ``thetas``: (m, L, q, 2); ``z``: (m, q).  Returns (m, 2^q).  The
    instances run as the patches of one sample.
    """
    if thetas.shape[1:] != (cfg.n_layers, cfg.n_qubits, 2):
        raise ConfigurationError("patch angles do not match the config")
    out = np.empty((len(thetas), 2**cfg.n_qubits))
    for blk in _blocks(cfg, thetas, z[None]):
        out[blk.patches] = _probs(cfg, blk)[..., 0]
    return out


def forward_batch(cfg: GeneratorConfig, params: GeneratorParams,
                  noise_batch: np.ndarray) -> np.ndarray:
    """Marginals for a batch of samples, flattened patch-major: (B, n*t)."""
    out = np.empty((noise_batch.shape[0], cfg.output_dim))
    rows = out.reshape(len(out), cfg.n_patches, cfg.n_feature)
    bits = _feature_bits(cfg.n_qubits, cfg.n_feature)
    for blk in _blocks(cfg, params.theta, noise_batch):
        rows[blk.samples, blk.patches] = (
            bits.T @ _probs(cfg, blk)).transpose(2, 0, 1)
    return out


def sample_batch(cfg: GeneratorConfig, params: GeneratorParams,
                 noise_batch: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Inverse-CDF draws for a batch; ``uniforms`` has shape (B, t).

    Returns the bits as (B, n_feature, n_patches) uint8, a transposed view
    of a contiguous (n_feature, n_patches, B) array.  Row j of patch p reads
    the first basis state whose cumulative probability exceeds ``uniforms[j,
    p]``; auxiliary bits are discarded.  Each block writes its states to
    its contiguous rows of a (t, B) array of the smallest unsigned type that
    holds 2^q - 1, and the feature bits are read off it once.
    """
    states = np.empty((cfg.n_patches, noise_batch.shape[0]),
                      dtype=np.min_scalar_type(2**cfg.n_qubits - 1))
    for blk in _blocks(cfg, params.theta, noise_batch):
        states[blk.patches, blk.samples] = _draws(
            _probs(cfg, blk), uniforms[blk.samples, blk.patches].T)
    shifts = np.arange(cfg.n_feature, dtype=states.dtype)[:, None, None]
    bits = np.right_shift(states, shifts)
    bits &= 1
    return bits.astype(np.uint8, copy=False).transpose(2, 0, 1)


def _draws(probs: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Each row's inverse-CDF state (P, S) for probabilities (P, 2^q, S) and
    uniforms (P, S): how many of its cumulative probabilities are <= its
    uniform, at most 2^q - 1.  A block of at least ``_RUNNING_SUM_SAMPLES``
    samples turns ``probs`` into their running sum in place, one contiguous
    (P, S) slice per state and in ``np.cumsum``'s order, so the states are
    the same; shorter ones keep ``np.cumsum``, whose strided columns cost
    less there than one NumPy call per state."""
    if probs.shape[2] < _RUNNING_SUM_SAMPLES:
        cum = np.cumsum(probs, axis=1)
    else:
        cum = probs
        for k in range(1, cum.shape[1]):
            np.add(cum[:, k - 1], cum[:, k], out=cum[:, k])
    return np.minimum((cum <= uniforms[:, None]).sum(axis=1), cum.shape[1] - 1)


def patch_distributions(cfg: GeneratorConfig, params: GeneratorParams,
                        noise_batch: np.ndarray) -> np.ndarray:
    """Each patch's measurement law over its feature qubits, averaged over
    the samples of ``noise_batch``: (t, 2^n) with the auxiliary qubits
    traced out; entry b of a patch reads feature qubit k as bit k of b."""
    total = np.zeros((cfg.n_patches, 2**cfg.n_feature))
    for blk in _blocks(cfg, params.theta, noise_batch):
        probs = _probs(cfg, blk)
        total[blk.patches] += probs.reshape(
            len(probs), -1, total.shape[1], probs.shape[-1]).sum(axis=(1, 3))
    return total / noise_batch.shape[0]


@lru_cache(maxsize=None)
def _trace_index(n: int):
    """Indices that gather each qubit's 2x2 partial trace of an (n, n)
    matrix: entry (a, b) of qubit j sums ``[i, i ^ (a ^ b) 2^j]`` over the
    i whose bit j is a."""
    j = np.arange(n.bit_length() - 1)[:, None, None, None]
    a, b, r = np.ogrid[:2, :2, :n // 2]
    rows = (r >> j << j + 1) | (a << j) | (r & (1 << j) - 1)
    return rows, rows ^ (a ^ b) << j


def _pair_sums(blk: _Block, psi: np.ndarray, bra: np.ndarray) -> np.ndarray:
    """Each qubit's pair sums ``s_ab = sum bra_a psi_b`` over its amplitude
    pairs (a, b its bit values) and all rows, (P, q, 2, 2), for states
    (P, 2^q, S): partial traces of the Gram matrices of ``bra`` against
    ``psi`` over the h = 2^hi top and the bottom indices, the latter with
    both copied to (P, 2^lo, h, S) in scratch slots 0 and 1."""
    (p, n, s), h = psi.shape, blk.phase_hi.shape[-2]
    top = bra.reshape(p, h, -1) @ psi.reshape(p, h, -1).swapaxes(1, 2)
    flips = []
    for x, slot in ((psi, blk.work[0]), (bra, blk.work[1])):
        flip = slot.reshape((p, n // h, h, s), copy=False)
        np.copyto(flip, x.reshape(p, h, -1, s).swapaxes(1, 2))
        flips.append(flip.reshape(p, n // h, -1))
    bottom = flips[1] @ flips[0].swapaxes(1, 2)
    (bi, bj), (ti, tj) = _trace_index(n // h), _trace_index(h)
    return np.concatenate([bottom[:, bi, bj].sum(axis=-1),
                           top[:, ti, tj].sum(axis=-1)], axis=1)


def param_shift_batch(cfg: GeneratorConfig, params: GeneratorParams,
                      noise_batch: np.ndarray,
                      upstream_batch: np.ndarray) -> np.ndarray:
    """Sum over samples of the gradient of ``forward . upstream`` (theta).

    The exact gradient of the +-pi/2 parameter-shift rule, whose name it
    keeps, by adjoint differentiation (Jones & Gacon, arXiv:2009.02823): a
    row's loss is <psi|O|psi>, O = sum_k u_k |1><1|_k.  Per block the
    forward pass keeps each layer's psi after its gates (``_forward`` with
    ``keep``), and bra = conj(O psi) walks the layers backwards alone: undo
    the chain, take each qubit's pair sums s against that layer's psi,
    apply the transposed gates and d(z), as conj(d*) = d.  A prefix
    layer's psi is assembled from its kept terms into the slot bra left.
    Partial traces are invariant under unitaries on the other qubits, so
    in the frame s = H s^H H; the frame's psi is 2^{-q/2} of the true one
    and bra, back through the last layer's factors, 2^{q/2} of it.  With
    phi the RZ angle, d/dphi = Im(s00 - s11) and d/dtheta =
    Re(e^{i phi} s10 - e^{-i phi} s01).
    """
    q, layers = cfg.n_qubits, cfg.n_layers
    last = _prefix_end(cfg)
    upstream = np.moveaxis(upstream_batch.reshape(
        len(noise_batch), cfg.n_patches, cfg.n_feature), 0, -1)
    bits = _feature_bits(cfg.n_qubits, cfg.n_feature)
    undo = [np.argsort(_chain_permutation(q, f)) for f in (False, True)]
    rz_phase = np.exp(1j * params.theta[..., 1])
    grad = np.zeros(params.theta.shape)
    for blk in _blocks(cfg, params.theta, noise_batch, _kept_slots(cfg)):
        (p, h, s), n = blk.phase_hi.shape, blk.phase_lo.shape[1]
        bra, diag = _forward(cfg, blk, keep=True)
        np.conjugate(bra, out=bra)
        bra *= bits @ upstream[blk.patches, :, blk.samples]
        spare = blk.work[4]
        sums = np.empty((p, layers, q, 2, 2), dtype=complex)
        for layer in reversed(range(layers)):
            np.take(bra, undo[layer < layers - 1], axis=1, out=spare,
                    mode="clip")
            bra, spare = spare, bra
            if layer >= last:
                psi = blk.work[5 + (last > 0) + layer - last]
            else:
                psi = spare
                _assemble(*_terms(blk.work[5], layer, h, n, s), blk.work[0],
                          psi.reshape((p, h, n, s), copy=False))
            sums[:, layer] = _pair_sums(blk, psi, bra)
            if layer:
                _gates(bra, spare, *(f.swapaxes(1, 2)
                                     for f in blk.factors(layer)))
                bra *= diag
        sums[:, :-1] = np.einsum("ab,plkbc,cd->plkad", _HADAMARD,
                                 sums[:, :-1], _HADAMARD) / 2
        phase = rz_phase[blk.patches]
        part = grad[blk.patches]
        part[..., 1] += (sums[..., 0, 0] - sums[..., 1, 1]).imag
        part[..., 0] += (phase * sums[..., 1, 0]
                         - phase.conj() * sums[..., 0, 1]).real
    return grad
