"""Patch generator: one data re-uploading circuit per timestep, and the
dense state-vector kernel that simulates it.

Each patch (sub-generator) drives ``n_feature + n_aux`` qubits.  Every layer
first re-uploads the noise angles with an RX on each qubit, then applies a
trainable RY/RZ pair per qubit, then entangles neighbours with an open CNOT
chain.  All patches share the ansatz but own independent parameters.

Conventions: qubit 0 is the least-significant bit of a basis index, so basis
state ``b`` assigns ``(b >> k) & 1`` to qubit ``k``; rotations are
``R_A(phi) = exp(-i * phi * A / 2)`` for A in {X, Y, Z}.  Per layer each
qubit gets one fused 2x2 gate ``RZ RY RX(z)`` and the CNOT chain is one
composed gather; the full ``2^q x 2^q`` unitary is never formed.  The gates
come from two tables: the RZ RY coefficients of every (patch, layer, qubit),
built once per call and shared by all rows of a patch, and each row's
cos/sin of its half noise angles, taken once per row (per layer only when
the noise is resampled).  Below ``_KRON_QUBITS`` qubits a layer's gates are q
strided passes, each pairing amplitudes along one qubit's stride; from it
up, each state is a ``2^hi x 2^lo`` matrix S over its top and bottom halves
of qubits, and the layer is two batched matmuls ``G_hi S G_lo^T`` with the
Kronecker products of those halves' gates.  The first layer acts on |0...0>,
so its output is the Kronecker product of the gates' first columns.

Feature qubits are indices ``0 .. n_feature-1``; auxiliary qubits occupy the
top indices and are discarded at readout.  Flattened outputs are patch-major:
entry ``p * n_feature + k`` is neuron ``k`` at timestep ``p``.

Every entry point stacks its (sample, patch) circuits on one flat row axis
and walks it in cache-sized chunks from ``_row_chunks``, the only code that
knows the row layout.  The generator gradient is an adjoint sweep over the
same rows: one forward pass, then one backward pass that un-computes each
layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError

# 2^24 complex doubles is ~268 MB per row; more is a configuration bug.
MAX_QUBITS = 24

# Amplitudes per kernel chunk: 2^14 complex128 is 256 KB, so a chunk's state
# and the few same-sized temporaries of a gate pass stay in a core's L2 cache
# through all L(q+1) passes instead of streaming through memory on each.
_CHUNK_ELEMS = 1 << 14

# Qubit count from which _apply_gates applies a layer as two batched matmuls
# of Kronecker-factored gates instead of one strided pass per qubit.  The
# crossover, measured with forward_batch, sample_batch (1024 samples) and the
# gradient (128 samples) at t=2 on one CPU, median of 9 alternating calls,
# two runs: at q=6 the strided passes win (forward 33-36 vs 37-41 ms,
# sampling 32-34 vs 37-40 ms, gradient 14-15 vs 15-16 ms), at q=7 they win
# forward (64-65 vs 72 ms) and sampling (55 vs 66-68 ms) and lose the
# gradient (34-36 vs 29 ms), and from q=8 the matmuls win (forward 129-135
# -> 99-102 ms, sampling 124-131 -> 101-109 ms, gradient 81-83 -> 54 ms).
_KRON_QUBITS = 8


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
    resample_noise_each_layer: bool = False

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
        if not self.noise_low <= self.noise_high:
            raise ConfigurationError("noise_low must be <= noise_high")

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
        """Per-sample noise tensor shape."""
        if self.resample_noise_each_layer:
            return (self.n_patches, self.n_layers, self.n_qubits)
        return (self.n_patches, self.n_qubits)


@dataclass
class GeneratorParams:
    """Trainable angles, indexed [patch][layer][qubit][axis] (axis 0=RY, 1=RZ)."""

    theta: np.ndarray

    @property
    def count(self) -> int:
        return self.theta.size

    def copy(self) -> "GeneratorParams":
        return GeneratorParams(self.theta.copy())


def init_params(cfg: GeneratorConfig, rng: np.random.Generator) -> GeneratorParams:
    """Draw every angle i.i.d. uniform from [0, 2*pi)."""
    shape = (cfg.n_patches, cfg.n_layers, cfg.n_qubits, 2)
    return GeneratorParams(rng.uniform(0.0, 2.0 * math.pi, shape))


def sample_noise(cfg: GeneratorConfig, rng: np.random.Generator,
                 batch: int | None = None) -> np.ndarray:
    """Draw noise angles uniform in [noise_low, noise_high)."""
    shape = cfg.noise_shape()
    if batch is not None:
        shape = (batch,) + shape
    return rng.uniform(cfg.noise_low, cfg.noise_high, shape)


# --- vectorized many-circuit kernels -------------------------------------

@lru_cache(maxsize=None)
def _chain_permutation(num_qubits: int) -> np.ndarray:
    """Source indices of the whole CNOT chain, ``new[i] = old[perm[i]]``.

    Composes CNOT(k, k+1) for k = 0 .. q-2 in circuit order, so a layer's
    whole chain is one gather.
    """
    idx = np.arange(2**num_qubits)
    perm = idx
    for k in range(num_qubits - 1):
        perm = perm[np.where((idx >> k) & 1 == 1, idx ^ (1 << (k + 1)), idx)]
    perm.setflags(write=False)
    return perm


class _Rows(NamedTuple):
    """Kernel rows: row i runs gate-table column ``patch[i]`` with noise
    ``cos[i]``, ``sin[i]`` = cos(z/2), sin(z/2), each (L, q) per row."""

    table: np.ndarray
    patch: np.ndarray
    cos: np.ndarray
    sin: np.ndarray


def _gate_table(theta: np.ndarray) -> np.ndarray:
    """Coefficients of each RZ(phi) RY(theta) pair, for angles ``theta``
    (T, L, q, 2), as an (L, 2, T, q) complex table of
    ``A = e^{-i phi/2} cos(theta/2)`` and ``B = i e^{-i phi/2} sin(theta/2)``;
    a layer's A and B rows are contiguous, so rows gather them cheaply."""
    half = 0.5 * theta.transpose(1, 3, 0, 2)
    phase = np.exp(-1j * half[:, 1])
    return np.stack([phase * np.cos(half[:, 0]),
                     1j * phase * np.sin(half[:, 0])], axis=1)


def _noise_table(cfg: GeneratorConfig, z: np.ndarray):
    """cos(z/2) and sin(z/2) of each row's noise ``z`` (m, q) or (m, L, q),
    as (m, L, q) views: taken once per row, not once per layer unless the
    noise is resampled per layer."""
    half = 0.5 * z.reshape(len(z), -1, cfg.n_qubits)
    shape = (len(z), cfg.n_layers, cfg.n_qubits)
    return np.broadcast_to(np.cos(half), shape), np.broadcast_to(
        np.sin(half), shape)


def _layer_gates(rows: _Rows, layer: int):
    """Entries ``(a, b)`` of each row's gate RZ(phi) RY(theta) RX(z) in
    ``layer``, each (m, q).  The gate is the SU(2) matrix
    ``[[a, -conj(b)], [b, conj(a)]]`` with ``a = A cx + B sx`` and
    ``b = i conj(B cx - A sx)``, where cx, sx = cos(z/2), sin(z/2)."""
    big_a, big_b = np.take(rows.table[layer], rows.patch, axis=1)
    cx, sx = rows.cos[:, layer], rows.sin[:, layer]
    return big_a * cx + big_b * sx, 1j * (big_b * cx - big_a * sx).conj()


def _kron_rows(factors: np.ndarray) -> np.ndarray:
    """Each row's Kronecker product ``f[j-1] x ... x f[1] x f[0]`` of its
    factors (m, j, r, c), as (m, r^j, c^j): factor 0 (the lowest qubit)
    varies fastest along both axes, matching the basis-index convention."""
    m = factors.shape[0]
    out = factors[:, 0]
    for k in range(1, factors.shape[1]):
        f = factors[:, k]
        out = (f[:, :, None, :, None] * out[:, None, :, None, :]).reshape(
            m, f.shape[1] * out.shape[1], f.shape[2] * out.shape[2])
    return out


def _apply_gates(states: np.ndarray, q: int, a: np.ndarray,
                 b: np.ndarray) -> np.ndarray:
    """Apply each row's layer gate, the tensor product over qubits k of
    ``[[a_k, -conj(b_k)], [b_k, conj(a_k)]]``, to ``states`` (..., m, 2^q);
    ``a``, ``b`` are (m, q).  Returns the new states, which below
    ``_KRON_QUBITS`` are ``states`` updated in place.

    From ``_KRON_QUBITS`` up, each row's amplitudes are a (2^hi, 2^lo)
    matrix S over its top hi = q - q//2 and bottom lo = q//2 qubits, and the
    layer is ``S <- G_hi S G_lo^T`` with G_hi, G_lo the Kronecker products
    of those qubits' gates: two batched matmuls.  Below it, one strided pass
    per qubit pairs the amplitudes along that qubit's stride.
    """
    lead = states.shape[:-1]
    if q >= _KRON_QUBITS:
        lo = q // 2
        gates = np.stack([a, -b.conj(), b, a.conj()], axis=-1).reshape(
            a.shape + (2, 2))
        s = states.reshape(lead + (2 ** (q - lo), 2**lo))
        s = _kron_rows(gates[:, lo:]) @ s @ _kron_rows(
            gates[:, :lo]).transpose(0, 2, 1)
        return s.reshape(states.shape)
    a, b = a[..., None, None], b[..., None, None]
    ca, cb = a.conj(), b.conj()
    for k in range(q):
        view = states.reshape(lead + (2 ** (q - 1 - k), 2, 2**k))
        a0, a1 = view[..., 0, :], view[..., 1, :]
        new0 = a[:, k] * a0 - cb[:, k] * a1
        view[..., 1, :] = b[:, k] * a0 + ca[:, k] * a1
        view[..., 0, :] = new0
    return states


def _forward_states(cfg: GeneratorConfig, rows: _Rows) -> np.ndarray:
    """Final state vectors (m, 2^q) of ``rows``.

    The first layer acts on |0...0>, so its output is the Kronecker product
    of the gates' first columns ``(a_k, b_k)``.
    """
    q, m = cfg.n_qubits, len(rows.patch)
    a, b = _layer_gates(rows, 0)
    states = _kron_rows(np.stack([a, b], axis=-1)[..., None]).reshape(m, -1)
    states = states[:, _chain_permutation(q)]
    for layer in range(1, cfg.n_layers):
        states = _apply_gates(states, q, *_layer_gates(rows, layer))
        states = states[:, _chain_permutation(q)]
    return states


def _row_chunks(cfg: GeneratorConfig, theta: np.ndarray,
                noise_batch: np.ndarray, states_per_row: int = 1):
    """``(part, rows)`` per kernel chunk of a batch's flat row axis.

    Row ``j * T + p`` runs patch p's column of the gate table of ``theta``
    (T, L, q, 2), built once per call, with noise ``noise_batch[j, p]``.
    Each slice ``part`` holds as many rows of ``states_per_row`` state
    vectors as fit in one kernel chunk, and at least one; it may start
    mid-sample, and its noise cos/sin are taken for its rows only.
    """
    patches = theta.shape[0]
    table = _gate_table(theta)
    z = noise_batch.reshape((-1,) + noise_batch.shape[2:])
    step = max(1, _CHUNK_ELEMS // (states_per_row * 2**cfg.n_qubits))
    for lo in range(0, len(z), step):
        part = slice(lo, min(lo + step, len(z)))
        yield part, _Rows(table, np.arange(part.start, part.stop) % patches,
                          *_noise_table(cfg, z[part]))


def _probs(cfg: GeneratorConfig, rows: _Rows) -> np.ndarray:
    """Measurement distributions (m, 2^q) of ``rows``."""
    states = _forward_states(cfg, rows)
    return np.square(states.real) + np.square(states.imag)


def _patch_sums(rows: _Rows, values: np.ndarray) -> np.ndarray:
    """Per-patch sums (T, ...) of a chunk's row ``values`` (m, ...), in row
    order: zero-padded to whole samples, the rows line up as (samples, T)."""
    t, lead, m = rows.table.shape[2], rows.patch[0], len(values)
    padded = np.zeros((-(-(lead + m) // t) * t,) + values.shape[1:])
    padded[lead:lead + m] = values
    return padded.reshape((-1, t) + values.shape[1:]).sum(0)


@lru_cache(maxsize=None)
def _feature_bits(cfg: GeneratorConfig) -> np.ndarray:
    """Feature bits (2^q, n) of each basis state; ``probs @ bits`` are the
    marginals P(qubit k reads 1)."""
    basis = np.arange(2**cfg.n_qubits)[:, None]
    bits = ((basis >> np.arange(cfg.n_feature)) & 1).astype(float)
    bits.setflags(write=False)
    return bits


def batch_patch_probs(cfg: GeneratorConfig, thetas: np.ndarray,
                      z: np.ndarray) -> np.ndarray:
    """Measurement distributions for many patch instances at once.

    ``thetas``: (m, L, q, 2); ``z``: (m, q) or (m, L, q).  Returns (m, 2^q).
    """
    m, q, layers = thetas.shape[0], cfg.n_qubits, cfg.n_layers
    if (thetas.shape[1:] != (layers, q, 2)
            or z.shape not in ((m, q), (m, layers, q))):
        raise ConfigurationError("patch angles or noise do not match the config")
    out = np.empty((m, 2**q))
    for part, rows in _row_chunks(cfg, thetas, z[None]):
        out[part] = _probs(cfg, rows)
    return out


def forward_batch(cfg: GeneratorConfig, params: GeneratorParams,
                  noise_batch: np.ndarray) -> np.ndarray:
    """Marginals for a batch of samples, flattened patch-major: (B, n*t)."""
    out = np.empty((noise_batch.shape[0], cfg.output_dim))
    row_out, bits = out.reshape(-1, cfg.n_feature), _feature_bits(cfg)
    for part, rows in _row_chunks(cfg, params.theta, noise_batch):
        np.matmul(_probs(cfg, rows), bits, out=row_out[part])
    return out


def sample_batch(cfg: GeneratorConfig, params: GeneratorParams,
                 noise_batch: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Inverse-CDF draws for a batch; ``uniforms`` has shape (B, t).

    Returns a (B, n_feature, n_patches) uint8 view of the per-row bits.  Row
    j of patch p reads the first basis state whose cumulative probability
    exceeds ``uniforms[j, p]``; auxiliary bits are discarded.
    """
    out = np.empty((noise_batch.shape[0], cfg.n_patches, cfg.n_feature),
                   dtype=np.uint8)
    row_out, row_u = out.reshape(-1, cfg.n_feature), uniforms.reshape(-1, 1)
    bits = _feature_bits(cfg)
    for part, rows in _row_chunks(cfg, params.theta, noise_batch):
        cum = np.cumsum(_probs(cfg, rows), axis=-1)
        basis = (cum <= row_u[part]).sum(axis=-1)
        row_out[part] = bits[np.minimum(basis, cum.shape[-1] - 1)]
    return out.transpose(0, 2, 1)


def patch_distributions(cfg: GeneratorConfig, params: GeneratorParams,
                        noise_batch: np.ndarray) -> np.ndarray:
    """Each patch's measurement law over its feature qubits, averaged over
    the samples of ``noise_batch``: (t, 2^n) with the auxiliary qubits
    traced out; entry b of a patch reads feature qubit k as bit k of b."""
    total = np.zeros((cfg.n_patches, 2**cfg.n_feature))
    for _, rows in _row_chunks(cfg, params.theta, noise_batch):
        probs = _probs(cfg, rows).reshape(len(rows.patch), -1, total.shape[1])
        total += _patch_sums(rows, probs.sum(axis=1))
    return total / noise_batch.shape[0]


def _adjoint_chunk(cfg: GeneratorConfig, rows: _Rows, rz_phase: np.ndarray,
                   weights: np.ndarray) -> np.ndarray:
    """Each row's gradient of <psi|diag(weights)|psi> w.r.t. its angles.

    ``rz_phase`` is e^{i phi} per table column (T, L, q) and ``weights``
    (m, 2^q); returns (m, L, q, 2).  Walks the layers backwards from the
    final psi and lam = diag(weights) psi.  Per layer it
    undoes the CNOT chain, reads every qubit's derivatives from the pair sums
    ``s_ab = sum conj(lam_a) psi_b`` over the qubit's amplitude pairs (a, b
    its bit values), then un-applies the layer's gates on psi and lam.
    With phi the RZ angle, d/dphi = Im(s00 - s11) and
    d/dtheta = Re(e^{i phi} s10) - Re(e^{-i phi} s01).
    """
    q, m = cfg.n_qubits, len(rows.patch)
    psi = _forward_states(cfg, rows)
    states = np.stack([psi, weights * psi])  # psi and lam, one array
    grad = np.empty((m, cfg.n_layers, q, 2))
    inverse = np.argsort(_chain_permutation(q))  # old[i] = new[inverse[i]]
    for layer in reversed(range(cfg.n_layers)):
        states = states[..., inverse]
        psi, bra = states[0], states[1].conj()
        phase = np.take(rz_phase[:, layer], rows.patch, axis=0)
        for k in range(q):
            shape = (m, 2 ** (q - 1 - k), 2, 2**k)
            s = np.einsum("mxay,mxby->mab", bra.reshape(shape),
                          psi.reshape(shape))
            grad[:, layer, k, 1] = (s[:, 0, 0] - s[:, 1, 1]).imag
            grad[:, layer, k, 0] = ((phase[:, k] * s[:, 1, 0]).real
                                    - (phase[:, k].conj() * s[:, 0, 1]).real)
        if layer:  # the states before the first layer are not needed
            a, b = _layer_gates(rows, layer)
            states = _apply_gates(states, q, a.conj(), -b)
    return grad


def param_shift_batch(cfg: GeneratorConfig, params: GeneratorParams,
                      noise_batch: np.ndarray,
                      upstream_batch: np.ndarray) -> np.ndarray:
    """Sum over samples of the gradient of ``forward . upstream``,
    theta-shaped.

    This is the exact gradient that the +-pi/2 parameter-shift rule gives,
    and keeps that rule's name for the callers that look it up by it.  It
    is computed by adjoint differentiation (Jones & Gacon,
    arXiv:2009.02823): each (sample, patch) row's loss is <psi|O|psi> with
    the diagonal observable O = sum_k u_k |1><1|_k over the feature qubits,
    so one forward pass and one backward sweep per row give every angle's
    derivative, instead of two shifted circuits per angle.  Rows come from
    ``_row_chunks`` with psi and lam sharing each chunk, and each chunk's
    row gradients are added to their patches in row order, so results are
    reproducible.
    """
    upstream = upstream_batch.reshape(-1, cfg.n_feature)
    bits = _feature_bits(cfg)
    grad = np.zeros(params.theta.shape)
    rz_phase = np.exp(1j * params.theta[..., 1])
    for part, rows in _row_chunks(cfg, params.theta, noise_batch, 2):
        weights = upstream[part] @ bits.T
        grad += _patch_sums(rows, _adjoint_chunk(cfg, rows, rz_phase,
                                                 weights))
    return grad
