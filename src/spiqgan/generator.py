"""Patch generator: one data re-uploading circuit per timestep, and the
dense state-vector kernel that simulates it.

Each patch (sub-generator) drives ``n_feature + n_aux`` qubits.  Every layer
first re-uploads the noise angles with an RX on each qubit, then applies a
trainable RY/RZ pair per qubit, then entangles neighbours with an open CNOT
chain.  All patches share the ansatz but own independent parameters.

Conventions: qubit 0 is the least-significant bit of a basis index, so basis
state ``b`` assigns ``(b >> k) & 1`` to qubit ``k``; rotations are
``R_A(phi) = exp(-i * phi * A / 2)`` for A in {X, Y, Z}.  Per layer each
qubit gets one fused 2x2 gate ``RZ RY RX(z)``, applied by pairing amplitudes
along its stride, and the CNOT chain is one composed gather: q passes plus
one gather per layer, never the full ``2^q x 2^q`` unitary.

Feature qubits are indices ``0 .. n_feature-1``; auxiliary qubits occupy the
top indices and are discarded at readout.  Flattened outputs are patch-major:
entry ``p * n_feature + k`` is neuron ``k`` at timestep ``p``.

Every entry point stacks its (sample, patch) circuits on the kernel's row
axis and reduces them a cache-sized block of samples at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError

# 2^24 complex doubles is ~268 MB per row; more is a configuration bug.
MAX_QUBITS = 24

# Amplitudes per kernel chunk: 2^14 complex128 is 256 KB, so a chunk's state
# and the few same-sized temporaries of a gate pass stay in a core's L2 cache
# through all L(q+1) passes instead of streaming through memory on each.
_CHUNK_ELEMS = 1 << 14


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


def _fused_gates(z: np.ndarray, thetas: np.ndarray):
    """Entries ``(a, b)`` of each qubit's layer gate RZ(phi) RY(theta) RX(z).

    ``z``: (m, q), ``thetas``: (m, q, 2).  The product is the SU(2) matrix
    ``[[a, -conj(b)], [b, conj(a)]]``; a and b come out (m, q, 1, 1), ready
    to broadcast over one qubit's amplitude pairs.
    """
    cx, sx = np.cos(0.5 * z), np.sin(0.5 * z)
    cy, sy = np.cos(0.5 * thetas[..., 0]), np.sin(0.5 * thetas[..., 0])
    phase = np.exp(-0.5j * thetas[..., 1])
    a = phase * (cy * cx + 1j * sy * sx)
    b = phase.conj() * (sy * cx - 1j * cy * sx)
    return a[..., None, None], b[..., None, None]


def _batch_probs_chunk(cfg: GeneratorConfig, thetas: np.ndarray,
                       z: np.ndarray) -> np.ndarray:
    q = cfg.n_qubits
    m = thetas.shape[0]
    states = np.zeros((m, 2**q), dtype=np.complex128)
    states[:, 0] = 1.0
    for layer in range(cfg.n_layers):
        a, b = _fused_gates(z[:, layer], thetas[:, layer])
        ca, cb = a.conj(), b.conj()
        for k in range(q):
            view = states.reshape(m, 2 ** (q - 1 - k), 2, 2**k)
            a0, a1 = view[:, :, 0], view[:, :, 1]
            new0 = a[:, k] * a0 - cb[:, k] * a1
            view[:, :, 1] = b[:, k] * a0 + ca[:, k] * a1
            view[:, :, 0] = new0
        states = states[:, _chain_permutation(q)]
    return states.real**2 + states.imag**2


def batch_patch_probs(cfg: GeneratorConfig, thetas: np.ndarray,
                      z: np.ndarray) -> np.ndarray:
    """Measurement distributions for many patch instances at once.

    ``thetas``: (m, L, q, 2); ``z``: (m, q) or (m, L, q).  Returns (m, 2^q).
    """
    m, q, layers = thetas.shape[0], cfg.n_qubits, cfg.n_layers
    if (thetas.shape[1:] != (layers, q, 2)
            or z.shape not in ((m, q), (m, layers, q))):
        raise ConfigurationError("patch angles or noise do not match the config")
    if z.ndim == 2:
        z = np.broadcast_to(z[:, None, :], (m, cfg.n_layers, cfg.n_qubits))
    rows_per_chunk = max(1, _CHUNK_ELEMS // (2**cfg.n_qubits))
    if m <= rows_per_chunk:
        return _batch_probs_chunk(cfg, thetas, z)
    out = np.empty((m, 2**cfg.n_qubits))
    for lo in range(0, m, rows_per_chunk):
        hi = min(lo + rows_per_chunk, m)
        out[lo:hi] = _batch_probs_chunk(cfg, thetas[lo:hi], z[lo:hi])
    return out


def patch_blocks(cfg: GeneratorConfig, variants: np.ndarray,
                 noise_batch: np.ndarray):
    """Patch distributions for a batch, a block of whole samples at a time.

    Stacks every (sample j, patch p, variant s) on the kernel's row axis:
    the row runs angles ``variants[p, s]`` with noise ``noise_batch[j, p]``.
    ``variants`` is (t, S, L, q, 2).  Yields ``(lo, hi, probs)`` with probs
    (hi - lo, t, S, 2^q) for samples ``lo:hi``; a block holds as many samples
    as fit in one kernel chunk, and at least one.
    """
    lead = variants.shape[:2]
    per_sample = lead[0] * lead[1]
    step = max(1, _CHUNK_ELEMS // (per_sample * 2**cfg.n_qubits))
    for lo in range(0, noise_batch.shape[0], step):
        hi = min(lo + step, noise_batch.shape[0])
        rows = (hi - lo) * per_sample
        thetas = np.broadcast_to(variants, (hi - lo,) + variants.shape)
        z = np.broadcast_to(noise_batch[lo:hi, :, None],
                            (hi - lo,) + lead + noise_batch.shape[2:])
        probs = batch_patch_probs(
            cfg, thetas.reshape((rows,) + variants.shape[2:]),
            z.reshape((rows,) + noise_batch.shape[2:]))
        yield lo, hi, probs.reshape((hi - lo,) + lead + (-1,))


def _marginals_from_probs(cfg: GeneratorConfig,
                          probs: np.ndarray) -> np.ndarray:
    """P(qubit k reads 1) for every feature qubit k: (..., 2^q) -> (..., n)."""
    lead = probs.shape[:-1]
    out = np.empty(lead + (cfg.n_feature,))
    for k in range(cfg.n_feature):
        view = probs.reshape(lead + (2 ** (cfg.n_qubits - 1 - k), 2, 2**k))
        out[..., k] = view[..., 1, :].sum(axis=(-2, -1))
    return out


def forward_batch(cfg: GeneratorConfig, params: GeneratorParams,
                  noise_batch: np.ndarray) -> np.ndarray:
    """Marginals for a batch of samples, flattened patch-major: (B, n*t)."""
    out = np.empty((noise_batch.shape[0], cfg.output_dim))
    for lo, hi, probs in patch_blocks(cfg, params.theta[:, None], noise_batch):
        out[lo:hi] = _marginals_from_probs(cfg, probs[:, :, 0]).reshape(
            hi - lo, -1)
    return out


def sample_batch(cfg: GeneratorConfig, params: GeneratorParams,
                 noise_batch: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Inverse-CDF draws for a batch; ``uniforms`` has shape (B, t).

    Returns a (B, n_feature, n_patches) uint8 array.  Row j of patch p reads
    the first basis state whose cumulative probability exceeds
    ``uniforms[j, p]``; auxiliary bits are discarded.
    """
    out = np.empty((noise_batch.shape[0], cfg.n_feature, cfg.n_patches),
                   dtype=np.uint8)
    qubit = np.arange(cfg.n_feature)[:, None]
    for lo, hi, probs in patch_blocks(cfg, params.theta[:, None], noise_batch):
        cum = np.cumsum(probs[:, :, 0], axis=-1)
        basis = (cum <= uniforms[lo:hi, :, None]).sum(axis=-1)
        basis = np.minimum(basis, cum.shape[-1] - 1)
        out[lo:hi] = (basis[:, None, :] >> qubit) & 1
    return out


def param_shift_batch(cfg: GeneratorConfig, params: GeneratorParams,
                      noise_batch: np.ndarray,
                      upstream_batch: np.ndarray) -> np.ndarray:
    """Sum of per-sample parameter-shift gradients, theta-shaped.

    Every angle's +-pi/2 shifts of every patch run as variants in one
    stacked sweep; reduction order is fixed, so results are reproducible.
    """
    t, n, n_shift = cfg.n_patches, cfg.n_feature, cfg.params_per_patch
    flat = params.theta.reshape(t, 1, n_shift)
    eye = np.eye(n_shift) * (math.pi / 2.0)
    variants = np.concatenate([flat + eye, flat - eye], axis=1).reshape(
        t, 2 * n_shift, cfg.n_layers, cfg.n_qubits, 2)
    upstream = upstream_batch.reshape(-1, t, n)
    grad = np.zeros((t, n_shift))
    for lo, hi, probs in patch_blocks(cfg, variants, noise_batch):
        marg = _marginals_from_probs(cfg, probs).reshape(
            hi - lo, t, 2, n_shift, n)
        deriv = 0.5 * (marg[:, :, 0] - marg[:, :, 1])
        grad += np.einsum("jpsn,jpn->ps", deriv, upstream[lo:hi])
    return grad.reshape(params.theta.shape)
