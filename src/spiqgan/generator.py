"""Patch generator: one data re-uploading circuit per timestep, and the
dense state-vector kernel that simulates it.

Each patch (sub-generator) drives ``n_feature + n_aux`` qubits.  Every layer
first re-uploads the noise angles with an RX on each qubit, then applies a
trainable RY/RZ pair per qubit, then entangles neighbours with an open CNOT
chain.  All patches share the ansatz but own independent parameters.

Conventions: qubit 0 is the least-significant bit of a basis index, so basis
state ``b`` assigns ``(b >> k) & 1`` to qubit ``k``; rotations are
``R_A(phi) = exp(-i * phi * A / 2)`` for A in {X, Y, Z}.  Gates are applied by
pairing amplitudes along the target qubit's stride, never by building the
full ``2^q x 2^q`` unitary.

Feature qubits are indices ``0 .. n_feature-1``; auxiliary qubits occupy the
top indices and are discarded at readout.  Flattened outputs are patch-major:
entry ``p * n_feature + k`` is neuron ``k`` at timestep ``p``.

Every entry point evaluates many circuit instances (rows) in one vectorized
sweep; a single sample is a batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError

# 2^24 complex doubles is ~268 MB per row; more is a configuration bug.
MAX_QUBITS = 24

# Cap on elements touched per vectorized chunk (~64 MB of complex128).
_CHUNK_ELEMS = 1 << 22


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


def _batch_rotate(states: np.ndarray, num_qubits: int, kind: str, target: int,
                  angles) -> np.ndarray:
    """Rotate one qubit of every row; one angle per row."""
    m = states.shape[0]
    view = states.reshape(m, 2 ** (num_qubits - 1 - target), 2, 2**target)
    a0 = view[:, :, 0, :]
    a1 = view[:, :, 1, :]
    half = 0.5 * np.asarray(angles, dtype=float)[:, None, None]
    out = np.empty_like(view)
    if kind == "RX":
        c = np.cos(half)
        s = 1j * np.sin(half)
        out[:, :, 0, :] = c * a0 - s * a1
        out[:, :, 1, :] = c * a1 - s * a0
    elif kind == "RY":
        c = np.cos(half)
        s = np.sin(half)
        out[:, :, 0, :] = c * a0 - s * a1
        out[:, :, 1, :] = c * a1 + s * a0
    else:
        out[:, :, 0, :] = np.exp(-1j * half) * a0
        out[:, :, 1, :] = np.exp(1j * half) * a1
    return out.reshape(m, -1)


def _batch_probs_chunk(cfg: GeneratorConfig, thetas: np.ndarray,
                       z: np.ndarray) -> np.ndarray:
    q = cfg.n_qubits
    m = thetas.shape[0]
    states = np.zeros((m, 2**q), dtype=np.complex128)
    states[:, 0] = 1.0
    for layer in range(cfg.n_layers):
        for k in range(q):
            states = _batch_rotate(states, q, "RX", k, z[:, layer, k])
        for k in range(q):
            states = _batch_rotate(states, q, "RY", k, thetas[:, layer, k, 0])
            states = _batch_rotate(states, q, "RZ", k, thetas[:, layer, k, 1])
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


def _marginals_from_probs(cfg: GeneratorConfig,
                          probs: np.ndarray) -> np.ndarray:
    """P(qubit k reads 1) per row for every feature qubit k."""
    m = probs.shape[0]
    out = np.empty((m, cfg.n_feature))
    for k in range(cfg.n_feature):
        view = probs.reshape(m, 2 ** (cfg.n_qubits - 1 - k), 2, 2**k)
        out[:, k] = view[:, :, 1, :].sum(axis=(1, 2))
    return out


def forward_batch(cfg: GeneratorConfig, params: GeneratorParams,
                  noise_batch: np.ndarray) -> np.ndarray:
    """Marginals for a batch of samples, flattened patch-major: (B, n*t)."""
    b = noise_batch.shape[0]
    n = cfg.n_feature
    out = np.empty((b, cfg.output_dim))
    for p in range(cfg.n_patches):
        th = np.broadcast_to(params.theta[p],
                             (b, cfg.n_layers, cfg.n_qubits, 2))
        probs = batch_patch_probs(cfg, th, noise_batch[:, p])
        out[:, p * n:(p + 1) * n] = _marginals_from_probs(cfg, probs)
    return out


def sample_batch(cfg: GeneratorConfig, params: GeneratorParams,
                 noise_batch: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Inverse-CDF draws for a batch; ``uniforms`` has shape (B, t).

    Returns a (B, n_feature, n_patches) uint8 array.  Row j of patch p reads
    the first basis state whose cumulative probability exceeds
    ``uniforms[j, p]``; auxiliary bits are discarded.
    """
    b = noise_batch.shape[0]
    out = np.zeros((b, cfg.n_feature, cfg.n_patches), dtype=np.uint8)
    for p in range(cfg.n_patches):
        th = np.broadcast_to(params.theta[p],
                             (b, cfg.n_layers, cfg.n_qubits, 2))
        probs = batch_patch_probs(cfg, th, noise_batch[:, p])
        cum = np.cumsum(probs, axis=1)
        basis = (cum <= uniforms[:, p, None]).sum(axis=1)
        basis = np.minimum(basis, probs.shape[1] - 1)
        for k in range(cfg.n_feature):
            out[:, k, p] = (basis >> k) & 1
    return out


def param_shift_batch(cfg: GeneratorConfig, params: GeneratorParams,
                      noise_batch: np.ndarray,
                      upstream_batch: np.ndarray) -> np.ndarray:
    """Sum of per-sample parameter-shift gradients, theta-shaped.

    Evaluates all +-pi/2 shifts of one patch in a single vectorized sweep;
    reduction order is fixed, so results are reproducible.
    """
    b = noise_batch.shape[0]
    n = cfg.n_feature
    n_shift = cfg.params_per_patch
    grad = np.zeros_like(params.theta)
    eye = np.eye(n_shift) * (math.pi / 2.0)
    for p in range(cfg.n_patches):
        flat = params.theta[p].reshape(n_shift)
        shifted = np.concatenate([flat + eye, flat - eye], axis=0)
        th_all = np.broadcast_to(
            shifted.reshape(1, 2 * n_shift, cfg.n_layers, cfg.n_qubits, 2),
            (b, 2 * n_shift, cfg.n_layers, cfg.n_qubits, 2),
        ).reshape(b * 2 * n_shift, cfg.n_layers, cfg.n_qubits, 2)
        z_all = np.repeat(noise_batch[:, p], 2 * n_shift, axis=0)
        marg = _marginals_from_probs(cfg, batch_patch_probs(cfg, th_all, z_all))
        marg = marg.reshape(b, 2, n_shift, n)
        deriv = 0.5 * (marg[:, 0] - marg[:, 1])
        up = upstream_batch[:, p * n:(p + 1) * n]
        grad[p] = np.einsum("jsn,jn->s", deriv, up).reshape(
            cfg.n_layers, cfg.n_qubits, 2)
    return grad
