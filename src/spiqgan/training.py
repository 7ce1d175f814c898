"""Adversarial training loop, losses, logging, and checkpointing.

Randomness is organized as counter-based sub-streams: every draw block comes
from a Philox generator keyed by (seed, purpose, generator step, lane), and
each block is drawn in one vectorized call before any work that could run in
parallel.  Training is therefore a pure function of (configs, data, seed).
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import asdict, dataclass, fields
from functools import reduce
from itertools import zip_longest
from typing import Optional

import numpy as np

from . import critic as critic_mod
from . import generator as gen_mod
from . import stats as stats_mod
from .critic import AdamState, CriticParams, adam_init, adam_step, clip_weights
from .errors import CheckpointFormatError, ConfigurationError, NumericalError
from .fileio import atomic_path
from .generator import GeneratorConfig, GeneratorParams
from .spikedata import (MAX_STATE_BITS, SpikeMatrix, WindowSpec, all_windows,
                        bit_reverse_permutation, first_n_spec, sample_windows)

PENALTY_MODES = ("absolute", "signed")

# Sub-stream purposes.  Values are part of the checkpoint/reproducibility
# contract: changing them changes every seeded run.
PURPOSE_GEN_INIT = 1
PURPOSE_CRITIC_INIT = 2
PURPOSE_CRITIC_NOISE = 3
PURPOSE_CRITIC_WINDOW = 4
PURPOSE_GEN_NOISE = 5
PURPOSE_GEN_WINDOW = 6
PURPOSE_JS_EVAL = 7
PURPOSE_GENERATE_NOISE = 8
PURPOSE_GENERATE_PICK = 9
PURPOSE_SURROGATE = 10

CHECKPOINT_MAGIC = b"SPIQGAN-CKPT"
CHECKPOINT_VERSION = 1


def substream(seed: int, purpose: int, step: int = 0,
              lane: int = 0) -> np.random.Generator:
    """Independent generator for one (purpose, step, lane) draw block."""
    if not 0 <= seed < 2**128:
        raise ConfigurationError("seed must be >= 0 and < 2**128")
    bg = np.random.Philox(key=seed, counter=[0, lane, step, purpose])
    return np.random.Generator(bg)


@dataclass(frozen=True)
class TrainConfig:
    total_gen_steps: int
    seed: int = 0
    batch_size: int = 32
    lr_gen: float = 0.05
    lr_critic: float = 0.002
    k_coeff: float = 1.0
    critic_steps_per_gen: int = 2
    clip_c: float = 0.01
    clip_enabled: bool = True
    js_log_interval: int = 25
    js_noise_draws: int = 2048
    penalty_mode: str = "absolute"

    def __post_init__(self):
        if self.total_gen_steps < 0:
            raise ConfigurationError("total_gen_steps must be >= 0")
        if self.seed < 0:
            raise ConfigurationError("seed must be >= 0")
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        if not (self.lr_gen > 0 and self.lr_critic > 0):
            raise ConfigurationError("learning rates must be > 0")
        if self.k_coeff < 0:
            raise ConfigurationError("k_coeff must be >= 0")
        if self.critic_steps_per_gen < 1:
            raise ConfigurationError("critic_steps_per_gen must be >= 1")
        if self.clip_c <= 0:
            raise ConfigurationError("clip_c must be > 0")
        if self.js_log_interval < 1:
            raise ConfigurationError("js_log_interval must be >= 1")
        if self.js_noise_draws < 1:
            raise ConfigurationError("js_noise_draws must be >= 1")
        if self.penalty_mode not in PENALTY_MODES:
            raise ConfigurationError(
                f"penalty_mode must be one of {PENALTY_MODES}, "
                f"got {self.penalty_mode!r}"
            )


# --- losses ---------------------------------------------------------------

def critic_loss(c_fake, c_real) -> float:
    """(1 / 2B) * sum_j (C(fake_j) - C(real_j))."""
    c_fake = np.asarray(c_fake, dtype=float)
    c_real = np.asarray(c_real, dtype=float)
    if c_fake.shape != c_real.shape:
        raise ConfigurationError(
            f"length mismatch: {c_fake.shape} vs {c_real.shape}"
        )
    b = c_fake.size
    return float((c_fake - c_real).sum() / (2.0 * b))


def generator_loss(c_fake, fake_counts, real_counts, k_coeff: float,
                   mode: str = "absolute") -> float:
    """-(1/B) sum_j [C(fake_j) - K * penalty(count gap_j)].

    ``mode="absolute"`` penalizes |gap|; ``mode="signed"`` keeps the raw
    signed difference (unbounded below, available for comparison only).
    """
    c_fake = np.asarray(c_fake, dtype=float)
    fake_counts = np.asarray(fake_counts, dtype=float)
    real_counts = np.asarray(real_counts, dtype=float)
    if not (c_fake.shape == fake_counts.shape == real_counts.shape):
        raise ConfigurationError("batch length mismatch in generator loss")
    if mode not in PENALTY_MODES:
        raise ConfigurationError(f"unknown penalty mode {mode!r}")
    gap = fake_counts - real_counts
    penalty = np.abs(gap) if mode == "absolute" else gap
    b = c_fake.size
    return float(-(c_fake - k_coeff * penalty).sum() / b)


# --- trainer state --------------------------------------------------------

@dataclass
class TrainerState:
    gen_cfg: GeneratorConfig
    train_cfg: TrainConfig
    gen_params: GeneratorParams
    critic: CriticParams
    adam_gen: AdamState
    adam_critic: AdamState
    gen_step: int = 0


def init_trainer(train_cfg: TrainConfig,
                 gen_cfg: GeneratorConfig) -> TrainerState:
    gen_params = gen_mod.init_params(
        gen_cfg, substream(train_cfg.seed, PURPOSE_GEN_INIT))
    critic = critic_mod.init_critic(
        gen_cfg.output_dim, substream(train_cfg.seed, PURPOSE_CRITIC_INIT))
    return TrainerState(
        gen_cfg=gen_cfg,
        train_cfg=train_cfg,
        gen_params=gen_params,
        critic=critic,
        adam_gen=adam_init((gen_params.theta,)),
        adam_critic=adam_init(critic.tensors()),
    )


def critic_step(state: TrainerState, real_batch: np.ndarray,
                rng: np.random.Generator) -> float:
    """One critic update on a fresh fake batch; generator stays frozen."""
    cfg = state.gen_cfg
    tcfg = state.train_cfg
    b = real_batch.shape[0]
    z = gen_mod.sample_noise(cfg, rng, batch=b)
    fake = gen_mod.forward_batch(cfg, state.gen_params, z)
    c_fake = critic_mod.critic_forward_batch(state.critic, fake)
    c_real = critic_mod.critic_forward_batch(state.critic, real_batch)
    loss = critic_loss(c_fake, c_real)
    if not np.isfinite(loss):
        raise NumericalError(f"critic loss is not finite: {loss}")
    coeff = 1.0 / (2.0 * b)
    grads_fake, _ = critic_mod.critic_backward_batch(
        state.critic, fake, np.full(b, coeff))
    grads_real, _ = critic_mod.critic_backward_batch(
        state.critic, real_batch, np.full(b, -coeff))
    grads = tuple(gf + gr for gf, gr in zip(grads_fake, grads_real))
    tensors, state.adam_critic = adam_step(
        state.critic.tensors(), grads, state.adam_critic, tcfg.lr_critic)
    new_critic = CriticParams.from_tensors(tensors)
    if tcfg.clip_enabled:
        new_critic = clip_weights(new_critic, tcfg.clip_c)
    state.critic = new_critic
    return loss


def generator_loss_given_noise(gen_cfg: GeneratorConfig,
                               params: GeneratorParams,
                               critic: CriticParams,
                               z_block: np.ndarray,
                               real_batch: np.ndarray,
                               k_coeff: float,
                               mode: str) -> float:
    """Generator loss as a deterministic function of the parameters.

    Holds noise, real batch, and critic fixed; used both by the training
    step and by finite-difference checks of the full gradient path.
    """
    marg = gen_mod.forward_batch(gen_cfg, params, z_block)
    c_fake = critic_mod.critic_forward_batch(critic, marg)
    return generator_loss(c_fake, marg.sum(axis=1), real_batch.sum(axis=1),
                          k_coeff, mode)


def generator_loss_and_grad(gen_cfg: GeneratorConfig,
                            params: GeneratorParams,
                            critic: CriticParams,
                            z_block: np.ndarray,
                            real_batch: np.ndarray,
                            k_coeff: float,
                            mode: str):
    """Returns (loss, dL/dtheta, mean |expected count gap|)."""
    b = z_block.shape[0]
    marg = gen_mod.forward_batch(gen_cfg, params, z_block)
    c_fake = critic_mod.critic_forward_batch(critic, marg)
    fake_counts = marg.sum(axis=1)
    real_counts = real_batch.sum(axis=1)
    loss = generator_loss(c_fake, fake_counts, real_counts, k_coeff, mode)
    _, input_grads = critic_mod.critic_backward_batch(
        critic, marg, np.full(b, -1.0 / b))
    gap = fake_counts - real_counts
    if mode == "absolute":
        penalty_grad = (k_coeff / b) * np.sign(gap)[:, None]
    else:
        penalty_grad = np.full((b, 1), k_coeff / b)
    upstream = input_grads + penalty_grad
    grad = gen_mod.param_shift_batch(gen_cfg, params, z_block, upstream)
    return loss, grad, float(np.abs(gap).mean())


def generator_step(state: TrainerState, real_batch: np.ndarray,
                   rng: np.random.Generator) -> tuple[float, float]:
    """One generator update on fresh noise; critic stays frozen.

    Returns (loss, mean absolute expected-spike-count gap).
    """
    cfg = state.gen_cfg
    tcfg = state.train_cfg
    z = gen_mod.sample_noise(cfg, rng, batch=real_batch.shape[0])
    loss, grad, gap = generator_loss_and_grad(
        cfg, state.gen_params, state.critic, z, real_batch,
        tcfg.k_coeff, tcfg.penalty_mode)
    if not np.isfinite(loss):
        raise NumericalError(f"generator loss is not finite: {loss}")
    (theta,), state.adam_gen = adam_step(
        (state.gen_params.theta,), (grad,), state.adam_gen, tcfg.lr_gen)
    state.gen_params = GeneratorParams(theta)
    return loss, gap


# --- model distribution (for JS logging and sampling oracles) -------------

def model_state_distribution(gen_cfg: GeneratorConfig,
                             params: GeneratorParams,
                             z_block: np.ndarray) -> np.ndarray:
    """Window-state distribution implied by the parameters.

    Patch noise is independent, so the model distribution factorizes over
    patches; each factor is estimated exactly per draw and averaged over the
    given noise block.  Indexing follows the state_indices convention
    (neuron 0 of timestep 0 is the most significant bit).
    """
    n, t = gen_cfg.n_feature, gen_cfg.n_patches
    if n * t > MAX_STATE_BITS:
        raise ConfigurationError("state distribution too large to enumerate")
    total = np.zeros((t, 2**n))
    for lo, hi, rows in gen_mod.patch_blocks(gen_cfg, params.theta, z_block):
        probs = gen_mod.row_probs(gen_cfg, rows)
        total += probs.reshape(hi - lo, t, 2**gen_cfg.n_aux, 2**n).sum(
            axis=(0, 2))
    patches = total[:, bit_reverse_permutation(n)] / z_block.shape[0]
    return reduce(np.kron, patches)


def generation_noise(gen_cfg: GeneratorConfig, seed: int, count: int):
    """Noise block and inverse-CDF uniforms used when sampling from a
    checkpoint; exposed so tests can reconstruct the exact draws."""
    z = gen_mod.sample_noise(
        gen_cfg, substream(seed, PURPOSE_GENERATE_NOISE), batch=count)
    uniforms = substream(seed, PURPOSE_GENERATE_PICK).random(
        (count, gen_cfg.n_patches))
    return z, uniforms


# --- the training loop ----------------------------------------------------

@dataclass
class LogRow:
    step: int
    loss_critic: float
    loss_gen: float
    count_gap: float
    js_divergence: Optional[float] = None


def write_train_log(rows, path) -> None:
    with atomic_path(path) as tmp, open(tmp, "w", encoding="utf-8",
                                        newline="\n") as fh:
        fh.write("step,loss_critic,loss_gen,count_gap,js_divergence\n")
        for row in rows:
            js = "" if row.js_divergence is None else repr(row.js_divergence)
            fh.write(f"{row.step},{row.loss_critic!r},{row.loss_gen!r},"
                     f"{row.count_gap!r},{js}\n")


def train(train_cfg: TrainConfig, data: SpikeMatrix, gen_cfg: GeneratorConfig,
          window: WindowSpec | None = None):
    """Run the full 2-critic-steps-per-generator-step schedule.

    Returns (final Checkpoint, list of LogRow).  JS against the data's
    sliding-window state distribution is logged every ``js_log_interval``
    generator steps while the state space has at most
    ``spikedata.MAX_STATE_BITS`` bits.
    """
    if window is None:
        if data.n_neurons < gen_cfg.n_feature:
            raise ConfigurationError(
                f"data has {data.n_neurons} neurons, need {gen_cfg.n_feature}"
            )
        window = first_n_spec(gen_cfg.n_feature, gen_cfg.n_patches)
    if len(window.neuron_subset) != gen_cfg.n_feature:
        raise ConfigurationError("window subset size must equal n_feature")
    if window.window_len != gen_cfg.n_patches:
        raise ConfigurationError("window length must equal n_patches")
    window.validate_for(data)

    seed = train_cfg.seed
    state = init_trainer(train_cfg, gen_cfg)

    track_js = gen_cfg.n_feature * gen_cfg.n_patches <= MAX_STATE_BITS
    if track_js:
        reference = stats_mod.state_histogram(all_windows(data, window))
        z_eval = gen_mod.sample_noise(
            gen_cfg, substream(seed, PURPOSE_JS_EVAL),
            batch=train_cfg.js_noise_draws)

    rows: list[LogRow] = []
    b = train_cfg.batch_size
    for step in range(train_cfg.total_gen_steps):
        loss_c = float("nan")
        for sub in range(train_cfg.critic_steps_per_gen):
            real = sample_windows(
                data, window, b,
                substream(seed, PURPOSE_CRITIC_WINDOW, step, sub))
            loss_c = critic_step(
                state, real, substream(seed, PURPOSE_CRITIC_NOISE, step, sub))
        real = sample_windows(
            data, window, b, substream(seed, PURPOSE_GEN_WINDOW, step))
        loss_g, gap = generator_step(
            state, real, substream(seed, PURPOSE_GEN_NOISE, step))
        js = None
        if track_js and (step % train_cfg.js_log_interval == 0
                         or step == train_cfg.total_gen_steps - 1):
            dist = model_state_distribution(gen_cfg, state.gen_params, z_eval)
            js = stats_mod.js_divergence(dist, reference)
        rows.append(LogRow(step, loss_c, loss_g, gap, js))
        state.gen_step = step + 1

    ckpt = Checkpoint(
        gen_cfg=gen_cfg,
        train_cfg=train_cfg,
        window=window,
        bin_width=data.bin_width,
        gen_params=state.gen_params,
        critic=state.critic,
        adam_gen=state.adam_gen,
        adam_critic=state.adam_critic,
        gen_step=state.gen_step,
    )
    return ckpt, rows


# --- checkpoint serialization ---------------------------------------------

@dataclass
class Checkpoint:
    gen_cfg: GeneratorConfig
    train_cfg: TrainConfig
    window: WindowSpec
    bin_width: float
    gen_params: GeneratorParams
    critic: CriticParams
    adam_gen: AdamState
    adam_critic: AdamState
    gen_step: int


def _checkpoint_tensors(ckpt: Checkpoint) -> list[tuple[str, np.ndarray]]:
    tensors = [("gen_theta", ckpt.gen_params.theta)]
    for name, t in zip(("critic_w1", "critic_b1", "critic_w2", "critic_b2"),
                       ckpt.critic.tensors()):
        tensors.append((name, t))
    for label, adam in (("adam_gen", ckpt.adam_gen),
                        ("adam_critic", ckpt.adam_critic)):
        for i, t in enumerate(adam.m):
            tensors.append((f"{label}_m{i}", t))
        for i, t in enumerate(adam.v):
            tensors.append((f"{label}_v{i}", t))
    return tensors


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Versioned container: magic, version, JSON header, little-endian
    float64 tensor block, trailing CRC-32.

    Written to a temporary file beside ``path`` and renamed over it, so an
    interrupted save leaves any previous checkpoint at ``path`` intact."""
    tensors = _checkpoint_tensors(ckpt)
    header = {
        "gen_cfg": asdict(ckpt.gen_cfg),
        "train_cfg": asdict(ckpt.train_cfg),
        "window": {"neuron_subset": list(ckpt.window.neuron_subset),
                   "window_len": ckpt.window.window_len},
        "bin_width": ckpt.bin_width,
        "rng": {"seed": ckpt.train_cfg.seed, "gen_step": ckpt.gen_step},
        "adam_gen_steps": ckpt.adam_gen.step_count,
        "adam_critic_steps": ckpt.adam_critic.step_count,
        "tensors": [[name, list(np.shape(t))] for name, t in tensors],
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    blob = bytearray()
    blob += CHECKPOINT_MAGIC
    blob += struct.pack("<I", CHECKPOINT_VERSION)
    blob += struct.pack("<I", len(header_bytes))
    blob += header_bytes
    for _, t in tensors:
        blob += np.ascontiguousarray(t, dtype="<f8").tobytes()
    blob += struct.pack("<I", zlib.crc32(bytes(blob)))
    with atomic_path(path) as tmp, open(tmp, "wb") as fh:
        fh.write(bytes(blob))


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(CHECKPOINT_MAGIC) + 12:
        raise CheckpointFormatError("checkpoint file truncated")
    if blob[:len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise CheckpointFormatError("not a checkpoint file (bad magic)")
    stored_crc = struct.unpack("<I", blob[-4:])[0]
    if zlib.crc32(blob[:-4]) != stored_crc:
        raise CheckpointFormatError("checkpoint checksum mismatch")
    offset = len(CHECKPOINT_MAGIC)
    version = struct.unpack_from("<I", blob, offset)[0]
    if version != CHECKPOINT_VERSION:
        raise CheckpointFormatError(
            f"checkpoint version {version} unsupported "
            f"(reader is {CHECKPOINT_VERSION})"
        )
    offset += 4
    header_len = struct.unpack_from("<I", blob, offset)[0]
    offset += 4
    try:
        header = json.loads(blob[offset:offset + header_len].decode("utf-8"))
        return _checkpoint_from(header, blob, offset + header_len)
    except (CheckpointFormatError, ConfigurationError):
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointFormatError(f"malformed checkpoint: {exc!r}") from exc


def _header_config(cls, values: dict, label: str):
    """Config dataclass from a header entry that has exactly its fields."""
    known = {f.name for f in fields(cls)}
    if set(values) != known:
        raise CheckpointFormatError(
            f"checkpoint {label} has unknown keys {sorted(set(values) - known)}"
            f", missing keys {sorted(known - set(values))}")
    return cls(**values)


def _expected_manifest(gen_cfg: GeneratorConfig) -> list:
    """[name, shape] of every tensor in save order, as gen_cfg implies."""
    theta = [gen_cfg.n_patches, gen_cfg.n_layers, gen_cfg.n_qubits, 2]
    h = critic_mod.HIDDEN_UNITS
    critic = [[h, gen_cfg.output_dim], [h], [h], []]
    return ([["gen_theta", theta]]
            + [[f"critic_{k}", shape]
               for k, shape in zip(("w1", "b1", "w2", "b2"), critic)]
            + [["adam_gen_m0", theta], ["adam_gen_v0", theta]]
            + [[f"adam_critic_{mv}{i}", shape]
               for mv in "mv" for i, shape in enumerate(critic)])


def _checkpoint_from(header: dict, blob: bytes, offset: int) -> Checkpoint:
    gen_cfg = _header_config(GeneratorConfig, header["gen_cfg"], "gen_cfg")
    train_cfg = _header_config(TrainConfig, header["train_cfg"], "train_cfg")
    manifest = header["tensors"]
    for got, want in zip_longest(manifest, _expected_manifest(gen_cfg)):
        if got != want:
            raise CheckpointFormatError(
                f"tensor {got} does not match gen_cfg (expected {want})")
    arrays = {}
    for name, shape in manifest:
        count = int(np.prod(shape)) if shape else 1
        arr = np.frombuffer(blob, dtype="<f8", count=count, offset=offset)
        offset += count * 8
        arrays[name] = arr.reshape(shape).astype(np.float64)
    if offset != len(blob) - 4:
        raise CheckpointFormatError("checkpoint tensor block size mismatch")
    window = WindowSpec(tuple(header["window"]["neuron_subset"]),
                        header["window"]["window_len"])
    critic = CriticParams.from_tensors(
        tuple(arrays[f"critic_{k}"] for k in ("w1", "b1", "w2", "b2")))
    adam_gen = AdamState(
        m=(arrays["adam_gen_m0"],), v=(arrays["adam_gen_v0"],),
        step_count=header["adam_gen_steps"])
    adam_critic = AdamState(
        m=tuple(arrays[f"adam_critic_m{i}"] for i in range(4)),
        v=tuple(arrays[f"adam_critic_v{i}"] for i in range(4)),
        step_count=header["adam_critic_steps"])
    return Checkpoint(
        gen_cfg=gen_cfg,
        train_cfg=train_cfg,
        window=window,
        bin_width=header["bin_width"],
        gen_params=GeneratorParams(arrays["gen_theta"]),
        critic=critic,
        adam_gen=adam_gen,
        adam_critic=adam_critic,
        gen_step=header["rng"]["gen_step"],
    )
