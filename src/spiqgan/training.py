"""Adversarial training loop, losses, logging, and checkpointing.

Randomness is organized as counter-based sub-streams: every draw block comes
from a Philox generator keyed by (seed, purpose, generator step, lane), and
each block is drawn in one vectorized call before any work that could run in
parallel.  Training is therefore a pure function of (configs, data, seed).
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from dataclasses import asdict, dataclass
from functools import reduce
from itertools import zip_longest
from typing import Optional, get_type_hints

import numpy as np

from . import critic as critic_mod
from . import generator as gen_mod
from . import stats as stats_mod
from .critic import AdamState, CriticParams, adam_init, adam_step, clip_weights
from .errors import CheckpointFormatError, ConfigurationError, NumericalError
from .fileio import atomic_path, write_csv
from .generator import GeneratorConfig, GeneratorParams
from .spikedata import (MAX_STATE_BITS, SpikeMatrix, WindowSpec, all_windows,
                        bit_reverse_permutation, first_n_spec, sample_windows)

# One mode.  The key and the ``mode`` parameters of the generator losses
# stay because benchmark/checks.py passes ``train_cfg.penalty_mode`` to them
# positionally.
PENALTY_MODES = ("absolute",)

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

# Substream counter words are uint64, so a step or a lane index is below
# 2**64.
MAX_STEPS = 2**64

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
    js_log_interval: int = 25
    js_noise_draws: int = 2048
    penalty_mode: str = "absolute"

    def __post_init__(self):
        for name in ("lr_gen", "lr_critic", "k_coeff", "clip_c"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigurationError(
                    f"{name} must be finite, got {getattr(self, name)!r}")
        if not 0 <= self.total_gen_steps <= MAX_STEPS:
            raise ConfigurationError(
                f"total_gen_steps must be >= 0 and <= 2**64, "
                f"got {self.total_gen_steps}")
        if self.seed < 0:
            raise ConfigurationError("seed must be >= 0")
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        if not (self.lr_gen > 0 and self.lr_critic > 0):
            raise ConfigurationError("learning rates must be > 0")
        if self.k_coeff < 0:
            raise ConfigurationError("k_coeff must be >= 0")
        if not 1 <= self.critic_steps_per_gen <= MAX_STEPS:
            raise ConfigurationError(
                f"critic_steps_per_gen must be >= 1 and <= 2**64, "
                f"got {self.critic_steps_per_gen}")
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

def generator_loss(c_fake, fake_counts, real_counts, k_coeff: float,
                   mode: str = "absolute") -> float:
    """-(1/B) sum_j [C(fake_j) - K * |count gap_j|]."""
    c_fake = np.asarray(c_fake, dtype=float)
    fake_counts = np.asarray(fake_counts, dtype=float)
    real_counts = np.asarray(real_counts, dtype=float)
    if not (c_fake.shape == fake_counts.shape == real_counts.shape):
        raise ConfigurationError("batch length mismatch in generator loss")
    if mode not in PENALTY_MODES:
        raise ConfigurationError(f"unknown penalty mode {mode!r}")
    b = c_fake.size
    return float(-(c_fake - k_coeff * np.abs(fake_counts - real_counts)).sum()
                 / b)


# --- trainer state --------------------------------------------------------

@dataclass
class Checkpoint:
    """Everything training carries from one step to the next; a checkpoint
    file holds exactly this."""

    gen_cfg: GeneratorConfig
    train_cfg: TrainConfig
    window: WindowSpec
    bin_width: float
    gen_params: GeneratorParams
    critic: CriticParams
    adam_gen: AdamState
    adam_critic: AdamState
    gen_step: int


def init_trainer(train_cfg: TrainConfig, gen_cfg: GeneratorConfig,
                 window: WindowSpec, bin_width: float) -> Checkpoint:
    gen_params = gen_mod.init_params(
        gen_cfg, substream(train_cfg.seed, PURPOSE_GEN_INIT))
    critic = critic_mod.init_critic(
        gen_cfg.output_dim, substream(train_cfg.seed, PURPOSE_CRITIC_INIT))
    return Checkpoint(
        gen_cfg=gen_cfg,
        train_cfg=train_cfg,
        window=window,
        bin_width=bin_width,
        gen_params=gen_params,
        critic=critic,
        adam_gen=adam_init((gen_params.theta,)),
        adam_critic=adam_init(critic.tensors()),
        gen_step=0,
    )


def critic_step(state: Checkpoint, real_batch: np.ndarray,
                fake: np.ndarray) -> float:
    """One critic update on the generator's marginals ``fake`` against
    ``real_batch``; the generator stays frozen.

    The Wasserstein loss (1 / 2B) * sum_j (C(fake_j) - C(real_j)) is one
    weighted sum over the stacked batch, so one forward and one backward
    pass give its value and its gradient."""
    tcfg = state.train_cfg
    b = real_batch.shape[0]
    batch = np.concatenate((fake, real_batch))
    coeff = np.repeat((0.5 / b, -0.5 / b), b)
    loss = float(coeff @ critic_mod.critic_forward_batch(state.critic, batch))
    if not np.isfinite(loss):
        raise NumericalError(f"critic loss is not finite: {loss}")
    grads, _ = critic_mod.critic_backward_batch(state.critic, batch, coeff)
    tensors, state.adam_critic = adam_step(
        state.critic.tensors(), grads, state.adam_critic, tcfg.lr_critic)
    state.critic = clip_weights(CriticParams(*tensors), tcfg.clip_c)
    return loss


def generator_loss_given_noise(gen_cfg: GeneratorConfig,
                               params: GeneratorParams,
                               critic: CriticParams,
                               z_block: np.ndarray,
                               real_batch: np.ndarray,
                               k_coeff: float,
                               mode: str) -> float:
    """Generator loss as a deterministic function of the parameters.

    Holds noise, real batch, and critic fixed; finite-difference checks of
    the gradient call it, while training uses ``generator_loss_and_grad``.
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
                            mode: str,
                            marg: np.ndarray | None = None):
    """Returns (loss, dL/dtheta, mean |expected count gap|).  ``marg`` are
    the marginals of ``z_block`` under ``params``, computed here if not
    given."""
    b = z_block.shape[0]
    if marg is None:
        marg = gen_mod.forward_batch(gen_cfg, params, z_block)
    c_fake = critic_mod.critic_forward_batch(critic, marg)
    fake_counts = marg.sum(axis=1)
    real_counts = real_batch.sum(axis=1)
    loss = generator_loss(c_fake, fake_counts, real_counts, k_coeff, mode)
    _, input_grads = critic_mod.critic_backward_batch(
        critic, marg, np.full(b, -1.0 / b))
    gap = fake_counts - real_counts
    upstream = input_grads + (k_coeff / b) * np.sign(gap)[:, None]
    grad = gen_mod.param_shift_batch(gen_cfg, params, z_block, upstream)
    return loss, grad, float(np.abs(gap).mean())


def generator_step(state: Checkpoint, real_batch: np.ndarray,
                   z: np.ndarray, fake: np.ndarray) -> tuple[float, float]:
    """One generator update on noise ``z``, whose marginals are ``fake``;
    the critic stays frozen.

    Returns (loss, mean absolute expected-spike-count gap).
    """
    tcfg = state.train_cfg
    # The loss and the updated angles are checked, so an overflow fails the
    # step with one NumericalError instead of warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        loss, grad, gap = generator_loss_and_grad(
            state.gen_cfg, state.gen_params, state.critic, z, real_batch,
            tcfg.k_coeff, tcfg.penalty_mode, fake)
        if not np.isfinite(loss):
            raise NumericalError(f"generator loss is not finite: {loss}")
        (theta,), state.adam_gen = adam_step(
            (state.gen_params.theta,), (grad,), state.adam_gen, tcfg.lr_gen)
    if not np.isfinite(theta).all():
        raise NumericalError(
            f"generator update left {np.count_nonzero(~np.isfinite(theta))} "
            f"of {theta.size} angles not finite")
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
    patches = gen_mod.patch_distributions(gen_cfg, params, z_block)
    return reduce(np.kron, patches[:, bit_reverse_permutation(n)])


# Windows per block when sampling from a checkpoint.
GENERATE_BLOCK = 4096


def generation_blocks(gen_cfg: GeneratorConfig, seed: int, count: int,
                      block: int = GENERATE_BLOCK):
    """Noise and inverse-CDF uniforms for sampling ``count`` >= 1 windows
    from a checkpoint, yielded as (z, uniforms) for each run of at most
    ``block`` windows in order.  Each comes from its own substream, so the
    concatenated blocks are the same draws for every ``block``."""
    noise = substream(seed, PURPOSE_GENERATE_NOISE)
    picks = substream(seed, PURPOSE_GENERATE_PICK)
    for start in range(0, count, block):
        size = min(block, count - start)
        yield (gen_mod.sample_noise(gen_cfg, noise, size),
               picks.random((size, gen_cfg.n_patches)))


def generation_noise(gen_cfg: GeneratorConfig, seed: int, count: int):
    """All of ``generation_blocks``' draws as one block; exposed so tests
    can reconstruct the exact draws."""
    return next(generation_blocks(gen_cfg, seed, count, count))


# --- the training loop ----------------------------------------------------

@dataclass
class LogRow:
    step: int
    loss_critic: float
    loss_gen: float
    count_gap: float
    js_divergence: Optional[float] = None


def write_train_log(rows, path) -> None:
    write_csv(path, ("step", "loss_critic", "loss_gen", "count_gap",
                     "js_divergence"),
              ((row.step, repr(row.loss_critic), repr(row.loss_gen),
                repr(row.count_gap),
                "" if row.js_divergence is None else repr(row.js_divergence))
               for row in rows))


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
    state = init_trainer(train_cfg, gen_cfg, window, data.bin_width)

    track_js = gen_cfg.n_feature * gen_cfg.n_patches <= MAX_STATE_BITS
    if track_js:
        reference = stats_mod.state_histogram(all_windows(data, window))
        z_eval = gen_mod.sample_noise(
            gen_cfg, substream(seed, PURPOSE_JS_EVAL),
            batch=train_cfg.js_noise_draws)

    rows: list[LogRow] = []
    b, subs = train_cfg.batch_size, train_cfg.critic_steps_per_gen
    z = np.empty(((subs + 1) * b,) + gen_cfg.noise_shape())
    for step in range(train_cfg.total_gen_steps):
        # The critic steps leave theta as it is, so one forward pass gives
        # the marginals of every fake batch of the step: each critic step's
        # noise block, then the generator step's.
        for sub in range(subs):
            z[sub * b:(sub + 1) * b] = gen_mod.sample_noise(
                gen_cfg, substream(seed, PURPOSE_CRITIC_NOISE, step, sub), b)
        z[subs * b:] = gen_mod.sample_noise(
            gen_cfg, substream(seed, PURPOSE_GEN_NOISE, step), b)
        fake = gen_mod.forward_batch(gen_cfg, state.gen_params, z)
        for sub in range(subs):
            real = sample_windows(
                data, window, b,
                substream(seed, PURPOSE_CRITIC_WINDOW, step, sub))
            loss_c = critic_step(state, real, fake[sub * b:(sub + 1) * b])
        real = sample_windows(
            data, window, b, substream(seed, PURPOSE_GEN_WINDOW, step))
        loss_g, gap = generator_step(state, real, z[subs * b:],
                                     fake[subs * b:])
        js = None
        if track_js and (step % train_cfg.js_log_interval == 0
                         or step == train_cfg.total_gen_steps - 1):
            dist = model_state_distribution(gen_cfg, state.gen_params, z_eval)
            js = stats_mod.js_divergence(dist, reference)
        rows.append(LogRow(step, loss_c, loss_g, gap, js))
        state.gen_step = step + 1
    return state, rows


# --- checkpoint serialization ---------------------------------------------

def _tensor_layout(gen_cfg: GeneratorConfig) -> list:
    """[name, shape] of every checkpoint tensor in save order, as gen_cfg
    implies."""
    theta = [gen_cfg.n_patches, gen_cfg.n_layers, gen_cfg.n_qubits, 2]
    h = critic_mod.HIDDEN_UNITS
    critic = [[h, gen_cfg.output_dim], [h], [h], []]
    return ([["gen_theta", theta]]
            + [[f"critic_{k}", shape]
               for k, shape in zip(("w1", "b1", "w2", "b2"), critic)]
            + [["adam_gen_m0", theta], ["adam_gen_v0", theta]]
            + [[f"adam_critic_{mv}{i}", shape]
               for mv in "mv" for i, shape in enumerate(critic)])


def _header_text(ckpt: Checkpoint) -> str:
    """The JSON header that save writes for ``ckpt``."""
    return json.dumps({
        "gen_cfg": asdict(ckpt.gen_cfg),
        "train_cfg": asdict(ckpt.train_cfg),
        "window": {"neuron_subset": list(ckpt.window.neuron_subset),
                   "window_len": ckpt.window.window_len},
        "bin_width": ckpt.bin_width,
        "rng": {"seed": ckpt.train_cfg.seed, "gen_step": ckpt.gen_step},
        "adam_gen_steps": ckpt.adam_gen.step_count,
        "adam_critic_steps": ckpt.adam_critic.step_count,
        "tensors": _tensor_layout(ckpt.gen_cfg),
    }, sort_keys=True)


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Versioned container: magic, version, JSON header, little-endian
    float64 tensor block, trailing CRC-32.

    Written to a temporary file beside ``path`` and renamed over it, so an
    interrupted save leaves any previous checkpoint at ``path`` intact."""
    header = _header_text(ckpt).encode("utf-8")
    blob = bytearray(CHECKPOINT_MAGIC)
    blob += struct.pack("<II", CHECKPOINT_VERSION, len(header))
    blob += header
    tensors = (ckpt.gen_params.theta, *ckpt.critic.tensors(),
               *ckpt.adam_gen.m, *ckpt.adam_gen.v,
               *ckpt.adam_critic.m, *ckpt.adam_critic.v)
    for (name, shape), t in zip(_tensor_layout(ckpt.gen_cfg), tensors,
                                strict=True):
        if list(np.shape(t)) != shape:
            raise ConfigurationError(
                f"tensor {name} has shape {list(np.shape(t))}, gen_cfg "
                f"implies {shape}")
        blob += np.ascontiguousarray(t, dtype="<f8").tobytes()
    blob += struct.pack("<I", zlib.crc32(blob))
    with atomic_path(path) as tmp, open(tmp, "wb") as fh:
        fh.write(blob)


def load_checkpoint(path) -> Checkpoint:
    """The checkpoint saved at ``path``.  Only a file that
    ``save_checkpoint`` would write for the checkpoint it holds loads, so
    saving what this returns reproduces the file byte for byte."""
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
    version, header_len = struct.unpack_from("<II", blob, offset)
    if version != CHECKPOINT_VERSION:
        raise CheckpointFormatError(
            f"checkpoint version {version} unsupported "
            f"(reader is {CHECKPOINT_VERSION})"
        )
    offset += 8
    try:
        return _checkpoint_from(blob[offset:offset + header_len], blob,
                                offset + header_len)
    except (CheckpointFormatError, ConfigurationError):
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CheckpointFormatError(f"malformed checkpoint: {exc!r}") from exc


# JSON values a header field of each config type accepts: a bool is not an
# int, and a float field takes any real number.
_HEADER_TYPES = {int: int, float: (int, float), str: str}


def _header_value(value, kind: type, label: str):
    """``value``, once it is a JSON value of a header field typed ``kind``."""
    if isinstance(value, bool) or not isinstance(value, _HEADER_TYPES[kind]):
        raise CheckpointFormatError(
            f"checkpoint {label} must be {kind.__name__}, got {value!r}")
    return value


def _header_count(value, least: int, label: str) -> int:
    """``value``, once it is a JSON integer (not a bool) of at least
    ``least``."""
    _header_value(value, int, label)
    if value < least:
        raise CheckpointFormatError(
            f"checkpoint {label} must be >= {least}, got {value!r}")
    return value


def _header_config(cls, values: dict, label: str):
    """Config dataclass from a header entry that has exactly its fields,
    each of its field's type."""
    types = get_type_hints(cls)
    unknown, missing = set(values) - set(types), set(types) - set(values)
    if unknown or missing:
        raise CheckpointFormatError(
            f"checkpoint {label} has unknown keys {sorted(unknown)}"
            f", missing keys {sorted(missing)}")
    return cls(**{name: _header_value(value, types[name], f"{label}.{name}")
                  for name, value in values.items()})


def _checkpoint_from(text: bytes, blob: bytes, offset: int) -> Checkpoint:
    header = json.loads(text.decode("utf-8"))
    gen_cfg = _header_config(GeneratorConfig, header["gen_cfg"], "gen_cfg")
    train_cfg = _header_config(TrainConfig, header["train_cfg"], "train_cfg")
    layout = _tensor_layout(gen_cfg)
    for got, want in zip_longest(header["tensors"], layout):
        if got != want:
            raise CheckpointFormatError(
                f"tensor {got} does not match gen_cfg (expected {want})")
    arrays = []
    for _, shape in layout:
        count = math.prod(shape)
        arr = np.frombuffer(blob, dtype="<f8", count=count, offset=offset)
        offset += count * 8
        arrays.append(arr.reshape(shape).astype(np.float64))
    if offset != len(blob) - 4:
        raise CheckpointFormatError("checkpoint tensor block size mismatch")
    theta, w1, b1, w2, b2, m_gen, v_gen, *critic_moments = arrays
    if not np.isfinite(theta).all():
        raise CheckpointFormatError(
            f"checkpoint gen_theta has {np.count_nonzero(~np.isfinite(theta))} "
            f"of {theta.size} angles not finite")
    bin_width = _header_value(header["bin_width"], float, "bin_width")
    if not (math.isfinite(bin_width) and bin_width > 0):
        raise CheckpointFormatError(
            f"checkpoint bin_width must be finite and > 0, got {bin_width!r}")
    subset = header["window"]["neuron_subset"]
    if not isinstance(subset, list):
        raise CheckpointFormatError(
            f"checkpoint window.neuron_subset must be list, got {subset!r}")
    window = WindowSpec(
        tuple(_header_count(i, 0, "window.neuron_subset entry")
              for i in subset),
        _header_count(header["window"]["window_len"], 1, "window.window_len"))
    ckpt = Checkpoint(
        gen_cfg=gen_cfg,
        train_cfg=train_cfg,
        window=window,
        bin_width=bin_width,
        gen_params=GeneratorParams(theta),
        critic=CriticParams(w1, b1, w2, b2),
        adam_gen=AdamState(
            m=(m_gen,), v=(v_gen,),
            step_count=_header_count(header["adam_gen_steps"], 0,
                                     "adam_gen_steps")),
        adam_critic=AdamState(
            m=tuple(critic_moments[:4]), v=tuple(critic_moments[4:]),
            step_count=_header_count(header["adam_critic_steps"], 0,
                                     "adam_critic_steps")),
        gen_step=_header_count(header["rng"]["gen_step"], 0, "rng.gen_step"),
    )
    # The checks above name the usual faults; this one rejects every other
    # header that save would not write, such as an extra key or an rng seed
    # other than train_cfg's.
    want = _header_text(ckpt)
    if want.encode("utf-8") != text:
        saved = json.loads(want)
        differ = sorted(key for key in header.keys() | saved.keys()
                        if key not in header or key not in saved
                        or header[key] != saved[key])
        raise CheckpointFormatError(
            "checkpoint header is not the one save writes for it "
            f"(differs in {differ or 'layout only'})")
    return ckpt
