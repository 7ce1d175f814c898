"""Classical critic: input -> 64 ReLU units -> scalar, with hand-rolled
backprop, a generic Adam step (shared with the generator), and weight
clipping for the Lipschitz constraint."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

HIDDEN_UNITS = 64

# Adam's moment decay rates and denominator offset.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class CriticParams:
    w1: np.ndarray  # (64, d)
    b1: np.ndarray  # (64,)
    w2: np.ndarray  # (64,)
    b2: np.ndarray  # scalar, shape ()

    @property
    def input_dim(self) -> int:
        return self.w1.shape[1]

    def tensors(self) -> tuple[np.ndarray, ...]:
        return (self.w1, self.b1, self.w2, self.b2)

    def copy(self) -> "CriticParams":
        return CriticParams(*(t.copy() for t in self.tensors()))


def init_critic(input_dim: int, rng: np.random.Generator) -> CriticParams:
    """Uniform init in [-1/sqrt(fan_in), 1/sqrt(fan_in)] per layer."""
    if input_dim < 1:
        raise ConfigurationError("input_dim must be >= 1")
    bound1 = 1.0 / math.sqrt(input_dim)
    bound2 = 1.0 / math.sqrt(HIDDEN_UNITS)
    return CriticParams(
        w1=rng.uniform(-bound1, bound1, (HIDDEN_UNITS, input_dim)),
        b1=rng.uniform(-bound1, bound1, HIDDEN_UNITS),
        w2=rng.uniform(-bound2, bound2, HIDDEN_UNITS),
        b2=np.asarray(rng.uniform(-bound2, bound2)),
    )


def _check_input(p: CriticParams, x: np.ndarray) -> None:
    if x.shape[-1] != p.input_dim:
        raise ConfigurationError(
            f"critic input length {x.shape[-1]} != expected {p.input_dim}"
        )


def critic_forward_batch(p: CriticParams, xs: np.ndarray) -> np.ndarray:
    _check_input(p, xs)
    h = np.maximum(xs @ p.w1.T + p.b1, 0.0)
    return h @ p.w2 + float(p.b2)


def critic_backward_batch(p: CriticParams, xs: np.ndarray, coeff: np.ndarray):
    """Gradients of sum_j coeff_j * C(x_j).

    Returns (parameter gradients as a tensor tuple, per-sample input
    gradients coeff_j * dC/dx_j).  ReLU' at 0 is taken as 0.
    """
    _check_input(p, xs)
    pre = xs @ p.w1.T + p.b1
    h = np.maximum(pre, 0.0)
    act = pre > 0
    dz = (coeff[:, None] * p.w2[None, :]) * act
    gw1 = dz.T @ xs
    gb1 = dz.sum(axis=0)
    gw2 = h.T @ coeff
    gb2 = np.asarray(coeff.sum())
    input_grads = dz @ p.w1
    return (gw1, gb1, gw2, gb2), input_grads


def clip_weights(p: CriticParams, c: float) -> CriticParams:
    """Clamp every parameter entry to [-c, c]."""
    if c <= 0:
        raise ConfigurationError("clip constant must be > 0")
    return CriticParams(*(np.clip(t, -c, c) for t in p.tensors()))


# --- Adam, shared by critic and generator parameters ----------------------

@dataclass
class AdamState:
    m: tuple[np.ndarray, ...]
    v: tuple[np.ndarray, ...]
    step_count: int = 0


def adam_init(tensors) -> AdamState:
    return AdamState(
        m=tuple(np.zeros_like(t) for t in tensors),
        v=tuple(np.zeros_like(t) for t in tensors),
    )


def adam_step(tensors, grads, state: AdamState, lr: float):
    """One bias-corrected Adam update over a tuple of tensors.

    Returns (updated tensors, updated state); inputs are left untouched.
    """
    if len(tensors) != len(grads) or len(tensors) != len(state.m):
        raise ConfigurationError("parameter/gradient/state length mismatch")
    for t, g in zip(tensors, grads):
        if np.shape(t) != np.shape(g):
            raise ConfigurationError(
                f"gradient shape {np.shape(g)} != parameter shape {np.shape(t)}"
            )
    step = state.step_count + 1
    bc1 = 1.0 - ADAM_BETA1**step
    bc2 = 1.0 - ADAM_BETA2**step
    new_m = tuple(ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
                  for m, g in zip(state.m, grads))
    new_v = tuple(ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * g**2
                  for v, g in zip(state.v, grads))
    updated = tuple(t - lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
                    for t, m, v in zip(tensors, new_m, new_v))
    return updated, AdamState(new_m, new_v, step)
