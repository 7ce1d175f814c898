"""Hybrid quantum-generator / classical-critic WGAN for binary spike trains."""

from .critic import AdamState, CriticParams, adam_step, clip_weights
from .generator import GeneratorConfig, GeneratorParams
from .spikedata import SpikeMatrix, WindowSpec
from .stats import StatReport
from .training import Checkpoint, TrainConfig, train

__all__ = [
    "AdamState",
    "Checkpoint",
    "CriticParams",
    "GeneratorConfig",
    "GeneratorParams",
    "SpikeMatrix",
    "StatReport",
    "TrainConfig",
    "WindowSpec",
    "adam_step",
    "clip_weights",
    "train",
]

__version__ = "0.1.0"
