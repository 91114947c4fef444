"""Instance-wise feature selection for black-box models via adversarial
infidelity learning, with a prior warm start and a fidelity evaluation harness."""

from .core import BlackBoxModel, ConfigError, Mlp, SelectionSet, ShapeError, TrainConfig
from .sampler import hard_topk
from .explainer import ExplainerNet
from .approximators import ApproximatorPair, relativistic_flip
from .trainer import Checkpoint, load_checkpoint, save_checkpoint, train
from .metrics import MetricsReport, brute_force_best_subset, mi_estimate

__all__ = [
    "ApproximatorPair", "BlackBoxModel", "Checkpoint", "ConfigError",
    "ExplainerNet", "MetricsReport", "Mlp", "SelectionSet", "ShapeError",
    "TrainConfig", "brute_force_best_subset", "hard_topk", "load_checkpoint",
    "mi_estimate", "relativistic_flip", "save_checkpoint", "train",
]
