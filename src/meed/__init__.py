"""Instance-wise feature selection for black-box models via adversarial
infidelity learning, with a prior warm start and a fidelity evaluation harness."""

from .core import (BlackBoxModel, ConfigError, Mlp, RelaxedMask, SelectionSet,
                   ShapeError, TrainConfig)
from .sampler import GumbelNoise, hard_topk, relaxed_topk, sample_gumbel_noise
from .explainer import ExplainerNet, PriorScores, fuse_prior, prior_constraint_loss
from .approximators import (ApproximatorPair, cross_entropy, impute_selected,
                            impute_unselected, relativistic_flip,
                            sliced_wasserstein)
from .trainer import Checkpoint, load_checkpoint, save_checkpoint, train
from .metrics import MetricsReport, brute_force_best_subset, mi_estimate

__all__ = [
    "ApproximatorPair", "BlackBoxModel", "Checkpoint", "ConfigError",
    "ExplainerNet", "GumbelNoise", "MetricsReport", "Mlp", "PriorScores",
    "RelaxedMask", "SelectionSet", "ShapeError", "TrainConfig",
    "brute_force_best_subset", "cross_entropy", "fuse_prior", "hard_topk",
    "impute_selected", "impute_unselected", "load_checkpoint", "mi_estimate",
    "prior_constraint_loss", "relativistic_flip",
    "relaxed_topk", "sample_gumbel_noise", "save_checkpoint",
    "sliced_wasserstein", "train",
]
