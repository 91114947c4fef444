"""Gradient baselines and the ablation variants."""

from __future__ import annotations

import dataclasses
import logging
from typing import Optional

import numpy as np

from .core import TrainConfig
from .explainer import PriorScores

log = logging.getLogger(__name__)

FD_STEP = 1e-4

ABLATION_VARIANTS = ("full", "w/o-Output", "w/o-AIL", "w/o-Prior")


def _model_gradient(model, x: np.ndarray, class_index: int) -> np.ndarray:
    """Exact gradient when the model exposes one, central differences otherwise."""
    if hasattr(model, "gradient"):
        return model.gradient(x, class_index)
    def out(vec):
        return np.asarray(model.evaluate(vec)).reshape(-1)[class_index]

    g = np.zeros_like(x)
    for j in range(x.size):
        hi, lo = x.copy(), x.copy()
        hi[j] += FD_STEP
        lo[j] -= FD_STEP
        g[j] = (out(hi) - out(lo)) / (2 * FD_STEP)
    return g


def _normalize(raw: np.ndarray, method: str) -> PriorScores:
    total = raw.sum()
    if total <= 0.0:
        log.warning("%s produced all-zero scores; falling back to uniform", method)
        return PriorScores(r=np.full(raw.size, 1.0 / raw.size), source_method=method)
    return PriorScores(r=raw / total, source_method=method)


def grad_scores(model, x: np.ndarray, class_index: Optional[int] = None) -> PriorScores:
    """Absolute gradient of the selected class output, sum-normalized."""
    x = np.asarray(x, dtype=np.float64)
    if class_index is None:
        class_index = int(np.argmax(model.evaluate(x)))
    return _normalize(np.abs(_model_gradient(model, x, class_index)), "grad")


def gradient_times_input_scores(model, x: np.ndarray,
                                class_index: Optional[int] = None) -> PriorScores:
    """|x_j * gradient_j| scores; also serves as the warm-start prior method."""
    x = np.asarray(x, dtype=np.float64)
    if class_index is None:
        class_index = int(np.argmax(model.evaluate(x)))
    if not np.any(x):
        log.warning("gradient-times-input on a zero input; falling back to uniform")
        return PriorScores(r=np.full(x.size, 1.0 / x.size), source_method="gradient-times-input")
    return _normalize(np.abs(x * _model_gradient(model, x, class_index)),
                      "gradient-times-input")


def ablation_config(variant: str, base: TrainConfig) -> TrainConfig:
    """Config for one row of the ablation table; seeds stay identical."""
    if variant == "full":
        return dataclasses.replace(base)
    if variant == "w/o-Output":
        return dataclasses.replace(base, use_output_feedback=False)
    if variant == "w/o-AIL":
        return dataclasses.replace(base, lambda_u=0.0)
    if variant == "w/o-Prior":
        return dataclasses.replace(base, prior_method="none", lambda_e=0.0)
    raise ValueError(f"unknown ablation variant: {variant}")

