"""Gradient prior scores (grad, gradient-times-input) and the ablation variants."""

from __future__ import annotations

import dataclasses
import logging

import numpy as np

from .core import ShapeError, TrainConfig, is_simplex

log = logging.getLogger(__name__)

FD_STEP = 1e-4

ABLATION_VARIANTS = ("full", "w/o-Output", "w/o-AIL", "w/o-Prior")


def _model_gradients(model, x: np.ndarray, class_index: np.ndarray) -> np.ndarray:
    """(n, d) gradients of output[i, class_index[i]] with respect to row i of x.

    A model exposing `gradient(x, class_index)` answers every row in one call.
    Otherwise central differences take one `evaluate` call per row, over the
    stacked (2d, d) copies x_i + FD_STEP * e_j, then x_i - FD_STEP * e_j.
    """
    n, d = x.shape
    if hasattr(model, "gradient"):
        grads = np.asarray(model.gradient(x, class_index), dtype=np.float64)
        if grads.shape != x.shape or not np.all(np.isfinite(grads)):
            raise ShapeError(f"model gradient must hold finite values of shape {x.shape}, "
                             f"got shape {grads.shape}")
        return grads
    steps = np.concatenate([np.eye(d), -np.eye(d)]) * FD_STEP
    grads = np.empty_like(x)
    for i in range(n):
        out = np.asarray(model.evaluate(x[i] + steps), dtype=np.float64)
        if out.ndim != 2 or out.shape[0] != 2 * d or not is_simplex(out):
            raise ShapeError(f"model outputs for the perturbed copies of row {i} must be "
                             f"({2 * d}, c) rows of finite values on the probability "
                             f"simplex, got shape {out.shape}")
        picked = out[:, class_index[i]]
        grads[i] = (picked[:d] - picked[d:]) / (2 * FD_STEP)
    return grads


def prior_scores(model, x: np.ndarray, class_index, method: str) -> np.ndarray:
    """(n, d) prior scores for the rows of x (n, d) and their classes (n,).

    `method` "grad" scores |gradient|, "gradient-times-input" |x * gradient|;
    each row is sum-normalized. A zero input under gradient-times-input, or a
    row whose scores are all zero, falls back to uniform with one warning.
    """
    x = np.asarray(x, dtype=np.float64)
    grads = _model_gradients(model, x, np.asarray(class_index, dtype=int))
    raw = np.abs(x * grads) if method == "gradient-times-input" else np.abs(grads)
    total = raw.sum(axis=1)
    zero_input = ~np.any(x, axis=1) & (method == "gradient-times-input")
    uniform = zero_input | (total <= 0.0)
    for i in np.flatnonzero(uniform):
        if zero_input[i]:
            log.warning("gradient-times-input on a zero input; falling back to uniform")
        else:
            log.warning("%s produced all-zero scores; falling back to uniform", method)
    scores = raw / np.where(uniform, 1.0, total)[:, None]
    scores[uniform] = 1.0 / x.shape[1]
    if not is_simplex(scores):
        raise ValueError("prior scores must lie on the probability simplex")
    return scores


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

