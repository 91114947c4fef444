"""Gradient prior scores (grad, gradient-times-input) and the ablation variants."""

from __future__ import annotations

import dataclasses
import logging

import numpy as np

from .core import ShapeError, TrainConfig, checked_outputs, is_simplex

log = logging.getLogger(__name__)

FD_STEP = 1e-4
# Perturbed copies per central-difference `evaluate` call, but never fewer than
# one row's 2d. On a d=20 MLP, 2048 copies ran slower than 1024, and 20k copies
# changed the last bits against one row per call (OpenBLAS, one thread).
FD_MAX_COPIES = 1024

# The TrainConfig overrides of each row of the ablation table.
ABLATION_OVERRIDES = {"full": {}, "w/o-Output": {"use_output_feedback": False},
                      "w/o-AIL": {"lambda_u": 0.0},
                      "w/o-Prior": {"prior_method": "none", "lambda_e": 0.0}}
ABLATION_VARIANTS = tuple(ABLATION_OVERRIDES)


def _model_gradients(model, x: np.ndarray, class_index: np.ndarray) -> np.ndarray:
    """(n, d) gradients of output[i, class_index[i]] with respect to row i of x.

    A model exposing `gradient(x, class_index)` answers every row in one call.
    Otherwise central differences take one `evaluate` call per block of
    max(1, FD_MAX_COPIES // 2d) rows, over each row's 2d copies stacked in
    row order: x_i + FD_STEP * e_j, then x_i - FD_STEP * e_j.
    """
    n, d = x.shape
    if hasattr(model, "gradient"):
        grads = np.asarray(model.gradient(x, class_index), dtype=np.float64)
        if grads.shape != x.shape or not np.all(np.isfinite(grads)):
            raise ShapeError(f"model gradient must hold finite values of shape {x.shape}, "
                             f"got shape {grads.shape}")
        return grads
    steps = np.concatenate([np.eye(d), -np.eye(d)]) * FD_STEP
    block = max(1, FD_MAX_COPIES // (2 * d))
    grads = np.empty_like(x)
    for lo in range(0, n, block):
        rows = x[lo:lo + block]
        out = _block_outputs(model.evaluate((rows[:, None, :] + steps).reshape(-1, d)),
                             lo, len(rows), 2 * d)
        picked = np.take_along_axis(out, class_index[lo:lo + block, None, None], axis=2)[..., 0]
        grads[lo:lo + block] = (picked[:, :d] - picked[:, d:]) / (2 * FD_STEP)
    return grads


def _block_outputs(out, lo: int, rows: int, copies: int) -> np.ndarray:
    """(rows, copies, c) outputs for the perturbed copies of rows lo, lo+1, ...;
    ShapeError names the first row whose copies are off the simplex."""
    out = np.asarray(out, dtype=np.float64)
    if out.ndim != 2 or len(out) != rows * copies:
        raise ShapeError(f"model outputs for the perturbed copies of rows {lo} to "
                         f"{lo + rows - 1} must be ({rows * copies}, c) rows, "
                         f"got shape {out.shape}")
    if not is_simplex(out):
        for i in range(rows):
            checked_outputs(out[i * copies:(i + 1) * copies], copies,
                            f"model outputs for the perturbed copies of row {lo + i}")
    return out.reshape(rows, copies, -1)


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
    if variant not in ABLATION_OVERRIDES:
        raise ValueError(f"unknown ablation variant: {variant}")
    return dataclasses.replace(base, **ABLATION_OVERRIDES[variant])

