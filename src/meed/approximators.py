"""Twin approximators over selected/unselected features and their losses."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from . import autodiff as ad
from .core import Mlp

CE_EPS = 1e-12  # predictions clamped before the log


class ApproximatorPair:
    """A_s and A_u as one `net` (A_s first) that runs (2, n, d) stacks; `a_selected`
    and `a_unselected` are one-net views of its parameters, writing through to it."""

    def __init__(self, net: Mlp):
        self.net = net
        self.a_selected, self.a_unselected = net.view(0), net.view(1)


def make_pair(d: int, c: int, hidden: Sequence[int],
              rng: np.random.Generator) -> ApproximatorPair:
    """Two fresh nets of the same shape, drawn A_s first (never shared parameters)."""
    return ApproximatorPair(Mlp(d, (*hidden, c), rng=rng, nets=2))


def cross_entropy_grad(target: np.ndarray, pred: np.ndarray, g=1.0, clip=None) -> np.ndarray:
    """g times the batch-mean cross-entropy's gradient at pred (..., n, c); g may
    hold one factor per net of a stack, and `clip` is max(pred, CE_EPS) if known."""
    clip = np.maximum(pred, CE_EPS) if clip is None else clip
    return g / pred.shape[-2] * -np.asarray(target, dtype=np.float64) / clip * (pred > CE_EPS)


def _cross_entropy(target: np.ndarray, pred: np.ndarray) -> tuple:
    """(ce, clip): the batch-mean cross-entropy of each net of a stack pred
    (..., n, c) against target (broadcast to pred), and max(pred, CE_EPS)."""
    clip = np.maximum(pred, CE_EPS)
    # Two sums and a divide by n: the bits of `.sum(axis=-1).mean()` per net.
    ce = (np.log(clip) * -np.asarray(target, dtype=np.float64)).sum(axis=-1).sum(axis=-1)
    return ce / pred.shape[-2], clip


def cross_entropy_var(target: np.ndarray, pred: ad.Var, weights=1.0) -> tuple:
    """(node, ce): ce holds the batch-mean cross-entropy CE_i of each net of a
    stack pred (..., n, c) against target (constant, broadcast to pred), and
    the node, one tape node, is sum_i weights_i * CE_i. For pred (n, c) ce is
    one value."""
    w = np.asarray(weights, dtype=np.float64)
    ce, clip = _cross_entropy(target, pred.value)
    return ad.Var((w * ce).sum(), (pred,), lambda g: (
        cross_entropy_grad(target, pred.value, w[..., None, None] * g, clip),)), ce


def relativistic_flip(y: np.ndarray) -> np.ndarray:
    """Target flip for the explainer's unselected-feature loss: (1 - y) / (c - 1),
    which stays a distribution and is the literal 1 - y for binary outputs."""
    y = np.asarray(y, dtype=np.float64)
    return (1.0 - y) / (y.shape[-1] - 1)


def sw_directions(c: int, n_proj: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform random unit directions on the sphere of R^c, shape (c, n_proj)."""
    theta = rng.normal(size=(c, n_proj))
    return theta / np.linalg.norm(theta, axis=0, keepdims=True)


def _rising_rows(rows: np.ndarray) -> bool:
    """True when every row of the 2-D `rows` is strictly increasing (NaN is not)."""
    flat = rows.ravel()
    rising = flat[1:] > flat[:-1]
    rising[rows.shape[1] - 1::rows.shape[1]] = True  # last of one row, first of the next
    return bool(rising.all())


def sliced_wasserstein_var(target: np.ndarray, pred: ad.Var, thetas: np.ndarray,
                           weights: Sequence[float]) -> tuple:
    """(node, (L_s, SW)) over the pair's stack pred (2, n, c): L_s is A_s's
    batch-mean cross-entropy against target (n, c), SW the mean over
    projections of the squared 1-D 2-Wasserstein distance between target and
    A_u's output, and the node, one tape node, is w_0*L_s + w_1*SW. Its VJP
    sends each sorted difference back through the inverse of its projection's
    sort, then through the projection.

    Each projection is one contiguous row of a (P, n) array, so every sort
    runs along the last axis. Tied (or NaN) entries of A_u's projection take
    their stable order; without ties any correct order is that one, and the
    faster default sort gives it."""
    w_s, w_u = weights
    l_s, clip = _cross_entropy(target, pred.value[0])
    rows_a = np.sort(thetas.T @ np.asarray(target, dtype=np.float64).T, axis=1)
    rows_b = thetas.T @ pred.value[1].T
    starts = np.arange(len(rows_b))[:, None] * rows_b.shape[1]
    flat_order = (np.argsort(rows_b, axis=1) + starts).ravel()
    sorted_b = rows_b.ravel()[flat_order].reshape(rows_b.shape)
    if not _rising_rows(sorted_b):
        flat_order = (np.argsort(rows_b, axis=1, kind="stable") + starts).ravel()
        sorted_b = rows_b.ravel()[flat_order].reshape(rows_b.shape)
    diff_rows = sorted_b - rows_a
    # (n, P) in C order, so that the mean sums in the order of one column per projection
    diff = np.ascontiguousarray(diff_rows.T)
    sw = (diff * diff).mean()

    def vjp(g):
        half = w_u * g / diff.size * diff_rows
        g_rows = np.empty(diff.size)  # flat_order is a permutation: each entry is written once
        g_rows[flat_order] = (half + half).ravel()
        return (np.stack([cross_entropy_grad(target, pred.value[0], w_s * g, clip),
                          np.ascontiguousarray(g_rows.reshape(rows_b.shape).T) @ thetas.T]),)

    return ad.Var(w_s * l_s + w_u * sw, (pred,), vjp), (l_s, sw)


def pair_loss_var(y: np.ndarray, preds: ad.Var, loss_u: str, lambda_u: float,
                  thetas: Optional[np.ndarray] = None, explainer: bool = False) -> tuple:
    """(node, L_s, L_u): the pair's loss L_s + lambda_u*L_u as one tape node over
    A_s's and A_u's outputs preds (2, n, c) for the model outputs y (n, c), and
    its two terms as floats. The approximators minimize it. The explainer
    (`explainer=True`) opposes A_u: with the cross-entropy adversary it still
    minimizes, against the relativistic flip of y (the relativistic variant);
    with sliced Wasserstein it maximizes SW, so the node is L_s - lambda_u*SW."""
    if loss_u == "cross-entropy":
        target = np.stack([y, relativistic_flip(y)]) if explainer else y
        node, (l_s, l_u) = cross_entropy_var(target, preds, (1.0, lambda_u))
    else:
        node, (l_s, l_u) = sliced_wasserstein_var(
            y, preds, thetas, (1.0, -lambda_u if explainer else lambda_u))
    return node, float(l_s), float(l_u)
