"""Twin approximators over selected/unselected features and their losses."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from . import autodiff as ad
from .core import Mlp

CE_EPS = 1e-12  # predictions clamped before the log
SIMPLEX_SPREAD = 1e-12  # row sums closer than this put two-class rows on one line
# Two-class SW's rising and falling blocks: sort keys p_0 and -p_0, ranks r and ~r
# into the rising target order, and directions with theta_0 > theta_1 and the rest
_KEYS, _FLIP = np.array([[1.0], [-1.0]]), np.array([[0], [-1]])
_RISING = np.array([[True], [False]])


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


def _on_a_line(rows: np.ndarray) -> bool:
    """True when the sums of the rows (n, 2) spread by at most SIMPLEX_SPREAD (NaN does not)."""
    sums = rows[:, 0] + rows[:, 1]
    return bool(sums.max() - sums.min() <= SIMPLEX_SPREAD)


def _per_projection_sw(target: np.ndarray, pred_u: np.ndarray, thetas: np.ndarray) -> tuple:
    """(SW, vjp): SW between target and pred_u (n, c) with one sort per
    projection, and vjp(s) the gradient of s*SW at pred_u, which sends each
    sorted difference back through the inverse of its projection's sort, then
    through the projection.

    Each projection is one contiguous row of a (P, n) array, so every sort
    runs along the last axis. Tied (or NaN) entries of A_u's projection take
    their stable order; without ties any correct order is that one, and the
    faster default sort gives it."""
    rows_a = np.sort(thetas.T @ target.T, axis=1)
    rows_b = thetas.T @ pred_u.T
    starts = np.arange(len(rows_b))[:, None] * rows_b.shape[1]
    flat_order = (np.argsort(rows_b, axis=1) + starts).ravel()
    sorted_b = rows_b.ravel()[flat_order].reshape(rows_b.shape)
    if not _rising_rows(sorted_b):
        flat_order = (np.argsort(rows_b, axis=1, kind="stable") + starts).ravel()
        sorted_b = rows_b.ravel()[flat_order].reshape(rows_b.shape)
    diff_rows = sorted_b - rows_a
    # (n, P) in C order, so that the mean sums in the order of one column per projection
    diff = np.ascontiguousarray(diff_rows.T)

    def vjp(scale):
        half = scale / diff.size * diff_rows
        g_rows = np.empty(diff.size)  # flat_order is a permutation: each entry is written once
        g_rows[flat_order] = (half + half).ravel()
        return np.ascontiguousarray(g_rows.reshape(rows_b.shape).T) @ thetas.T

    return (diff * diff).mean(), vjp


def _two_class_sw(target: np.ndarray, pred_u: np.ndarray, thetas: np.ndarray) -> tuple:
    """(SW, vjp) as `_per_projection_sw`, in closed form for two-class rows on
    lines p_0 + p_1 = s. There theta . p = theta_1*s + (theta_0 - theta_1)*p_0,
    so a projection orders each side by p_0, rising if theta_0 > theta_1 and
    falling if not. With e_i A_u's i-th row minus the target row of its rank,
    SW = sum_i e_i^T (Theta Theta^T) e_i / (nP), whose gradient at that row is
    2/(nP) * Theta Theta^T e_i. Tied rows of A_u keep their stable order both
    ways, as each projection's sort does, so each block of directions has its
    own ranks and its own sum of theta theta^T."""
    n, n_proj = pred_u.shape[0], thetas.shape[1]
    ranks = np.argsort(np.argsort(pred_u[:, 0] * _KEYS, axis=1, kind="stable"), axis=1)
    ranked = target[np.argsort(target[:, 0], kind="stable")]
    diffs = pred_u - ranked[ranks ^ _FLIP]  # (2, n, 2); ~r = -1 - r counts from the top
    moved = diffs @ ((thetas * (_RISING == (thetas[0] > thetas[1]))[:, None]) @ thetas.T)

    def vjp(scale):
        half = scale / (n * n_proj) * (moved[0] + moved[1])
        return half + half

    return (diffs * moved).sum() / (n * n_proj), vjp


def sliced_wasserstein_var(target: np.ndarray, pred: ad.Var, thetas: np.ndarray,
                           weights: Sequence[float]) -> tuple:
    """(node, (L_s, SW)) over the pair's stack pred (2, n, c): L_s is A_s's
    batch-mean cross-entropy against target (n, c), SW the mean over the
    projections thetas (c, P) of the squared 1-D 2-Wasserstein distance
    between target and A_u's output, and the node, one tape node, is
    w_0*L_s + w_1*SW. Two classes with each side's row sums within
    SIMPLEX_SPREAD (softmax outputs) take the closed form, one sort per side,
    equal to the per-projection result up to rounding; all else sorts once
    per projection."""
    w_s, w_u = weights
    target = np.asarray(target, dtype=np.float64)
    l_s, clip = _cross_entropy(target, pred.value[0])
    two_class = len(thetas) == 2 and _on_a_line(target) and _on_a_line(pred.value[1])
    sw, sw_vjp = (_two_class_sw if two_class else _per_projection_sw)(
        target, pred.value[1], thetas)

    def vjp(g):
        return (np.stack([cross_entropy_grad(target, pred.value[0], w_s * g, clip),
                          sw_vjp(w_u * g)]),)

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
