"""Twin approximators over selected/unselected features and their losses."""

from __future__ import annotations

from typing import Sequence

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


def cross_entropy_grad(target: np.ndarray, pred: np.ndarray, g=1.0) -> np.ndarray:
    """g times the batch-mean cross-entropy's gradient at pred (..., n, c)."""
    neg_target = -np.asarray(target, dtype=np.float64)
    return g / pred.shape[-2] * neg_target / np.maximum(pred, CE_EPS) * (pred > CE_EPS)


def cross_entropy_var(target: np.ndarray, pred) -> ad.Var:
    """Batch-mean cross-entropy: target (n, c) constant, pred (n, c) Var.
    One tape node; its VJP is `cross_entropy_grad`."""
    pred = ad.as_var(pred)
    loss = np.log(np.maximum(pred.value, CE_EPS)) * -np.asarray(target, dtype=np.float64)
    return ad.Var(loss.sum(axis=1).mean(), (pred,),
                  lambda g: (cross_entropy_grad(target, pred.value, g),))


def relativistic_flip(y: np.ndarray) -> np.ndarray:
    """Target flip for the explainer's unselected-feature loss.

    Binary outputs give the literal 1 - y; with more classes the flipped
    vector is renormalized by (c - 1) so it stays a distribution.
    """
    y = np.asarray(y, dtype=np.float64)
    c = y.shape[-1]
    if c == 2:
        return 1.0 - y
    return (1.0 - y) / (c - 1)


def sw_directions(c: int, n_proj: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform random unit directions on the sphere of R^c, shape (c, n_proj)."""
    theta = rng.normal(size=(c, n_proj))
    return theta / np.linalg.norm(theta, axis=0, keepdims=True)


def sliced_wasserstein_var(batch_a: np.ndarray, batch_b,
                           thetas: np.ndarray) -> ad.Var:
    """Mean over projections of the squared 1-D 2-Wasserstein distance.
    One tape node; its VJP sends each sorted difference back through the
    inverse of its projection's sort, then through the projection."""
    batch_b = ad.as_var(batch_b)
    proj_a = np.sort(np.asarray(batch_a, dtype=np.float64) @ thetas, axis=0)
    proj_b = batch_b.value @ thetas
    order = np.argsort(proj_b, axis=0, kind="stable")
    diff = np.take_along_axis(proj_b, order, axis=0) - proj_a

    def vjp(g):
        half = g / diff.size * diff
        g_proj = np.zeros_like(proj_b)
        np.put_along_axis(g_proj, order, half + half, axis=0)
        return (g_proj @ thetas.T,)

    return ad.Var((diff * diff).mean(), (batch_b,), vjp)
