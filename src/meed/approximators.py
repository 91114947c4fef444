"""Twin approximators over selected/unselected features and their losses."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .core import Mlp, classifier_layers

CE_EPS = 1e-12  # predictions clamped before the log


@dataclass
class ApproximatorPair:
    a_selected: Mlp
    a_unselected: Mlp


def make_pair(d: int, c: int, hidden: Sequence[int],
              rng: np.random.Generator) -> ApproximatorPair:
    """Two fresh nets of the same shape (never shared parameters)."""
    layers = classifier_layers(hidden, c)
    return ApproximatorPair(a_selected=Mlp(d, layers, rng=rng),
                            a_unselected=Mlp(d, layers, rng=rng))


def cross_entropy_var(target: np.ndarray, pred: ad.Var) -> ad.Var:
    """Batch-mean cross-entropy: target (n, c) constant, pred (n, c) Var."""
    logp = ad.log(ad.clamp_min(pred, CE_EPS))
    per_sample = ad.sum_along(ad.mul(logp, -np.asarray(target, dtype=np.float64)), axis=1)
    return ad.mean_all(per_sample)


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


def sliced_wasserstein_var(batch_a: np.ndarray, batch_b: ad.Var,
                           thetas: np.ndarray) -> ad.Var:
    """Mean over projections of the squared 1-D 2-Wasserstein distance."""
    proj_a = np.sort(np.asarray(batch_a, dtype=np.float64) @ thetas, axis=0)
    proj_b = ad.sort_axis0(ad.matmul(batch_b, thetas))
    diff = ad.sub(proj_b, proj_a)
    return ad.mean_all(ad.mul(diff, diff))
