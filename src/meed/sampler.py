"""Gumbel top-k subset sampling (training) and hard top-k selection (inference).

The relaxed mask is the coordinate-wise max of k Gumbel-perturbed softmax races
over log-scores: an approximately k-hot vector, differentiable in the scores.
Only the races are kept; the closed-form VJP makes no other (n, d, k) array.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .core import ConfigError, SelectionSet

U_EPS = 1e-12  # uniform draws clamped to (U_EPS, 1 - U_EPS) before the double log
Z_EPS = 1e-20  # scores clamped below this before log


def _gumbel_in_place(u: np.ndarray) -> np.ndarray:
    np.clip(u, U_EPS, 1.0 - U_EPS, out=u)
    for op in (np.log, np.negative, np.log, np.negative):
        op(u, out=u)
    return u


def gumbel_from_uniform(u: np.ndarray) -> np.ndarray:
    """-log(-log(u)) on one clipped copy of u; the argument is not mutated."""
    return _gumbel_in_place(np.array(u, dtype=np.float64))


def sample_gumbel_batch(n: int, d: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Fresh per-sample noise, shape (n, d, k), transformed in the draw's own array."""
    return _gumbel_in_place(rng.random((n, d, k)))


def relaxed_topk_var(z, xi: np.ndarray, tau: float) -> ad.Var:
    """Differentiable mask for a batch: z (n, d), xi (n, d, k) -> v (n, d).

    One tape node; v is the max over k of the softmax races s_j (n, d), and
    only the races are kept. With c_j the sum of g*v over the entries race j
    wins, the VJP is (g*v - sum_j c_j s_j) / (tau*z) where z > Z_EPS, else 0.
    """
    if tau <= 0:
        raise ConfigError("tau must be positive")
    z = ad.as_var(z)
    inv_tau = 1.0 / tau
    z_floor = np.maximum(z.value, Z_EPS)
    races = np.expand_dims(np.log(z_floor), 2) + xi
    races *= inv_tau
    races -= races.max(axis=1, keepdims=True)
    np.exp(races, out=races)
    races /= races.sum(axis=1, keepdims=True)
    v = races.max(axis=2)

    def vjp(g):
        n, _, k = races.shape
        gv = g * v
        win = np.argmax(races, axis=2) + k * np.arange(n)[:, None]
        c = np.bincount(win.ravel(), gv.ravel(), n * k).reshape(n, k, 1)
        return ((gv - np.matmul(races, c)[:, :, 0]) * inv_tau / z_floor * (z.value > Z_EPS),)

    return ad.Var(v, (z,), vjp)


def _check_k(k: int, d: int) -> None:
    if not 1 <= k <= d:
        raise ConfigError(f"need 1 <= k <= d, got k={k}, d={d}")


def hard_topk(z: np.ndarray, k: int) -> SelectionSet:
    """Indices of the k largest scores; ties go to the lower index."""
    z = np.asarray(z, dtype=np.float64)
    d = z.shape[0]
    _check_k(k, d)
    order = np.argsort(-z, kind="stable")[:k]
    return SelectionSet(indices=tuple(sorted(int(i) for i in order)), d=d)


def hard_topk_batch(z: np.ndarray, k: int) -> np.ndarray:
    """Binary k-hot masks (n, d) for a batch of score vectors."""
    z = np.asarray(z, dtype=np.float64)
    _check_k(k, z.shape[1])
    order = np.argsort(-z, axis=1, kind="stable")[:, :k]
    masks = np.zeros_like(z)
    np.put_along_axis(masks, order, 1.0, axis=1)
    return masks
