"""Gumbel top-k subset sampling (training) and hard top-k selection (inference).

The relaxed mask runs k Gumbel-perturbed softmax races over log-scores and
takes the coordinate-wise max, giving an approximately k-hot vector that is
differentiable with respect to the scores.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .core import ConfigError, SelectionSet

U_EPS = 1e-12  # uniform draws clamped to (U_EPS, 1 - U_EPS) before the double log
Z_EPS = 1e-20  # scores clamped below this before log


def gumbel_from_uniform(u: np.ndarray) -> np.ndarray:
    u = np.clip(np.asarray(u, dtype=np.float64), U_EPS, 1.0 - U_EPS)
    return -np.log(-np.log(u))


def sample_gumbel_batch(n: int, d: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Fresh per-sample noise, shape (n, d, k)."""
    return gumbel_from_uniform(rng.random((n, d, k)))


def relaxed_topk_var(z, xi: np.ndarray, tau: float) -> ad.Var:
    """Differentiable mask for a batch: z (n, d), xi (n, d, k) -> v (n, d).

    One tape node. The forward keeps the softmax races s (n, d, k) and the
    winning race of each entry; the VJP scatters g to the winner, applies the
    softmax VJP over d, sums over k and scales by 1/(tau*z) where z > Z_EPS.
    """
    if tau <= 0:
        raise ConfigError("tau must be positive")
    z = ad.as_var(z)
    inv_tau = 1.0 / tau
    above = z.value > Z_EPS
    z_floor = np.maximum(z.value, Z_EPS)
    races = np.expand_dims(np.log(z_floor), 2) + xi
    races *= inv_tau
    races -= races.max(axis=1, keepdims=True)
    np.exp(races, out=races)
    races /= races.sum(axis=1, keepdims=True)
    win = np.expand_dims(np.argmax(races, axis=2), 2)

    def vjp(g):
        g_races = np.zeros_like(races)
        np.put_along_axis(g_races, win, np.expand_dims(g, 2), axis=2)
        g_races -= (g_races * races).sum(axis=1, keepdims=True)
        g_races *= races
        g_races *= inv_tau
        return (g_races.sum(axis=2) / z_floor * above,)

    return ad.Var(np.take_along_axis(races, win, axis=2).squeeze(2), (z,), vjp)


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
