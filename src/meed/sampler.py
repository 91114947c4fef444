"""Gumbel top-k subset sampling (training) and hard top-k selection (inference).

The relaxed mask is the coordinate-wise max of k Gumbel-perturbed softmax races
over log-scores: an approximately k-hot vector, differentiable in the scores.
The races are laid out (k, n, d), so each softmax runs over a contiguous axis;
only they are kept, and the closed-form VJP makes no other float (k, n, d) array.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .core import ConfigError, SelectionSet

U_EPS = 1e-12  # uniform draws clamped to (U_EPS, 1 - U_EPS) before the double log
Z_EPS = 1e-20  # scores clamped below this before log


def sample_gumbel_batch(n: int, d: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Fresh noise for k races per sample, shape (k, n, d): -log(-log(u)) of
    clipped uniform draws, transformed in the draw's own array."""
    u = rng.random((k, n, d))
    np.clip(u, U_EPS, 1.0 - U_EPS, out=u)
    for op in (np.log, np.negative, np.log, np.negative):
        op(u, out=u)
    return u


def relaxed_topk_var(z, xi: np.ndarray, tau: float) -> ad.Var:
    """Differentiable mask for a batch: z (n, d), xi (k, n, d) -> v (n, d).

    One tape node; v is the max over k of the softmax races s_j (n, d), and
    only the races are kept. With c_j the sum of g*v over the entries race j
    wins, the VJP is (g*v - sum_j c_j s_j) / (tau*z) where z > Z_EPS, else 0.
    An entry that several races win exactly (all of them, under zero noise)
    counts for the first of them only.
    """
    if tau <= 0:
        raise ConfigError("tau must be positive")
    z = ad.as_var(z)
    inv_tau = 1.0 / tau
    z_floor = np.maximum(z.value, Z_EPS)
    races = np.log(z_floor) + xi
    races *= inv_tau
    races -= races.max(axis=-1, keepdims=True)
    np.exp(races, out=races)
    races /= races.sum(axis=-1, keepdims=True)
    v = races.max(axis=0)

    def vjp(g):
        gv = g * v
        win = races == v
        if np.count_nonzero(win) > v.size:  # exact ties: keep each entry's first winner
            win &= np.cumsum(win, axis=0) == 1
        c = np.einsum("knd,nd->kn", win, gv)
        return ((gv - np.einsum("kn,knd->nd", c, races)) * inv_tau / z_floor
                * (z.value > Z_EPS),)

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
    """Binary k-hot masks (n, d) for a batch of score vectors; ties go to the lower index."""
    z = np.asarray(z, dtype=np.float64)
    _check_k(k, z.shape[1])
    z = np.where(np.isnan(z), -np.inf, z)  # a NaN score ranks last, as in `hard_topk`
    kth = np.partition(z, -k, axis=1)[:, -k, None]
    above, tied = z > kth, z == kth
    tied &= np.cumsum(tied, axis=1) <= k - above.sum(axis=1, keepdims=True)
    return (above | tied).astype(np.float64)
