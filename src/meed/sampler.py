"""Gumbel top-k subset sampling (training) and hard top-k selection (inference).

The relaxed mask is the coordinate-wise max of k Gumbel-perturbed softmax races
over log-scores: an approximately k-hot vector, differentiable in the scores.
The races are laid out (k, n, d), so each softmax runs over a contiguous axis.
The noise is drawn into a caller's array and the races are built in that same
memory, which the node keeps for its closed-form VJP; neither makes another
float (k, n, d) array, so one buffer serves every minibatch of a training.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .core import ConfigError, SelectionSet, ShapeError, int_indices

U_EPS = 1e-12  # uniform draws clamped to (U_EPS, 1 - U_EPS) before the double log
Z_EPS = 1e-20  # scores clamped below this before log


def sample_gumbel_batch(noise: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Fills noise, a C-contiguous float64 (k, n, d) array for k races per
    sample, with -log(-log(u)) of clipped uniform draws, in place; returns it."""
    rng.random(out=noise)
    np.clip(noise, U_EPS, 1.0 - U_EPS, out=noise)
    for op in (np.log, np.negative, np.log, np.negative):
        op(noise, out=noise)
    return noise


def relaxed_topk_var(z: ad.Var, xi: np.ndarray, tau: float) -> ad.Var:
    """Differentiable mask for a batch: z (n, d), xi (k, n, d) -> v (n, d), tau > 0.

    One tape node; v is the max over k of the softmax races s_j (n, d), and
    only the races are kept. xi is consumed: its array becomes the races that
    the node keeps for its VJP, so it no longer holds the noise. With c_j the
    sum of g*v over the entries race j wins, the VJP is
    (g*v - sum_j c_j s_j) / (tau*z) where z > Z_EPS, else 0.
    An entry that several races win exactly (all of them, under zero noise)
    counts for the first of them only.
    """
    inv_tau = 1.0 / tau
    z_floor = np.maximum(z.value, Z_EPS)
    races = xi
    races += np.log(z_floor)
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


def _checked(z, k: int, rank: int) -> tuple:
    """(z as float64, k as an int) once z has `rank` axes and 1 <= k <= d."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != rank:
        raise ShapeError(f"hard top-k expects a {rank}-D score array, got shape {z.shape}")
    if type(k) is not int:  # numpy integers as ints; no bools, floats or strings
        (k,) = int_indices((k,), ConfigError, "k")
    if not 1 <= k <= z.shape[-1]:
        raise ConfigError(f"need 1 <= k <= d, got k={k}, d={z.shape[-1]}")
    return z, k


def hard_topk(z: np.ndarray, k: int) -> SelectionSet:
    """Indices of the k largest scores of one row z (d,): those at or above the k-th
    largest when they are k, else the stable argsort's (ties to the lower index, NaN last)."""
    z, k = _checked(z, k, 1)
    idx = (z >= np.partition(z, -k)[-k]).nonzero()[0]  # np.flatnonzero without its ravel
    if len(idx) != k:  # a tie at the k-th score, or a NaN
        idx = np.sort(np.argsort(-z, kind="stable")[:k])
    return SelectionSet(idx.tolist(), len(z))


def hard_topk_batch(z: np.ndarray, k: int) -> np.ndarray:
    """Binary k-hot masks (n, d) for a batch of score rows, each row selected as
    `hard_topk` selects it; ties go to the lower index and NaN ranks last."""
    z, k = _checked(z, k, 2)
    mask = (z >= np.partition(z, -k, axis=1)[:, -k, None]).astype(np.float64)
    # A matvec counts 0/1 entries exactly, in half the time of np.count_nonzero.
    rows = np.flatnonzero(mask @ np.ones(z.shape[1]) != k)
    if rows.size:  # a tie at the k-th score, or a NaN
        mask[rows] = 0.0
        mask[rows[:, None], np.argsort(-z[rows], axis=1, kind="stable")[:, :k]] = 1.0
    return mask
