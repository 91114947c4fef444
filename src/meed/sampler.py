"""Gumbel top-k subset sampling (training) and hard top-k selection (inference).

The relaxed mask runs k Gumbel-perturbed softmax races over log-scores and
takes the coordinate-wise max, giving an approximately k-hot vector that is
differentiable with respect to the scores.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from . import autodiff as ad
from .core import ConfigError, RelaxedMask, SelectionSet

U_EPS = 1e-12  # uniform draws clamped to (U_EPS, 1 - U_EPS) before the double log
Z_EPS = 1e-20  # scores clamped below this before log


@dataclass(frozen=True)
class GumbelNoise:
    xi: np.ndarray  # (d, k)


def gumbel_from_uniform(u: np.ndarray) -> np.ndarray:
    u = np.clip(np.asarray(u, dtype=np.float64), U_EPS, 1.0 - U_EPS)
    return -np.log(-np.log(u))


def sample_gumbel_noise(d: int, k: int, rng: np.random.Generator) -> GumbelNoise:
    if d < 1 or k < 1:
        raise ConfigError("d and k must be >= 1")
    return GumbelNoise(xi=gumbel_from_uniform(rng.random((d, k))))


def sample_gumbel_batch(n: int, d: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Fresh per-sample noise, shape (n, d, k)."""
    return gumbel_from_uniform(rng.random((n, d, k)))


def relaxed_topk_var(z: ad.Var, xi: np.ndarray, tau: float) -> ad.Var:
    """Differentiable mask for a batch: z (n, d), xi (n, d, k) -> v (n, d)."""
    if tau <= 0:
        raise ConfigError("tau must be positive")
    logz = ad.log(ad.clamp_min(z, Z_EPS))
    perturbed = ad.mul(ad.add(ad.expand_dims(logz, 2), xi), 1.0 / tau)
    races = ad.softmax(perturbed, axis=1)
    return ad.max_along(races, axis=2)


def relaxed_topk(z: np.ndarray, k: int, tau: float,
                 noise: Union[GumbelNoise, np.ndarray]) -> RelaxedMask:
    """Single-vector form of the relaxed sampler."""
    z = np.asarray(z, dtype=np.float64)
    d = z.shape[0]
    if not 1 <= k <= d:
        raise ConfigError(f"need 1 <= k <= d, got k={k}, d={d}")
    if tau <= 0:
        raise ConfigError("tau must be positive")
    xi = noise.xi if isinstance(noise, GumbelNoise) else np.asarray(noise, dtype=np.float64)
    if xi.shape != (d, k):
        raise ConfigError(f"noise must be ({d}, {k}), got {xi.shape}")
    v = relaxed_topk_var(ad.Var(z[None, :]), xi[None, :, :], tau)
    return RelaxedMask(v=v.value[0], k=k, tau=tau)


def hard_topk(z: np.ndarray, k: int) -> SelectionSet:
    """Indices of the k largest scores; ties go to the lower index."""
    z = np.asarray(z, dtype=np.float64)
    d = z.shape[0]
    if not 1 <= k <= d:
        raise ConfigError(f"need 1 <= k <= d, got k={k}, d={d}")
    order = np.argsort(-z, kind="stable")[:k]
    return SelectionSet(indices=tuple(sorted(int(i) for i in order)), d=d)


def hard_topk_batch(z: np.ndarray, k: int) -> np.ndarray:
    """Binary masks (n, d) for a batch of score vectors."""
    z = np.asarray(z, dtype=np.float64)
    order = np.argsort(-z, axis=1, kind="stable")[:, :k]
    masks = np.zeros_like(z)
    np.put_along_axis(masks, order, 1.0, axis=1)
    return masks
