"""Gumbel top-k relaxation: formula identities and sampling behavior."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meed import autodiff as ad
from meed.core import SelectionSet, named_rng
from meed.sampler import (GumbelNoise, gumbel_from_uniform, hard_topk,
                          hard_topk_batch, relaxed_topk, relaxed_topk_var,
                          sample_gumbel_batch, sample_gumbel_noise)


def zero_noise(d, k):
    return GumbelNoise(xi=np.zeros((d, k)))


def test_zero_noise_tau_one_is_identity():
    z = np.array([0.5, 0.3, 0.2])
    mask = relaxed_topk(z, k=2, tau=1.0, noise=zero_noise(3, 2))
    assert np.allclose(mask.v, z, atol=1e-12)


def test_mask_sum_bounded_by_k(rng):
    for _ in range(200):
        d = rng.integers(3, 12)
        k = int(rng.integers(1, d))
        z = rng.random(d)
        z /= z.sum()
        noise = sample_gumbel_noise(d, k, rng)
        mask = relaxed_topk(z, k=k, tau=0.5, noise=noise)
        assert mask.v.sum() <= k + 1e-6
        assert mask.v.min() >= 0.0 and mask.v.max() <= 1.0


def test_low_temperature_is_near_binary(rng):
    # Entries sit at 0 or 1 except when two Gumbel races nearly tie, which
    # happens for a small fraction of draws at any fixed positive tau.
    z = np.array([0.4, 0.3, 0.2, 0.1])
    gaps = []
    for _ in range(500):
        noise = sample_gumbel_noise(4, 2, rng)
        mask = relaxed_topk(z, k=2, tau=0.01, noise=noise)
        gaps.append(np.minimum(mask.v, 1.0 - mask.v))
    near_binary = np.concatenate(gaps) < 0.05
    assert near_binary.mean() >= 0.95


def test_k1_selection_frequencies_match_scores():
    z = np.array([0.7, 0.2, 0.1])
    rng = named_rng(123, "gumbel")
    n = 100_000
    xi = sample_gumbel_batch(n, 3, 1, rng)
    scores = np.log(z)[None, :, None] + xi
    counts = np.bincount(np.argmax(scores[:, :, 0], axis=1), minlength=3) / n
    assert np.all(np.abs(counts - z) < 0.01)


def test_gumbel_from_uniform_formula():
    u = np.array([0.5, 0.9])
    assert np.allclose(gumbel_from_uniform(u), -np.log(-np.log(u)))
    extreme = gumbel_from_uniform(np.array([0.0, 1.0]))
    assert np.all(np.isfinite(extreme))


def test_gumbel_mean_close_to_euler_mascheroni():
    rng = named_rng(5, "gumbel")
    xi = sample_gumbel_batch(20_000, 4, 2, rng)
    assert abs(xi.mean() - 0.5772) < 0.02


def test_hard_topk_breaks_ties_toward_lower_index():
    assert hard_topk(np.array([0.4, 0.4, 0.2]), 1).indices == (0,)
    assert hard_topk(np.array([0.3, 0.3, 0.3, 0.1]), 2).indices == (0, 1)
    sel = hard_topk(np.array([0.1, 0.2, 0.7]), 2)
    assert isinstance(sel, SelectionSet)
    assert sel.indices == (1, 2)


def test_hard_topk_batch_matches_single(rng):
    z = rng.random((6, 5))
    z /= z.sum(axis=1, keepdims=True)
    masks = hard_topk_batch(z, 2)
    for i in range(6):
        assert np.allclose(masks[i], hard_topk(z[i], 2).mask())


def test_noise_is_deterministic_per_rng():
    a = sample_gumbel_noise(4, 2, named_rng(3, "gumbel")).xi
    b = sample_gumbel_noise(4, 2, named_rng(3, "gumbel")).xi
    assert np.allclose(a, b)


def test_relaxed_topk_var_matches_numpy_path(rng):
    z = rng.random((3, 5))
    z /= z.sum(axis=1, keepdims=True)
    xi = sample_gumbel_batch(3, 5, 2, rng)
    out = relaxed_topk_var(ad.Var(z), xi, tau=0.5)
    for i in range(3):
        single = relaxed_topk(z[i], k=2, tau=0.5,
                              noise=GumbelNoise(xi=xi[i]))
        assert np.allclose(out.value[i], single.v)


def test_relaxed_topk_rejects_bad_noise_shape():
    with pytest.raises(ValueError):
        relaxed_topk(np.array([0.5, 0.5]), k=1, tau=0.5, noise=zero_noise(3, 1))


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_mask_bounds_hold_for_any_seed(seed):
    rng = np.random.default_rng(seed)
    z = rng.random(6)
    z /= z.sum()
    mask = relaxed_topk(z, k=3, tau=0.5, noise=sample_gumbel_noise(6, 3, rng))
    assert mask.v.sum() <= 3 + 1e-6
    assert mask.v.min() >= 0.0
