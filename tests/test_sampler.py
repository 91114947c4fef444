"""Gumbel top-k relaxation: formula identities and sampling behavior."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meed import autodiff as ad
from meed.core import ConfigError, SelectionSet, named_rng
from meed.sampler import (U_EPS, Z_EPS, gumbel_from_uniform, hard_topk, hard_topk_batch,
                          relaxed_topk_var, sample_gumbel_batch)
from tests.conftest import relative_error


def relaxed(z, xi, tau):
    """Masks (n, d) for score rows z (n, d) and noise xi (n, d, k)."""
    return relaxed_topk_var(ad.Var(z), xi, tau).value


def test_zero_noise_tau_one_is_identity():
    z = np.array([[0.5, 0.3, 0.2]])
    assert np.allclose(relaxed(z, np.zeros((1, 3, 2)), tau=1.0), z, atol=1e-12)


def test_mask_sum_bounded_by_k(rng):
    for _ in range(200):
        d = rng.integers(3, 12)
        k = int(rng.integers(1, d))
        z = rng.random((1, d))
        z /= z.sum()
        v = relaxed(z, sample_gumbel_batch(1, d, k, rng), tau=0.5)
        assert v.sum() <= k + 1e-6
        assert v.min() >= 0.0 and v.max() <= 1.0


def test_low_temperature_is_near_binary(rng):
    # Entries sit at 0 or 1 except when two Gumbel races nearly tie, which
    # happens for a small fraction of draws at any fixed positive tau.
    z = np.tile([0.4, 0.3, 0.2, 0.1], (500, 1))
    v = relaxed(z, sample_gumbel_batch(500, 4, 2, rng), tau=0.01)
    near_binary = np.minimum(v, 1.0 - v) < 0.05
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
        assert np.flatnonzero(masks[i]).tolist() == list(hard_topk(z[i], 2).indices)


@pytest.mark.parametrize("k", [-1, 0, 4, 5])
def test_hard_topk_batch_rejects_k_outside_1_to_d(k):
    with pytest.raises(ConfigError, match="1 <= k <= d"):
        hard_topk_batch(np.full((2, 3), 1 / 3), k)


def test_noise_is_deterministic_per_rng():
    a = sample_gumbel_batch(1, 4, 2, named_rng(3, "gumbel"))
    b = sample_gumbel_batch(1, 4, 2, named_rng(3, "gumbel"))
    assert np.allclose(a, b)


def test_relaxed_topk_var_matches_numpy_path(rng):
    z = rng.random((3, 5))
    z /= z.sum(axis=1, keepdims=True)
    xi = sample_gumbel_batch(3, 5, 2, rng)
    # v_j = max over the k races of softmax_j((log z + xi[:, l]) / tau)
    races = np.exp((np.log(z)[:, :, None] + xi) / 0.5)
    want = (races / races.sum(axis=1, keepdims=True)).max(axis=2)
    assert np.allclose(relaxed(z, xi, tau=0.5), want)


def explicit_relaxed_topk(z, xi, tau):
    """The explicit form kept as a reference: the mask by take_along_axis at
    the winning race, and a VJP that scatters g to the winner, applies the
    softmax VJP over d and sums over k."""
    z_floor = np.maximum(z, Z_EPS)
    races = np.expand_dims(np.log(z_floor), 2) + xi
    races *= 1.0 / tau
    races -= races.max(axis=1, keepdims=True)
    np.exp(races, out=races)
    races /= races.sum(axis=1, keepdims=True)
    win = np.expand_dims(np.argmax(races, axis=2), 2)

    def vjp(g):
        g_races = np.zeros_like(races)
        np.put_along_axis(g_races, win, np.expand_dims(g, 2), axis=2)
        g_races -= (g_races * races).sum(axis=1, keepdims=True)
        g_races *= races
        g_races *= 1.0 / tau
        return g_races.sum(axis=2) / z_floor * (z > Z_EPS)

    return np.take_along_axis(races, win, axis=2).squeeze(2), vjp


STROKES_SHAPE = (4, 784, 25)


def test_gumbel_draw_matches_the_double_log_bit_for_bit():
    want = -np.log(-np.log(np.clip(named_rng(9, "gumbel").random(STROKES_SHAPE),
                                   U_EPS, 1.0 - U_EPS)))
    assert np.array_equal(sample_gumbel_batch(*STROKES_SHAPE, named_rng(9, "gumbel")), want)


def test_gumbel_from_uniform_leaves_its_argument_unchanged(rng):
    u = rng.random(STROKES_SHAPE)
    u[0, 0, :2] = (0.0, 1.0)  # clipped in the copy, not in u
    kept = u.copy()
    gumbel_from_uniform(u)
    assert np.array_equal(u, kept)


def test_relaxed_topk_matches_the_explicit_form(rng):
    n, d, k = STROKES_SHAPE
    z = rng.random((n, d))
    z /= z.sum(axis=1, keepdims=True)
    z[0, :3] = (0.0, -1.0, Z_EPS)
    xi = sample_gumbel_batch(n, d, k, rng)
    g = rng.standard_normal((n, d))
    want_v, want_vjp = explicit_relaxed_topk(z, xi, 0.5)
    node = relaxed_topk_var(ad.Var(z), xi, 0.5)
    assert np.array_equal(node.value, want_v)
    want = want_vjp(g)
    (got,) = node._backward(g)
    assert relative_error(got, want) < 1e-12
    assert np.all(got[0, :3] == 0.0)


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_mask_bounds_hold_for_any_seed(seed):
    rng = np.random.default_rng(seed)
    z = rng.random((1, 6))
    z /= z.sum()
    v = relaxed(z, sample_gumbel_batch(1, 6, 3, rng), tau=0.5)
    assert v.sum() <= 3 + 1e-6
    assert v.min() >= 0.0
