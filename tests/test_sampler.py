"""Gumbel top-k relaxation: formula identities and sampling behavior."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meed import autodiff as ad
from meed.core import ConfigError, SelectionSet, ShapeError, named_rng
from meed.sampler import (U_EPS, Z_EPS, hard_topk, hard_topk_batch, relaxed_topk_var,
                          sample_gumbel_batch)
from tests.conftest import relative_error


def relaxed(z, xi, tau):
    """Masks (n, d) for score rows z (n, d) and noise xi (k, n, d)."""
    return relaxed_topk_var(ad.Var(z), xi, tau).value


def test_zero_noise_tau_one_is_identity():
    z = np.array([[0.5, 0.3, 0.2]])
    assert np.allclose(relaxed(z, np.zeros((2, 1, 3)), tau=1.0), z, atol=1e-12)


def test_mask_sum_bounded_by_k(rng):
    for _ in range(200):
        d = rng.integers(3, 12)
        k = int(rng.integers(1, d))
        z = rng.random((1, d))
        z /= z.sum()
        v = relaxed(z, sample_gumbel_batch(np.empty((k, 1, d)), rng), tau=0.5)
        assert v.sum() <= k + 1e-6
        assert v.min() >= 0.0 and v.max() <= 1.0


def test_low_temperature_is_near_binary(rng):
    # Entries sit at 0 or 1 except when two Gumbel races nearly tie, which
    # happens for a small fraction of draws at any fixed positive tau.
    z = np.tile([0.4, 0.3, 0.2, 0.1], (500, 1))
    v = relaxed(z, sample_gumbel_batch(np.empty((2, 500, 4)), rng), tau=0.01)
    near_binary = np.minimum(v, 1.0 - v) < 0.05
    assert near_binary.mean() >= 0.95


def test_k1_selection_frequencies_match_scores():
    z = np.array([0.7, 0.2, 0.1])
    rng = named_rng(123, "gumbel")
    n = 100_000
    xi = sample_gumbel_batch(np.empty((1, n, 3)), rng)
    scores = np.log(z) + xi[0]
    counts = np.bincount(np.argmax(scores, axis=1), minlength=3) / n
    assert np.all(np.abs(counts - z) < 0.01)


def test_gumbel_mean_close_to_euler_mascheroni():
    rng = named_rng(5, "gumbel")
    xi = sample_gumbel_batch(np.empty((2, 20_000, 4)), rng)
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


def argsort_topk_batch(z, k):
    """The stable-argsort form of the batched hard top-k."""
    order = np.argsort(-z, axis=1, kind="stable")[:, :k]
    masks = np.zeros_like(z)
    np.put_along_axis(masks, order, 1.0, axis=1)
    return masks


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.integers(1, 30), st.integers(0, 2**32 - 1),
       st.sampled_from([None, 0, 1]), st.sampled_from([1.0, 0.5]), st.booleans(),
       st.booleans(), st.data())
def test_hard_topk_batch_matches_the_argsort_form(n, d, seed, decimals, share, nans, infs,
                                                  data):
    """Scores rounded to 0 or 1 decimals force ties at the k-th largest score,
    on every row or on about half of them, so that tied and untied rows also
    share a batch; NaN scores, which the argsort ranks last, and +-inf may
    fill any place."""
    k = data.draw(st.sampled_from(sorted({1, d, data.draw(st.integers(1, d))})))
    rng = np.random.default_rng(seed)
    z = rng.random((n, d))
    if decimals is not None:
        tied = rng.random(n) < share
        z[tied] = np.round(z[tied], decimals)
    if nans:
        z[rng.random((n, d)) < 0.3] = np.nan
    if infs:
        spots = rng.random((n, d)) < 0.2
        z[spots] = rng.choice([-np.inf, np.inf], size=int(spots.sum()))
    masks = hard_topk_batch(z, k)
    assert np.array_equal(masks, argsort_topk_batch(z, k))
    assert masks.dtype == np.float64 and np.all(masks.sum(axis=1) == k)


def test_hard_topk_batch_mixes_fallback_rows_with_plain_ones():
    """Rows whose scores at or above the k-th are exactly k take the one
    compare; a tie at the k-th score, a NaN or a NaN beside -inf take the
    stable argsort, which ranks NaN below -inf."""
    z = np.array([[0.1, 0.5, 0.4, 0.0],
                  [0.3, 0.3, 0.3, 0.1],
                  [np.nan, 0.2, 0.7, 0.1],
                  [np.nan, -np.inf, -np.inf, -np.inf],
                  [np.inf, -np.inf, 0.2, np.inf]])
    expected = [[0, 1, 1, 0], [1, 1, 0, 0], [0, 1, 1, 0], [0, 1, 1, 0], [1, 0, 0, 1]]
    assert np.array_equal(hard_topk_batch(z, 2), expected)
    assert np.array_equal(hard_topk_batch(z, 2), argsort_topk_batch(z, 2))
    assert [hard_topk(row, 2).indices for row in z] == [(1, 2), (0, 1), (1, 2), (1, 2), (0, 3)]


scores = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                   st.sampled_from([0.0, 0.25, 1.0, np.nan, np.inf, -np.inf]))


@settings(max_examples=300, deadline=None)
@given(st.lists(scores, min_size=1, max_size=30), st.data())
def test_hard_topk_matches_the_argsort_form(values, data):
    """One row with ties, NaN and +-inf: the first k entries of the stable
    argsort of -z, which ranks NaN last, in index order."""
    z = np.array(values)
    k = data.draw(st.integers(1, len(z)))
    assert hard_topk(z, k).indices == tuple(sorted(np.argsort(-z, kind="stable")[:k].tolist()))


@pytest.mark.parametrize("z", [np.float64(0.5), np.full((1, 3), 1 / 3)])
def test_hard_topk_names_the_rank_it_expects(z):
    with pytest.raises(ShapeError, match="1-D"):
        hard_topk(z, 1)


@pytest.mark.parametrize("z", [np.float64(0.5), np.full(3, 1 / 3), np.full((1, 2, 3), 1 / 3)])
def test_hard_topk_batch_names_the_rank_it_expects(z):
    with pytest.raises(ShapeError, match="2-D"):
        hard_topk_batch(z, 1)


@pytest.mark.parametrize("k", [-1, 0, 4, 5])
def test_hard_topk_batch_rejects_k_outside_1_to_d(k):
    with pytest.raises(ConfigError, match="1 <= k <= d"):
        hard_topk_batch(np.full((2, 3), 1 / 3), k)


def test_noise_is_deterministic_per_rng():
    a = sample_gumbel_batch(np.empty((2, 1, 4)), named_rng(3, "gumbel"))
    b = sample_gumbel_batch(np.empty((2, 1, 4)), named_rng(3, "gumbel"))
    assert np.allclose(a, b)


def test_relaxed_topk_var_matches_numpy_path(rng):
    z = rng.random((3, 5))
    z /= z.sum(axis=1, keepdims=True)
    xi = sample_gumbel_batch(np.empty((2, 3, 5)), rng)
    # v_j = max over the k races of softmax_j((log z + xi[l]) / tau)
    races = np.exp((np.log(z) + xi) / 0.5)
    want = (races / races.sum(axis=2, keepdims=True)).max(axis=0)
    # the races as the node forms them, in its operation order
    want_races = (np.log(z) + xi) * (1.0 / 0.5)
    want_races = np.exp(want_races - want_races.max(axis=2, keepdims=True))
    want_races /= want_races.sum(axis=2, keepdims=True)
    assert np.allclose(relaxed(z, xi, tau=0.5), want)
    assert np.array_equal(xi, want_races)   # xi's array became the races


def explicit_relaxed_topk(z, xi, tau):
    """The explicit form kept as a reference: the mask by take_along_axis at
    the winning race, and a VJP that scatters g to the winner, applies the
    softmax VJP over d and sums over k."""
    z_floor = np.maximum(z, Z_EPS)
    races = np.log(z_floor) + xi
    races *= 1.0 / tau
    races -= races.max(axis=2, keepdims=True)
    np.exp(races, out=races)
    races /= races.sum(axis=2, keepdims=True)
    win = np.argmax(races, axis=0)[None]  # first winner on exact ties

    def vjp(g):
        g_races = np.zeros_like(races)
        np.put_along_axis(g_races, win, g[None], axis=0)
        g_races -= (g_races * races).sum(axis=2, keepdims=True)
        g_races *= races
        g_races *= 1.0 / tau
        return g_races.sum(axis=0) / z_floor * (z > Z_EPS)

    return np.take_along_axis(races, win, axis=0)[0], vjp


STROKES_SHAPE = (4, 784, 25)


class FixedDraws:
    """An RNG whose `random` hands out the given uniforms."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=np.float64)

    def random(self, out):
        out[...] = self.u.reshape(out.shape)
        return out


def test_gumbel_draw_matches_the_double_log_bit_for_bit():
    n, d, k = STROKES_SHAPE
    ref = named_rng(9, "gumbel")
    want = -np.log(-np.log(np.clip(ref.random((k, n, d)), U_EPS, 1.0 - U_EPS)))
    whole, prefix = named_rng(9, "gumbel"), named_rng(9, "gumbel")
    assert np.array_equal(sample_gumbel_batch(np.empty((k, n, d)), whole), want)
    # A short minibatch draws into a prefix of a larger flat buffer, in place.
    buf = np.empty(k * (n + 3) * d)
    got = sample_gumbel_batch(buf[:k * n * d].reshape(k, n, d), prefix)
    assert np.array_equal(got, want) and np.shares_memory(got, buf)
    after = ref.random()   # the stream after the draw is the same
    assert whole.random() == after and prefix.random() == after


def test_gumbel_from_uniform_formula():
    # The clip keeps the extreme draws 0 and the largest double below 1 finite.
    u = np.array([0.0, 0.5, 0.9, np.nextafter(1.0, 0.0)])
    got = sample_gumbel_batch(np.empty((2, 1, 2)), FixedDraws(u))
    assert np.array_equal(got.ravel(), -np.log(-np.log(np.clip(u, U_EPS, 1.0 - U_EPS))))
    assert np.allclose(got.ravel()[1:3], -np.log(-np.log(u[1:3])))
    assert np.all(np.isfinite(got))


def test_relaxed_topk_matches_the_explicit_form(rng):
    n, d, k = STROKES_SHAPE
    z = rng.random((n, d))
    z /= z.sum(axis=1, keepdims=True)
    z[0, :3] = (0.0, -1.0, Z_EPS)
    xi = sample_gumbel_batch(np.empty((k, n, d)), rng)
    assert xi.shape == (k, n, d)
    g = rng.standard_normal((n, d))
    want_v, want_vjp = explicit_relaxed_topk(z, xi, 0.5)
    node = relaxed_topk_var(ad.Var(z), xi, 0.5)
    assert np.array_equal(node.value, want_v)
    want = want_vjp(g)
    (got,) = node._backward(g)
    assert relative_error(got, want) < 1e-12
    assert np.all(got[0, :3] == 0.0)


def test_relaxed_topk_credits_each_exact_tie_to_one_race(rng):
    """Row 0 has zero noise, so all k races tie at every entry; in row 1 two
    races draw the same noise. Both match the first-winner explicit form."""
    n, d, k = 2, 7, 3
    z = rng.random((n, d)) + 0.05
    z /= z.sum(axis=1, keepdims=True)
    xi = rng.gumbel(size=(k, n, d))
    xi[:, 0] = 0.0
    xi[2, 1] = xi[0, 1]
    g = rng.standard_normal((n, d))
    want_v, want_vjp = explicit_relaxed_topk(z, xi, 0.5)
    node = relaxed_topk_var(ad.Var(z), xi, 0.5)
    assert np.array_equal(node.value, want_v)
    assert relative_error(node._backward(g)[0], want_vjp(g)) < 1e-12


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_mask_bounds_hold_for_any_seed(seed):
    rng = np.random.default_rng(seed)
    z = rng.random((1, 6))
    z /= z.sum()
    v = relaxed(z, sample_gumbel_batch(np.empty((3, 1, 6)), rng), tau=0.5)
    assert v.sum() <= 3 + 1e-6
    assert v.min() >= 0.0
