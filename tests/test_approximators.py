"""Twin approximators, imputation, cross-entropy and sliced Wasserstein."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meed import autodiff as ad
from meed.core import RelaxedMask, SelectionSet, ShapeError
from meed.approximators import (ApproximatorPair, cross_entropy,
                                cross_entropy_var, impute_selected,
                                impute_unselected, make_pair,
                                relativistic_flip, sliced_wasserstein,
                                sliced_wasserstein_var, sw_directions)


def test_imputations_partition_the_input(rng):
    x = rng.standard_normal(6)
    sel = SelectionSet(indices=(1, 4), d=6)
    xs = impute_selected(x, sel)
    xu = impute_unselected(x, sel)
    assert np.allclose(xs + xu, x)
    assert np.allclose(xs[[0, 2, 3, 5]], 0.0)
    assert np.allclose(xu[[1, 4]], 0.0)


def test_imputation_accepts_relaxed_mask(rng):
    x = rng.standard_normal(4)
    mask = RelaxedMask(v=np.array([0.9, 0.1, 0.0, 1.0]), k=2, tau=0.5)
    assert np.allclose(impute_selected(x, mask), x * mask.v)
    assert np.allclose(impute_unselected(x, mask), x * (1 - mask.v))


def test_cross_entropy_matches_closed_form():
    target = np.array([1.0, 0.0])
    pred = np.array([0.8, 0.2])
    assert np.isclose(cross_entropy(target, pred), -np.log(0.8))


@given(st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=3, max_size=3),
       st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=3, max_size=3))
@settings(max_examples=50, deadline=None)
def test_cross_entropy_gibbs_inequality(p_raw, q_raw):
    p = np.array(p_raw) / np.sum(p_raw)
    q = np.array(q_raw) / np.sum(q_raw)
    assert cross_entropy(p, q) >= cross_entropy(p, p) - 1e-9


def test_cross_entropy_var_matches_batch_mean(rng):
    target = rng.random((4, 3))
    target /= target.sum(axis=1, keepdims=True)
    pred = rng.random((4, 3)) + 0.05
    pred /= pred.sum(axis=1, keepdims=True)
    got = cross_entropy_var(target, ad.Var(pred)).value
    want = np.mean([cross_entropy(target[i], pred[i]) for i in range(4)])
    assert np.isclose(got, want)


def test_relativistic_flip_binary_and_multiclass():
    y = np.array([[0.8, 0.2], [0.3, 0.7]])
    assert np.allclose(relativistic_flip(y), 1.0 - y)
    y3 = np.array([[0.6, 0.3, 0.1]])
    flipped = relativistic_flip(y3)
    assert np.allclose(flipped.sum(axis=1), 1.0)
    assert np.allclose(flipped, (1.0 - y3) / 2.0)


def test_sliced_wasserstein_zero_for_identical_batches(rng):
    a = rng.random((10, 3))
    a /= a.sum(axis=1, keepdims=True)
    assert sliced_wasserstein(a, a.copy(), 16, rng) < 1e-12


def test_sliced_wasserstein_detects_shift(rng):
    a = np.tile([0.9, 0.1], (12, 1))
    b = np.tile([0.1, 0.9], (12, 1))
    assert sliced_wasserstein(a, b, 32, rng) > 0.1


def test_sliced_wasserstein_is_permutation_invariant(rng):
    a = rng.random((8, 2))
    b = rng.random((8, 2))
    d1 = sliced_wasserstein(a, b, 16, np.random.default_rng(3))
    d2 = sliced_wasserstein(a, b[::-1].copy(), 16, np.random.default_rng(3))
    assert np.isclose(d1, d2)


def test_sliced_wasserstein_rejects_mismatched_batches(rng):
    with pytest.raises(ValueError):
        sliced_wasserstein(np.zeros((4, 2)), np.zeros((5, 2)), 8, rng)
    with pytest.raises(ValueError):
        sliced_wasserstein(np.zeros((4, 2)), np.zeros((4, 2)), 0, rng)


def test_sliced_wasserstein_var_matches_scalar(rng):
    a = rng.random((6, 3))
    b = rng.random((6, 3))
    thetas = sw_directions(3, 8, rng)
    got = sliced_wasserstein_var(a, ad.Var(b), thetas).value
    proj_a = np.sort(a @ thetas, axis=0)
    proj_b = np.sort(b @ thetas, axis=0)
    assert np.isclose(got, np.mean((proj_a - proj_b) ** 2))


def test_make_pair(rng):
    pair = make_pair(d=5, c=2, hidden=(8,), rng=rng)
    assert isinstance(pair, ApproximatorPair)
    assert pair.a_selected.layers == pair.a_unselected.layers
    assert not np.shares_memory(pair.a_selected.parameters, pair.a_unselected.parameters)
    assert not np.allclose(pair.a_selected.parameters, pair.a_unselected.parameters)


def test_pair_outputs_are_simplex(rng):
    pair = make_pair(d=5, c=3, hidden=(8,), rng=rng)
    x = rng.standard_normal((4, 5))
    for net in (pair.a_selected, pair.a_unselected):
        out = net.predict(x)
        assert np.allclose(out.sum(axis=1), 1.0)
        assert (out >= 0).all()
