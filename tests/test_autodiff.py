"""Gradient checks for the reverse-mode tape against finite differences."""

import numpy as np

from meed import autodiff as ad
from tests.conftest import finite_difference, relative_error


def check_scalar_fn(build, params, tol=1e-6):
    """build(Var) must return a scalar Var; compares grad with central FD."""
    leaf = ad.Var(params.copy())
    out = build(leaf)
    ad.backward(out)
    fd = finite_difference(lambda p: build(ad.Var(p)).value, params)
    assert relative_error(leaf.grad, fd) < tol


def test_add_mul_broadcast(rng):
    p = rng.standard_normal(6)
    w = rng.standard_normal((2, 3))

    def build(leaf):
        m = ad.add(ad.mul(leaf, 2.0), 1.5)
        return ad.sum_along(ad.mul(m, m))

    check_scalar_fn(build, p)
    del w


def test_matmul_relu_chain(rng):
    w = rng.standard_normal((4, 3))
    x = rng.standard_normal((5, 4))

    def build(leaf):
        h = ad.relu(ad.matmul(ad.Var(x), leaf))
        return ad.mean_all(ad.mul(h, h))

    leaf = ad.Var(w.copy())
    out = build(leaf)
    ad.backward(out)
    fd = finite_difference(
        lambda p: build(ad.Var(p.reshape(4, 3))).value, w.ravel())
    assert relative_error(leaf.grad.ravel(), fd) < 1e-6


def test_log_exp_power(rng):
    p = np.abs(rng.standard_normal(5)) + 0.5
    check_scalar_fn(lambda leaf: ad.sum_along(ad.log(leaf)), p)
    check_scalar_fn(lambda leaf: ad.sum_along(ad.exp(ad.mul(leaf, 0.3))), p)


def test_absolute_away_from_zero(rng):
    p = rng.standard_normal(8)
    p[np.abs(p) < 0.1] = 0.5
    check_scalar_fn(lambda leaf: ad.sum_along(ad.absolute(leaf)), p)


def test_clamp_min_passes_gradient_above_floor():
    leaf = ad.Var(np.array([0.5, 2.0]))
    out = ad.sum_along(ad.clamp_min(leaf, 1.0))
    ad.backward(out)
    assert np.allclose(leaf.grad, [0.0, 1.0])
    assert np.allclose(out.value, 3.0)


def test_softmax_rows_and_gradient(rng):
    p = rng.standard_normal((3, 4))

    def build(leaf):
        s = ad.softmax(leaf, axis=1)
        return ad.sum_along(ad.mul(s, ad.Var(np.arange(12.0).reshape(3, 4))))

    leaf = ad.Var(p.copy())
    out = build(leaf)
    ad.backward(out)
    sm = ad.softmax(ad.Var(p), axis=1).value
    assert np.allclose(sm.sum(axis=1), 1.0)
    fd = finite_difference(lambda q: build(ad.Var(q.reshape(3, 4))).value, p.ravel())
    assert relative_error(leaf.grad.ravel(), fd) < 1e-6


def test_max_along_subgradient_first_argmax():
    vals = np.array([[1.0, 3.0, 3.0]])
    leaf = ad.Var(vals)
    out = ad.sum_along(ad.max_along(leaf, axis=1))
    ad.backward(out)
    assert np.allclose(leaf.grad, [[0.0, 1.0, 0.0]])


def test_sort_axis0_gradient(rng):
    p = rng.standard_normal((6, 2))
    weights = rng.standard_normal((6, 2))

    def build(leaf):
        return ad.sum_along(ad.mul(ad.sort_axis0(leaf), ad.Var(weights)))

    leaf = ad.Var(p.copy())
    out = build(leaf)
    ad.backward(out)
    fd = finite_difference(lambda q: build(ad.Var(q.reshape(6, 2))).value, p.ravel())
    assert relative_error(leaf.grad.ravel(), fd) < 1e-6


def test_concat_and_expand_dims(rng):
    a = rng.standard_normal((3, 2))
    leaf = ad.Var(a.copy())
    out = ad.sum_along(ad.expand_dims(leaf, axis=2))
    ad.backward(out)
    assert np.allclose(leaf.grad, np.ones_like(a))


def test_diamond_graph_accumulates():
    leaf = ad.Var(np.array([2.0]))
    left = ad.mul(leaf, 3.0)
    right = ad.mul(leaf, leaf)
    out = ad.sum_along(ad.add(left, right))
    ad.backward(out)
    assert np.allclose(leaf.grad, [3.0 + 2 * 2.0])
