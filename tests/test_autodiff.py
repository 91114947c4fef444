"""Gradient checks of the tape against central finite differences: the
elementwise glue, and each fused node's closed-form VJP."""

import numpy as np

from meed import autodiff as ad
from meed.approximators import CE_EPS, cross_entropy_var, sliced_wasserstein_var, sw_directions
from meed.core import Mlp, classifier_layers
from meed.explainer import fuse_prior_var, prior_constraint_loss_var
from meed.sampler import Z_EPS, relaxed_topk_var
from tests.conftest import finite_difference, relative_error, weighted_sum


def check_gradient(build, value, tol=1e-6):
    """build(Var) must return a scalar Var; compares the gradient with respect
    to the Var's `value` with central FD and returns it."""
    leaf = ad.Var(value.copy())
    ad.backward(build(leaf))
    fd = finite_difference(lambda p: float(build(ad.Var(p.reshape(value.shape))).value),
                           value.ravel())
    assert relative_error(leaf.grad.ravel(), fd) < tol
    return leaf.grad


def test_add_mul_broadcast(rng):
    def build(leaf):
        m = ad.add(ad.mul(leaf, 2.0), 1.5)
        return weighted_sum(ad.mul(m, m))

    check_gradient(build, rng.standard_normal(6))


def test_diamond_graph_accumulates():
    leaf = ad.Var(np.array([2.0]))
    left = ad.mul(leaf, 3.0)
    right = ad.mul(leaf, leaf)
    out = weighted_sum(ad.add(left, right))
    ad.backward(out)
    assert np.allclose(leaf.grad, [3.0 + 2 * 2.0])


def test_node_gives_each_parent_its_part():
    a, b = ad.Var(np.ones(2)), ad.Var(np.ones(2))
    ad.backward(weighted_sum(ad.Var(np.zeros(2), (a, b), lambda g: (g * 2.0, g * 3.0))))
    assert np.array_equal(a.grad, [2.0, 2.0]) and np.array_equal(b.grad, [3.0, 3.0])


def test_mlp_node_gradients_match_finite_differences(rng):
    net = Mlp(4, classifier_layers((5, 3), 3), rng=rng)
    x = rng.standard_normal((6, 4))
    weights = rng.standard_normal((6, 3))
    params = net.parameters.copy()
    check_gradient(lambda xv: weighted_sum(net.forward_var(xv, ad.Var(params)), weights), x)
    check_gradient(lambda leaf: weighted_sum(net.forward_var(x, leaf), weights), params)


def test_matmul_relu_chain(rng):
    """A dense layer then relu: the flat weight gradient of mean(h * h) matches FD."""
    x = rng.standard_normal((5, 4))
    net = Mlp(4, [("dense", 3), ("relu",)], rng=rng)

    def build(leaf):
        h = net.forward_var(x, leaf)
        return ad.mul(weighted_sum(ad.mul(h, h)), 1.0 / h.value.size)

    check_gradient(build, net.parameters.copy())


def test_softmax_rows_and_gradient(rng):
    """A softmax layer: its rows sum to one and its input gradient matches FD."""
    p = rng.standard_normal((3, 4))
    net = Mlp(4, [("softmax",)])
    assert np.allclose(net.forward_var(p).value.sum(axis=1), 1.0)
    assert np.allclose(net.predict(p), net.forward_var(p).value)
    check_gradient(lambda leaf: weighted_sum(net.forward_var(leaf), np.arange(12.0).reshape(3, 4)), p)


def test_frozen_mlp_node_differentiates_its_input_only(rng):
    net = Mlp(4, classifier_layers((5,), 3), rng=rng)
    x = rng.standard_normal((6, 4))
    weights = rng.standard_normal((6, 3))
    xv = ad.Var(x)
    assert net.forward_var(xv)._parents == (xv,)
    leaf = ad.Var(net.parameters)
    assert net.forward_var(x, leaf)._parents == (leaf,)
    check_gradient(lambda v: weighted_sum(net.forward_var(v), weights), x)


def test_relaxed_topk_node_matches_finite_differences(rng):
    z = rng.random((3, 5)) + 0.1
    z[0, 2] = -0.3  # below Z_EPS: clamped, so it gets no gradient
    assert z[0, 2] < Z_EPS
    xi = rng.gumbel(size=(3, 5, 2))
    weights = rng.standard_normal((3, 5))
    grad = check_gradient(lambda zv: weighted_sum(relaxed_topk_var(zv, xi, 0.7), weights), z)
    assert grad[0, 2] == 0.0 and np.all(grad[z > Z_EPS] != 0.0)


def test_relaxed_topk_vjp_with_uneven_race_wins(rng):
    """k=3 races where race 0 wins two entries, race 2 wins none (c_2 = 0),
    and one score sits below Z_EPS."""
    z = np.array([[0.3, 0.25, 0.2, 0.15, 0.1, -0.3], rng.random(6) + 0.1])
    assert z[0, 5] < Z_EPS
    xi = np.zeros((2, 6, 3))
    xi[0, :2, 0] = 1.0  # race 0 peaks on entries 0 and 1
    xi[0, :2, 2] = 0.5  # race 2 peaks there too, but less: it wins nothing
    xi[1] = rng.gumbel(size=(6, 3))
    races = np.exp((np.log(np.maximum(z, Z_EPS))[:, :, None] + xi) / 0.37)
    wins = np.bincount(np.argmax(races / races.sum(axis=1, keepdims=True), axis=2)[0, :5],
                       minlength=3)
    assert wins[0] >= 2 and wins[2] == 0
    weights = rng.standard_normal((2, 6))
    grad = check_gradient(lambda zv: weighted_sum(relaxed_topk_var(zv, xi, 0.37), weights), z)
    assert grad[0, 5] == 0.0 and np.all(grad[z > Z_EPS] != 0.0)


def test_cross_entropy_node_matches_finite_differences(rng):
    target = rng.random((4, 3))
    target /= target.sum(axis=1, keepdims=True)
    pred = rng.random((4, 3)) + 0.05
    pred[1, 0] = -0.2  # below CE_EPS: clamped, so it gets no gradient
    assert pred[1, 0] < CE_EPS
    grad = check_gradient(lambda p: cross_entropy_var(target, p), pred)
    assert grad[1, 0] == 0.0


def test_fuse_prior_node_matches_finite_differences(rng):
    z = rng.random((3, 4)) + 0.1
    z /= z.sum(axis=1, keepdims=True)
    z[2, 1] = -0.1  # below Z_EPS: clamped, so it gets no gradient
    r = rng.random((3, 4)) + 0.1
    r /= r.sum(axis=1, keepdims=True)
    weights = rng.standard_normal((3, 4))
    for m in (0, 3):
        grad = check_gradient(lambda zv: weighted_sum(fuse_prior_var(zv, r, m), weights), z)
        assert grad[2, 1] == 0.0
        assert np.all(grad == 0.0) == (m == 0)  # m=0 returns the prior alone


def test_prior_constraint_node_matches_finite_differences(rng):
    z = rng.random((3, 4))
    z_tilde = z + rng.choice([-1.0, 1.0], size=z.shape) * (0.1 + rng.random(z.shape))
    check_gradient(lambda v: prior_constraint_loss_var(v, ad.Var(z), 2), z_tilde)
    check_gradient(lambda v: prior_constraint_loss_var(ad.Var(z_tilde), v, 2), z)


def test_sliced_wasserstein_node_matches_finite_differences(rng):
    batch_a = rng.standard_normal((6, 3))
    batch_b = rng.standard_normal((6, 3))
    thetas = sw_directions(3, 5, rng)
    check_gradient(lambda b: sliced_wasserstein_var(batch_a, b, thetas), batch_b)
