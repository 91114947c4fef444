"""Gradient checks of the tape against central finite differences: `add`
and the reference glue of tests/helpers.py, each fused node's closed-form
VJP, and the Mlp kernel's input gradient that the frozen pair runs; and the
backward pass consuming the graph it ran."""

import numpy as np
import pytest

from meed import autodiff as ad
from meed.approximators import (CE_EPS, cross_entropy_var, make_pair, pair_loss_var,
                                sliced_wasserstein_var, sw_directions)
from meed.core import Mlp, TrainConfig
from meed.explainer import ExplainerNet, fuse_prior_var, prior_constraint_loss_var
from meed.sampler import Z_EPS, relaxed_topk_var
from meed.trainer import _pair_outputs, explainer_objective
from tests.conftest import (finite_difference, parameter_finite_difference, relative_error,
                            weighted_sum)
from tests.helpers import mul, record_sw_paths, sub


def check_gradient(build, value, tol=1e-6):
    """build(Var) must return a scalar Var; compares the gradient with respect
    to the Var's `value` with central FD and returns it."""
    leaf = ad.Var(value.copy())
    ad.backward(build(leaf))
    fd = finite_difference(lambda p: float(build(ad.Var(p.reshape(value.shape))).value),
                           value.ravel())
    assert relative_error(leaf.grad.ravel(), fd) < tol
    return leaf.grad


def check_parameter_gradient(net, build, tol=1e-6):
    """build(leaf) must return a scalar Var from `leaf`, the Var over the flat
    parameters of `net`; compares leaf's gradient with central FD, each
    perturbation set through `set_parameters`."""
    leaf = ad.Var(net.parameters)
    ad.backward(build(leaf))
    fd = parameter_finite_difference(net, lambda: float(build(ad.Var(net.parameters)).value))
    assert relative_error(leaf.grad, fd) < tol


def check_input_gradient(net, x, weights, tol=1e-6):
    """`Mlp.backward(weights=False)` of the scalar sum(out * weights) at the
    batch x: no weight gradient, and an input gradient that matches central FD."""
    g_in, g_flat = net.backward(net.forward(x)[1], weights, weights=False)
    fd = finite_difference(lambda p: float((net.predict(p.reshape(x.shape)) * weights).sum()),
                           x.ravel())
    assert g_flat is None and relative_error(g_in.ravel(), fd) < tol


def test_add_mul_broadcast(rng):
    """`add` of two Vars, and the reference glue with broadcast constants."""
    def build(leaf):
        m = ad.add(mul(leaf, 2.0), sub(1.5, leaf))
        return weighted_sum(mul(m, m))

    check_gradient(build, rng.standard_normal(6))


def test_diamond_graph_accumulates():
    """The leaf sums both branches' gradients; backward consumes every
    interior node, which keeps its parents."""
    leaf = ad.Var(np.array([2.0]))
    left = mul(leaf, 3.0)
    right = mul(leaf, leaf)
    total = ad.add(left, right)
    out = weighted_sum(total)
    ad.backward(out)
    assert np.allclose(leaf.grad, [3.0 + 2 * 2.0])
    for node in (left, right, total, out):
        assert node.grad is None and node._backward is None and node._parents


def keeping_backward(root):
    """Reference: `ad.backward` without consuming the graph, so every node
    keeps its gradient and its VJP; same visit order, so same sums."""
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((p, False) for p in node._parents if id(p) not in seen)
    root.grad = np.ones_like(root.value)
    for node in reversed(order):
        if node.grad is not None and node._parents:
            for parent, contrib in zip(node._parents, node._backward(node.grad)):
                parent.grad = contrib if parent.grad is None else parent.grad + contrib


def graph_nodes(root) -> list:
    """Every Var reachable from root, root first."""
    nodes, seen = [root], {id(root)}
    for node in nodes:
        for p in node._parents:
            if id(p) not in seen:
                seen.add(id(p))
                nodes.append(p)
    return nodes


@pytest.mark.parametrize("loss_u", ["cross-entropy", "sliced-wasserstein"])
def test_backward_consumes_each_step_graph_and_leaves_keep_their_gradients(rng, loss_u):
    """Both training steps' graphs, the explainer's at its largest (prior
    fusion and a weighted constraint loss): after backward every interior node
    has dropped its gradient and its VJP closure and keeps its parents, and
    each leaf (the explainer's parameters; the pair's outputs) holds the
    gradient of a backward that keeps the graph, bit for bit."""
    config = TrainConfig(k=2, epochs=1, seed=0, loss_u=loss_u, n_projections=8, lambda_e=0.5)
    explainer = ExplainerNet(6, 2, hidden=(8,), rng=rng)
    pair = make_pair(6, 2, (8,), rng)
    x = rng.standard_normal((10, 6))
    y = pair.a_selected.predict(x)
    prior_r = rng.random((10, 6))
    xi, thetas = rng.gumbel(size=(2, 10, 6)), sw_directions(2, 8, rng)

    def explainer_graph():
        leaf = ad.Var(explainer.parameters)
        z = explainer.score_var(x, y, leaf)
        z_tilde = fuse_prior_var(z, prior_r / prior_r.sum(axis=1, keepdims=True), 1)
        v = relaxed_topk_var(z_tilde, xi.copy(), config.tau)
        return leaf, explainer_objective(pair, z, z_tilde, x, y, config, v, 1, thetas)[0]

    def approximator_graph():
        preds = ad.Var(pair.net.predict(np.stack([x, x])))
        return preds, pair_loss_var(y, preds, loss_u, config.lambda_u, thetas)[0]

    for build, n_nodes in ((explainer_graph, 8), (approximator_graph, 2)):
        kept_leaf, kept_root = build()
        keeping_backward(kept_root)
        leaf, root = build()
        nodes = graph_nodes(root)
        assert len(nodes) == n_nodes
        ad.backward(root)
        interior = [node for node in nodes if node._parents]
        assert [node for node in nodes if not node._parents] == [leaf]
        assert all(node.grad is None and node._backward is None for node in interior)
        assert np.array_equal(leaf.grad, kept_leaf.grad) and np.any(leaf.grad != 0.0)


def test_node_gives_each_parent_its_part():
    a, b = ad.Var(np.ones(2)), ad.Var(np.ones(2))
    ad.backward(weighted_sum(ad.Var(np.zeros(2), (a, b), lambda g: (g * 2.0, g * 3.0))))
    assert np.array_equal(a.grad, [2.0, 2.0]) and np.array_equal(b.grad, [3.0, 3.0])


def test_mlp_node_gradients_match_finite_differences(rng):
    net = Mlp(4, (5, 3, 3), rng=rng)
    x = rng.standard_normal((6, 4))
    weights = rng.standard_normal((6, 3))
    check_input_gradient(net, x, weights)
    check_parameter_gradient(net, lambda leaf: weighted_sum(net.forward_var(x, leaf), weights))


def test_matmul_relu_chain(rng):
    """dense, relu, dense, softmax with some relu units off: the flat weight
    gradient of mean(out * out) matches FD."""
    x = rng.standard_normal((5, 4))
    net = Mlp(4, (3, 2), rng=rng)
    hidden = net.forward(x)[1][1]  # the second dense layer's input, after the relu
    assert (hidden == 0.0).any() and (hidden > 0.0).any()

    def build(leaf):
        h = net.forward_var(x, leaf)
        return mul(weighted_sum(mul(h, h)), 1.0 / h.value.size)

    check_parameter_gradient(net, build)


def test_softmax_rows_and_gradient(rng):
    """An identity dense layer, so the net is the softmax alone: its rows sum
    to one and its input gradient matches FD."""
    p = rng.standard_normal((3, 4))
    net = Mlp(4, (4,), parameters=np.concatenate([np.eye(4).ravel(), np.zeros(4)]))
    e = np.exp(p - p.max(axis=1, keepdims=True))
    out = net.forward(p)[0]
    assert np.allclose(out, e / e.sum(axis=1, keepdims=True))
    assert np.allclose(out.sum(axis=1), 1.0)
    assert np.allclose(net.predict(p), out)
    check_input_gradient(net, p, np.arange(12.0).reshape(3, 4))


@pytest.mark.parametrize("c", [2, 3])
def test_pair_outputs_node_differentiates_the_mask_only(rng, c):
    """The frozen pair's outputs are one node of the mask v alone, whose VJP
    matches FD at an uneven mask (entries at 0, at 1 and between) through
    A_s alone, A_u alone and both; the pair's weights do not move."""
    pair = make_pair(d=4, c=c, hidden=(16,), rng=rng)
    x = rng.standard_normal((6, 4))
    v = rng.random((6, 4))
    v[0, :2], v[1, 2:] = 0.0, 1.0
    before = pair.net.parameters.copy()
    weights = rng.standard_normal((2, 6, c))
    for side in (np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.ones(2)):
        node_weights = weights * side[:, None, None]
        mask = ad.Var(v)
        assert _pair_outputs(pair, mask, x)._parents == (mask,)
        grad = check_gradient(lambda m: weighted_sum(_pair_outputs(pair, m, x), node_weights), v)
        assert np.all(grad != 0.0)
    assert np.array_equal(pair.net.parameters, before)


def test_relaxed_topk_node_matches_finite_differences(rng):
    z = rng.random((3, 5)) + 0.1
    z[0, 2] = -0.3  # below Z_EPS: clamped, so it gets no gradient
    assert z[0, 2] < Z_EPS
    xi = rng.gumbel(size=(2, 3, 5))
    weights = rng.standard_normal((3, 5))
    grad = check_gradient(lambda zv: weighted_sum(relaxed_topk_var(zv, xi.copy(), 0.7), weights), z)
    assert grad[0, 2] == 0.0 and np.all(grad[z > Z_EPS] != 0.0)


def test_relaxed_topk_vjp_with_uneven_race_wins(rng):
    """k=3 races where race 0 wins two entries, race 2 wins none (c_2 = 0),
    and one score sits below Z_EPS."""
    z = np.array([[0.3, 0.25, 0.2, 0.15, 0.1, -0.3], rng.random(6) + 0.1])
    assert z[0, 5] < Z_EPS
    xi = np.zeros((3, 2, 6))
    xi[0, 0, :2] = 1.0  # race 0 peaks on entries 0 and 1
    xi[2, 0, :2] = 0.5  # race 2 peaks there too, but less: it wins nothing
    xi[:, 1] = rng.gumbel(size=(3, 6))
    races = np.exp((np.log(np.maximum(z, Z_EPS)) + xi) / 0.37)
    wins = np.bincount(np.argmax(races / races.sum(axis=2, keepdims=True), axis=0)[0, :5],
                       minlength=3)
    assert wins[0] >= 2 and wins[2] == 0
    weights = rng.standard_normal((2, 6))
    grad = check_gradient(lambda zv: weighted_sum(relaxed_topk_var(zv, xi.copy(), 0.37), weights),
                          z)
    assert grad[0, 5] == 0.0 and np.all(grad[z > Z_EPS] != 0.0)


@pytest.mark.parametrize("k", [1, 3, 6])
def test_relaxed_topk_vjp_under_zero_noise_matches_finite_differences(rng, k):
    """With zero noise every race ties at every entry, so the mask is one
    smooth softmax; the VJP credits each entry to one race, not to all k."""
    z = rng.random((3, 6)) + 0.1
    z /= z.sum(axis=1, keepdims=True)
    weights = rng.standard_normal((3, 6))
    xi = np.zeros((k, 3, 6))
    check_gradient(lambda zv: weighted_sum(relaxed_topk_var(zv, xi.copy(), 0.6), weights), z)


def test_cross_entropy_node_matches_finite_differences(rng):
    target = rng.random((4, 3))
    target /= target.sum(axis=1, keepdims=True)
    pred = rng.random((4, 3)) + 0.05
    pred[1, 0] = -0.2  # below CE_EPS: clamped, so it gets no gradient
    assert pred[1, 0] < CE_EPS
    grad = check_gradient(lambda p: cross_entropy_var(target, p)[0], pred)
    assert grad[1, 0] == 0.0


def test_stacked_cross_entropy_node_matches_finite_differences(rng):
    """The pair's two cross-entropies as one node, weighted (1, 0.7), against
    their own targets."""
    targets = rng.random((2, 4, 3))
    targets /= targets.sum(axis=-1, keepdims=True)
    pred = rng.random((2, 4, 3)) + 0.05
    pred[1, 2, 0] = -0.2  # below CE_EPS: clamped, so it gets no gradient
    grad = check_gradient(lambda p: cross_entropy_var(targets, p, (1.0, 0.7))[0], pred)
    assert grad[1, 2, 0] == 0.0


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
    check_gradient(lambda v: prior_constraint_loss_var(v, ad.Var(z), 2)[0], z_tilde)
    check_gradient(lambda v: prior_constraint_loss_var(ad.Var(z_tilde), v, 2)[0], z)


def test_weighted_prior_constraint_node_matches_finite_differences(rng):
    """The node is weight * L_e; the L_e it returns is unweighted."""
    z = rng.random((3, 4))
    z_tilde = z + rng.choice([-1.0, 1.0], size=z.shape) * (0.1 + rng.random(z.shape))
    check_gradient(lambda v: prior_constraint_loss_var(v, ad.Var(z), 2, 0.3)[0], z_tilde)
    check_gradient(lambda v: prior_constraint_loss_var(ad.Var(z_tilde), v, 2, 0.3)[0], z)
    node, l_e = prior_constraint_loss_var(ad.Var(z_tilde), ad.Var(z), 2, 0.3)
    assert l_e == prior_constraint_loss_var(ad.Var(z_tilde), ad.Var(z), 2)[0].value
    assert np.isclose(l_e, np.abs(z_tilde - z).mean() / 3.0)
    assert node.value == 0.3 * l_e


def test_sliced_wasserstein_node_matches_finite_differences(monkeypatch, rng):
    """The pair's node w_0*L_s + w_1*SW over the whole (2, n, c) stack, A_s's
    cross-entropy and A_u's sliced Wasserstein distance to the target, at the
    approximators' weights (1, lambda_u), the explainer's (1, -lambda_u) and
    a weight on L_s other than 1. At c = 3 the node sorts per projection; at
    c = 2 the outputs lie on the simplex, so it takes the closed form, whose
    gradient must also hold off the simplex, where the differences step."""
    paths = record_sw_paths(monkeypatch)
    for c, path in ((3, "per-projection"), (2, "two-class")):
        target = rng.random((6, c))
        target /= target.sum(axis=1, keepdims=True)
        pred = rng.random((2, 6, c)) + 0.05
        if c == 2:
            pred /= pred.sum(axis=-1, keepdims=True)
        thetas = sw_directions(c, 5, rng)
        for weights in ((1.0, 0.7), (1.0, -0.7), (0.4, 0.7)):
            del paths[:]
            grad = check_gradient(
                lambda p, w=weights: sliced_wasserstein_var(target, p, thetas, w)[0], pred)
            assert paths[0] == path
            assert np.all(grad[0] != 0.0) and np.all(grad[1] != 0.0)
