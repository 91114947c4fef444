"""Domain types, configuration validation, RNG streams and the MLP base."""

import itertools

import numpy as np
import pytest

from meed import autodiff as ad
from meed.approximators import cross_entropy_var
from meed.core import (ConfigError, Mlp, SelectionSet, ShapeError,
                       TrainConfig, is_simplex, named_rng)
from tests.conftest import finite_difference, relative_error


def test_is_simplex():
    assert is_simplex(np.array([0.25, 0.75]))
    assert not is_simplex(np.array([0.5, 0.6]))
    assert not is_simplex(np.array([-0.1, 1.1]))
    assert is_simplex(np.array([[0.25, 0.75], [1.0, 0.0]]))
    assert not is_simplex(np.array([[0.5, 0.5], [0.9, 0.9]]))
    assert not is_simplex(np.array([np.nan, 1.0]))
    assert not is_simplex(np.array([np.inf, 1.0]))


def test_selection_set_invariants():
    sel = SelectionSet(indices=(np.int64(1), 4), d=6)
    assert sel.indices == (1, 4) and all(type(i) is int for i in sel.indices)
    with pytest.raises(ValueError):
        SelectionSet(indices=(4, 1), d=6)
    with pytest.raises(ValueError):
        SelectionSet(indices=(1, 1), d=6)
    with pytest.raises(ValueError):
        SelectionSet(indices=(0, 6), d=6)


def test_train_config_validation():
    TrainConfig(k=2, epochs=1, seed=0)
    with pytest.raises(ConfigError):
        TrainConfig(k=0, epochs=1, seed=0)
    with pytest.raises(ConfigError):
        TrainConfig(k=2, epochs=1, seed=0, tau=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(k=2, epochs=1, seed=0, loss_u="hinge")
    with pytest.raises(ConfigError):
        TrainConfig(k=2, epochs=1, seed=0, lambda_u=-1.0)
    with pytest.raises(ConfigError):
        TrainConfig(k=2, epochs=1, seed=0, prior_method="lime")
    with pytest.raises(ConfigError, match="seed"):
        TrainConfig(k=2, epochs=1, seed=-1)
    with pytest.raises(ConfigError, match="lambda_e"):
        TrainConfig(k=2, epochs=1, seed=0, lambda_e=-1.0)


@pytest.mark.parametrize("hidden, out", [((0,), 2), ((4, -1), 2), ((4,), 0)])
def test_mlp_rejects_a_dense_width_below_1(hidden, out):
    """Library callers get ConfigError, not numpy's "negative dimensions"."""
    with pytest.raises(ConfigError, match="width >= 1"):
        Mlp(3, (*hidden, out))


def test_named_rng_streams_are_stable_and_distinct():
    a1 = named_rng(7, "data").standard_normal(4)
    a2 = named_rng(7, "data").standard_normal(4)
    b = named_rng(7, "gumbel").standard_normal(4)
    c = named_rng(8, "data").standard_normal(4)
    assert np.allclose(a1, a2)
    assert not np.allclose(a1, b)
    assert not np.allclose(a1, c)
    with pytest.raises(KeyError):
        named_rng(7, "unknown-stream")


def make_net(rng, in_dim=5, hidden=4, out=3):
    return Mlp(in_dim, (hidden, out), rng=rng)


def test_mlp_predict_is_simplex(rng):
    net = make_net(rng)
    y = net.predict(rng.standard_normal((7, 5)))
    assert y.shape == (7, 3)
    assert np.allclose(y.sum(axis=1), 1.0)
    assert (y >= 0).all()


def test_mlp_forward_var_matches_predict(rng):
    net = make_net(rng)
    x = rng.standard_normal((4, 5))
    out = net.forward_var(x, ad.Var(net.parameters))
    assert np.array_equal(out.value, net.predict(x))


def forward_backward_case(rng):
    """A two-hidden-layer net, a batch, and the output gradient g of the
    scalar sum(out * g)."""
    net = Mlp(4, (5, 3, 3), rng=rng)
    return net, rng.standard_normal((6, 4)), rng.standard_normal((6, 3))


def test_mlp_backward_matches_finite_differences(rng):
    net, x, g = forward_backward_case(rng)
    out, saved = net.forward(x)
    assert np.array_equal(out, net.predict(x))
    lean_out, lean_saved = net.forward(x, keep=False)
    assert np.array_equal(lean_out, out) and lean_saved == []
    g_in, g_flat = net.backward(saved, g)
    params = net.parameters.copy()
    fd_in = finite_difference(lambda v: float((net.forward(v.reshape(x.shape))[0] * g).sum()),
                              x.ravel())
    fd_flat = finite_difference(lambda p: float((net.forward(x, p)[0] * g).sum()), params)
    assert relative_error(g_in.ravel(), fd_in) < 1e-6
    assert relative_error(g_flat, fd_flat) < 1e-6
    assert np.array_equal(net.parameters, params)


def test_mlp_backward_of_a_frozen_net_gives_the_input_gradient_only(rng):
    net, x, g = forward_backward_case(rng)
    _, saved = net.forward(x)
    g_in, g_flat = net.backward(saved, g, weights=False)
    assert g_flat is None
    fd_in = finite_difference(lambda v: float((net.forward(v.reshape(x.shape))[0] * g).sum()),
                              x.ravel())
    assert relative_error(g_in.ravel(), fd_in) < 1e-6
    assert np.array_equal(g_in, net.backward(saved, g)[0])


def test_mlp_backward_without_the_input_gradient(rng):
    net, x, g = forward_backward_case(rng)
    other = net.parameters + 0.1 * rng.standard_normal(net.n_params)
    _, saved = net.forward(x, other)
    g_in, g_flat = net.backward(saved, g, other, inputs=False)
    assert g_in is None
    fd_flat = finite_difference(lambda p: float((net.forward(x, p)[0] * g).sum()), other.copy())
    assert relative_error(g_flat, fd_flat) < 1e-6
    assert np.array_equal(g_flat, net.backward(saved, g, other)[1])


def stacked_case(m=3, n=5):
    """An m-net stack drawn from one seed, an (m, n, 4) input stack and an
    output gradient stack."""
    stack = Mlp(4, (5, 3, 3), rng=np.random.default_rng(7), nets=m)
    rng = np.random.default_rng(8)
    return stack, rng.standard_normal((m, n, 4)), rng.standard_normal((m, n, 3))


def test_stacked_mlp_equals_separate_nets_bit_for_bit():
    stack, x, g = stacked_case()
    draw = np.random.default_rng(7)
    nets = [Mlp(4, stack.widths, rng=draw) for _ in range(stack.nets)]
    assert np.array_equal(stack.parameters, np.concatenate([net.parameters for net in nets]))
    out, saved = stack.forward(x)
    assert np.array_equal(out, stack.predict(x))
    p = stack.n_params // stack.nets
    for weights, inputs in itertools.product((True, False), repeat=2):
        g_in, g_flat = stack.backward(saved, g, weights=weights, inputs=inputs)
        assert (g_in is None) != inputs and (g_flat is None) != weights
        for i, net in enumerate(nets):
            one_out, one_saved = net.forward(x[i])
            assert np.array_equal(one_out, out[i])
            one_in, one_flat = net.backward(one_saved, g[i], weights=weights, inputs=inputs)
            if inputs:
                assert np.array_equal(one_in, g_in[i])
            if weights:
                assert np.array_equal(one_flat, g_flat[i * p:(i + 1) * p])


def test_stacked_mlp_backward_matches_finite_differences():
    stack, x, g = stacked_case(m=2)
    g_in, g_flat = stack.backward(stack.forward(x)[1], g)
    fd_in = finite_difference(lambda v: float((stack.forward(v.reshape(x.shape))[0] * g).sum()),
                              x.ravel())
    fd_flat = finite_difference(lambda p: float((stack.forward(x, p)[0] * g).sum()),
                                stack.parameters.copy())
    assert relative_error(g_in.ravel(), fd_in) < 1e-6
    assert relative_error(g_flat, fd_flat) < 1e-6


def test_stacked_mlp_rejects_a_batch_without_its_net_axis():
    stack, x, _ = stacked_case(m=2)
    for bad in (x[0], x[:1], np.concatenate([x, x])):
        with pytest.raises(ShapeError):
            stack.forward(bad)
    single = Mlp(4, stack.widths, parameters=stack.parameters[:stack.n_params // 2])
    assert np.array_equal(single.predict(x[:1])[0], single.predict(x[0]))
    with pytest.raises(ShapeError):
        single.predict(x)


def out_of_place_forward(net, x, keep=True):
    """`Mlp.forward` with every step making a fresh array: the reference the
    in-place forward must equal bit for bit."""
    h = np.asarray(x, dtype=np.float64)
    lead = h.shape[:-2]
    flat = net.parameters.reshape(lead + (-1,))
    saved = []
    for i, (w_sl, w_shape, b_sl) in enumerate(net._slices):
        if i:
            h = np.maximum(h, 0.0)
        if keep:
            saved.append(h)
        h = h @ flat[..., w_sl].reshape(lead + w_shape) + flat[..., None, b_sl]
    e = np.exp(h - h.max(axis=-1, keepdims=True))
    h = e / e.sum(axis=-1, keepdims=True)
    if keep:
        saved.append(h)
    return h, saved


def bits(a) -> bytes:
    a = np.asarray(a)
    return a.dtype.str.encode() + str(a.shape).encode() + a.tobytes()


@pytest.mark.parametrize("widths", [(), (3,), (5, 3), (6, 5, 3)])
@pytest.mark.parametrize("nets, shape", [(1, (7, 4)), (1, (1, 4)), (1, (1, 7, 4)),
                                         (3, (3, 7, 4))])
@pytest.mark.parametrize("keep", [True, False])
def test_in_place_forward_equals_the_out_of_place_form_bit_for_bit(widths, nets, shape, keep):
    """Batches (n, d), stacks (m, n, d) and single rows, with and without the
    saved activations; x keeps its bytes, also under a softmax alone."""
    net = Mlp(4, widths, rng=np.random.default_rng(3), nets=nets)
    x = 4.0 * np.random.default_rng(4).standard_normal(shape)
    before = bits(x)
    out, saved = net.forward(x, keep=keep)
    ref_out, ref_saved = out_of_place_forward(net, x.copy(), keep=keep)
    assert bits(out) == bits(ref_out) and bits(net.predict(x)) == bits(ref_out)
    assert [bits(a) for a in saved] == [bits(a) for a in ref_saved]
    if shape == (1, 4):
        assert bits(net.predict(x[0])) == bits(ref_out[0])
    assert bits(x) == before


def test_mlp_clone_and_set_parameters(rng):
    net = make_net(rng)
    other = Mlp(net.in_dim, net.widths, parameters=net.parameters)
    x = rng.standard_normal((3, 5))
    assert np.allclose(net.predict(x), other.predict(x))
    other.set_parameters(other.parameters * 0.0)
    assert not np.allclose(net.predict(x), other.predict(x))
    with pytest.raises(ShapeError):
        net.set_parameters(np.zeros(3))


def test_mlp_rejects_bad_input_width(rng):
    net = make_net(rng)
    with pytest.raises(ShapeError):
        net.predict(rng.standard_normal((2, 4)))


def test_net_gradient_matches_finite_differences(rng):
    net = make_net(rng, in_dim=4, hidden=3, out=2)
    x = rng.standard_normal((6, 4))
    target = rng.random((6, 2))
    target /= target.sum(axis=1, keepdims=True)

    leaf = ad.Var(net.parameters)
    pred = net.forward_var(x, leaf)
    ad.backward(cross_entropy_var(target, pred))
    grad = leaf.grad

    def scalar(params):
        probe = Mlp(net.in_dim, net.widths, parameters=params)
        pred = probe.predict(x)
        return float(-np.mean(np.sum(target * np.log(np.maximum(pred, 1e-12)), axis=1)))

    fd = finite_difference(scalar, net.parameters.copy())
    assert relative_error(grad, fd) < 1e-6
