"""Domain types, configuration validation, RNG streams and the MLP base."""

import copy
import itertools
import pickle

import numpy as np
import pytest

from meed import autodiff as ad
from meed.approximators import cross_entropy_var, make_pair
from meed.core import (ConfigError, Mlp, SelectionSet, ShapeError,
                       TrainConfig, is_simplex, named_rng)
from meed.data import MlpModel
from meed.explainer import ExplainerNet
from tests.conftest import (finite_difference, parameter_finite_difference, relative_error,
                            weighted_sum)


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
    # Each invalid set raises the first rule it breaks, in this order.
    for indices, message in [((), "need 1 <= k <= d"), (tuple(range(7)), "need 1 <= k <= d"),
                             ((-1, 2), "index out of range"), ((2, 9), "index out of range"),
                             ((0, 6), "index out of range"), ((9, 2), "index out of range"),
                             ((4, 1), "strictly increasing"), ((1, 1), "strictly increasing")]:
        with pytest.raises(ValueError, match=message):
            SelectionSet(indices=indices, d=6)
    # Indices are integers: a float, a float array, a string or a bool is not
    # truncated, parsed or taken as 0 or 1.
    for indices, bad in [((1.7, 3.2), "1.7"), (np.array([0.9, 2.5]), "0.9"), (("1", "2"), "'1'"),
                         ((1, np.float64(3.0)), "3.0"), ((True, 3), "True"), ((0, False), "False"),
                         (np.array([False, True]), "False"), ((np.True_, 3), "True")]:
        with pytest.raises(ValueError, match=f"indices must be integers, got .*{bad}"):
            SelectionSet(indices=indices, d=5)
    assert SelectionSet(np.array([1, 3], dtype=np.int32), 5).indices == (1, 3)


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


@pytest.mark.parametrize("nets", [0, -1])
def test_mlp_rejects_nets_below_1(nets):
    """Rejected at construction, not by numpy's reshape at the first forward."""
    with pytest.raises(ConfigError, match="nets >= 1"):
        Mlp(3, (4, 2), nets=nets)


@pytest.mark.parametrize("in_dim", [0, -2])
def test_mlp_rejects_in_dim_below_1(in_dim):
    """Rejected at construction: in_dim 0 would build a bias-only net."""
    with pytest.raises(ConfigError, match="in_dim >= 1"):
        Mlp(in_dim, (2,))


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
    fd_flat = parameter_finite_difference(net, lambda: float((net.forward(x)[0] * g).sum()))
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
    net.set_parameters(net.parameters + 0.1 * rng.standard_normal(net.n_params))
    _, saved = net.forward(x)
    g_in, g_flat = net.backward(saved, g, inputs=False)
    assert g_in is None
    fd_flat = parameter_finite_difference(net, lambda: float((net.forward(x)[0] * g).sum()))
    assert relative_error(g_flat, fd_flat) < 1e-6
    assert np.array_equal(g_flat, net.backward(saved, g)[1])


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
    fd_flat = parameter_finite_difference(stack, lambda: float((stack.forward(x)[0] * g).sum()))
    assert relative_error(g_in.ravel(), fd_in) < 1e-6
    assert relative_error(g_flat, fd_flat) < 1e-6


def test_stacked_mlp_rejects_a_batch_without_its_net_axis():
    stack, x, _ = stacked_case(m=2)
    for bad in (x[0], x[0, 0], x[:1], np.concatenate([x, x])):
        with pytest.raises(ShapeError):
            stack.forward(bad, keep=False)
    single = Mlp(4, stack.widths, parameters=stack.parameters[:stack.n_params // 2])
    assert np.array_equal(single.predict(x[:1])[0], single.predict(x[0]))
    for bad in (x, x[0, 0, :3]):
        with pytest.raises(ShapeError):
            single.predict(bad)


def out_of_place_forward(net, x, keep=True):
    """`Mlp.forward` with every step making a fresh array: the reference the
    in-place forward must equal bit for bit. A batch adds each bias as a
    (1, out) row, a single row x (in_dim,) as an (out,) vector."""
    h = np.asarray(x, dtype=np.float64)
    lead = h.shape[:-2]
    flat = net.parameters.reshape(lead + (-1,))
    saved = []
    for i, (w_sl, w_shape, b_sl) in enumerate(net._slices):
        if i:
            h = np.maximum(h, 0.0)
        if keep:
            saved.append(h)
        h = h @ flat[..., w_sl].reshape(lead + w_shape) + (flat[..., None, b_sl] if h.ndim > 1
                                                           else flat[b_sl])
    e = np.exp(h - h.max(axis=-1, keepdims=True))
    h = e / e.sum(axis=-1, keepdims=True)
    if keep:
        saved.append(h)
    return h, saved


def bits(a) -> bytes:
    a = np.asarray(a)
    return a.dtype.str.encode() + str(a.shape).encode() + a.tobytes()


@pytest.mark.parametrize("widths", [(), (3,), (5, 3), (6, 5, 3), (7, 20), (1, 3), (5, 1, 4),
                                    (6, 1), (2,)])
@pytest.mark.parametrize("nets, shape", [(1, (7, 4)), (1, (1, 4)), (1, (4,)), (1, (1, 7, 4)),
                                         (3, (3, 7, 4))])
@pytest.mark.parametrize("keep", [True, False])
def test_in_place_forward_equals_the_out_of_place_form_bit_for_bit(widths, nets, shape, keep):
    """Batches (n, d), stacks (m, n, d) and single rows (d,) and (1, d), with
    and without the saved activations (a row (d,) only without); x keeps its
    bytes, also under a softmax alone. A row (d,) reduces its softmax to
    scalars at every output width (1, 2, 3, 4 and 20), and under a softmax
    alone its largest logit ties."""
    net = Mlp(4, widths, rng=np.random.default_rng(3), nets=nets)
    x = 4.0 * np.random.default_rng(4).standard_normal(shape)
    if shape == (4,) and not widths:
        x[x.argmin()] = x.max()
    before = bits(x)
    if len(shape) == 1 and keep:
        with pytest.raises(ShapeError, match="keep=False"):
            net.forward(x, keep=keep)
        return
    out, saved = net.forward(x, keep=keep)
    ref_out, ref_saved = out_of_place_forward(net, x.copy(), keep=keep)
    assert bits(out) == bits(ref_out) and bits(net.predict(x)) == bits(ref_out)
    assert [bits(a) for a in saved] == [bits(a) for a in ref_saved]
    if shape == (1, 4):
        assert bits(net.predict(x[0])) == bits(ref_out[0])
    assert bits(x) == before


def test_a_row_has_the_bits_of_the_contiguous_one_row_batch_at_any_stride():
    """A row of a Fortran-order array, every second entry of a longer vector
    and a reversed view run as their contiguous copy, on nets of random widths."""
    rng = np.random.default_rng(11)
    for _ in range(40):
        d, hidden, out = (int(v) for v in rng.integers(1, 80, size=3))
        net = Mlp(d, (hidden, out), rng=rng)
        x = rng.standard_normal((3, d))
        before = bits(x)
        ref = bits(net.predict(x[1:2])[0])
        for row in (x[1], np.asfortranarray(x)[1], np.repeat(x[1], 2)[::2],
                    x[1, ::-1].copy()[::-1]):
            assert bits(net.predict(row)) == ref
        assert bits(x) == before


def reduction_backward(net, saved, g):
    """`Mlp.backward` with numpy's last-axis reductions and fresh arrays
    throughout: the reference the two-column softmax VJP must equal bit for bit."""
    lead = g.shape[:-2]
    rows = lead + (-1,)
    flat = net.parameters.reshape(rows)
    g_nets = np.zeros(flat.shape)
    out = saved[-1]
    g = out * (g - (g * out).sum(axis=-1, keepdims=True))
    for i in reversed(range(len(net._slices))):
        w_sl, w_shape, b_sl = net._slices[i]
        g_nets[..., w_sl] = (saved[i].swapaxes(-1, -2) @ g).reshape(rows)
        g_nets[..., b_sl] = g.sum(axis=-2)
        g = g @ flat[..., w_sl].reshape(lead + w_shape).swapaxes(-1, -2)
        if i:
            g = g * (saved[i] > 0.0)
    return g, g_nets.ravel()


# Two-class inputs: plain rows, a tie, logits near +-700 either way, signed
# zeros and a NaN row.
TWO_CLASS_ROWS = np.array([[0.3, -1.2], [1.5, 1.5], [700.0, -700.0], [-700.0, 700.0],
                           [699.5, 700.0], [-709.0, -708.5], [-0.0, 0.0], [np.nan, 1.0]])


def two_class_net(head, nets):
    """A c=2 net whose logits are its input rows ("softmax" alone, or an
    "identity" dense layer), or a relu net ("hidden")."""
    if head == "softmax":
        return Mlp(2, (), nets=nets)
    if head == "identity":
        return Mlp(2, (2,), nets=nets, parameters=np.tile([1.0, 0.0, 0.0, 1.0, 0.0, 0.0], nets))
    return Mlp(2, (4, 3, 2), rng=np.random.default_rng(5), nets=nets)


@pytest.mark.parametrize("head", ["softmax", "identity", "hidden"])
@pytest.mark.parametrize("nets, layout", [(1, "row"), (1, "batch"), (1, "one-net stack"),
                                          (2, "stack")])
def test_two_class_softmax_equals_the_reduction_form_bit_for_bit(head, nets, layout):
    """The width-2 softmax's max and sum from its two columns, forward and
    backward (weight and input gradients), against numpy's reductions."""
    net = two_class_net(head, nets)
    x = {"row": TWO_CLASS_ROWS[3:4], "batch": TWO_CLASS_ROWS,
         "one-net stack": TWO_CLASS_ROWS[None],
         "stack": np.stack([TWO_CLASS_ROWS, TWO_CLASS_ROWS[::-1] * 0.5])}[layout]
    g = np.random.default_rng(6).standard_normal(x.shape)
    out, saved = net.forward(x)
    ref_out, ref_saved = out_of_place_forward(net, x)
    assert bits(out) == bits(ref_out)
    assert [bits(a) for a in saved] == [bits(a) for a in ref_saved]
    if layout == "row":
        assert bits(net.predict(x[0])) == bits(ref_out[0])
    g_in, g_flat = net.backward(saved, g)
    ref_in, ref_flat = reduction_backward(net, ref_saved, g)
    assert bits(g_in) == bits(ref_in) and bits(g_flat) == bits(ref_flat)
    assert np.isnan(out).any() == (layout != "row")  # the NaN row stays NaN


@pytest.mark.parametrize("nets", [1, 2])
def test_two_class_backward_matches_finite_differences(nets):
    net = Mlp(4, (5, 3, 2), rng=np.random.default_rng(9), nets=nets)
    rng = np.random.default_rng(10)
    lead = (nets,) if nets > 1 else ()
    x, g = rng.standard_normal(lead + (6, 4)), rng.standard_normal(lead + (6, 2))
    g_in, g_flat = net.backward(net.forward(x)[1], g)
    fd_in = finite_difference(lambda v: float((net.forward(v.reshape(x.shape))[0] * g).sum()),
                              x.ravel())
    fd_flat = parameter_finite_difference(net, lambda: float((net.forward(x)[0] * g).sum()))
    assert relative_error(g_in.ravel(), fd_in) < 1e-6
    assert relative_error(g_flat, fd_flat) < 1e-6


def test_backward_writes_the_weight_gradient_into_out():
    net, x, g = stacked_case(m=2)
    _, saved = net.forward(x)
    buf = np.full(net.n_params, np.nan)
    g_in, g_flat = net.backward(saved, g, out=buf)
    fresh_in, fresh_flat = net.backward(saved, g)
    assert g_flat is buf and bits(buf) == bits(fresh_flat) and bits(g_in) == bits(fresh_in)
    assert net.backward(saved, g, weights=False, out=buf)[1] is None


# Each net keeps (W, b) views of its own vector once a forward has built them:
# a net that shares those views with a copy would run the wrong weights.

def test_pair_views_score_with_their_own_halves_after_a_forward(rng):
    pair = make_pair(d=5, c=2, hidden=(8,), rng=rng)
    x = rng.standard_normal((4, 5))
    for _ in range(2):
        stacked = pair.net.predict(np.stack([x, x]))
        halves = np.split(pair.net.parameters, 2)
        for i, view in enumerate((pair.a_selected, pair.a_unselected)):
            fresh = Mlp(5, view.widths, parameters=halves[i])
            assert bits(view.predict(x)) == bits(fresh.predict(x)) == bits(stacked[i])
            assert bits(view.predict(x[None])[0]) == bits(stacked[i])
        assert not np.array_equal(stacked[0], stacked[1])
        pair.net.parameters[:] += rng.standard_normal(pair.net.n_params)  # as Adam steps


def test_deepcopied_model_randomizes_alone():
    model = MlpModel(Mlp(5, (8, 2), rng=np.random.default_rng(1)))
    x = np.random.default_rng(2).standard_normal((6, 5))
    before = model.evaluate(x)
    twin = copy.deepcopy(model)
    twin.randomize(np.random.default_rng(3))
    after = twin.evaluate(x)
    assert not np.array_equal(after, before)
    assert bits(after) == bits(Mlp(5, (8, 2), parameters=twin.net.parameters).predict(x))
    assert bits(model.evaluate(x)) == bits(before)


def test_pickled_net_sees_parameters_set_after_a_forward():
    net = Mlp(5, (8, 2), rng=np.random.default_rng(1))
    x = np.random.default_rng(2).standard_normal((6, 5))
    before = net.predict(x)
    clone = pickle.loads(pickle.dumps(net))
    assert bits(clone.predict(x)) == bits(before)
    other = Mlp(5, (8, 2), rng=np.random.default_rng(4))
    for target in (clone, net):
        target.set_parameters(other.parameters)
        assert bits(target.predict(x)) == bits(other.predict(x))
    assert not np.shares_memory(clone.parameters, net.parameters)


@pytest.mark.parametrize("leaf_over", ["copy", "view"])
def test_weight_leaf_must_be_over_the_nets_own_vector(rng, leaf_over):
    """A leaf over any other array than the net's own vector would take a
    gradient at a point the net does not run: ShapeError, for the net and for
    the explainer's scoring node."""
    net = make_net(rng)
    explainer = ExplainerNet(d=4, c=2, hidden=(5,), rng=rng)
    x, y = rng.standard_normal((3, 4)), np.tile([0.25, 0.75], (3, 1))
    for model, call in ((net, lambda leaf: net.forward_var(rng.standard_normal((3, 5)), leaf)),
                        (explainer, lambda leaf: explainer.score_var(x, y, leaf))):
        other = model.parameters.copy() if leaf_over == "copy" else model.parameters[:]
        with pytest.raises(ShapeError, match="own parameter vector"):
            call(ad.Var(other))
        leaf = ad.Var(model.parameters)
        ad.backward(weighted_sum(call(leaf)))
        assert leaf.grad.shape == (model.n_params,)


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
    ad.backward(cross_entropy_var(target, pred)[0])
    grad = leaf.grad

    def scalar(params):
        probe = Mlp(net.in_dim, net.widths, parameters=params)
        pred = probe.predict(x)
        return float(-np.mean(np.sum(target * np.log(np.maximum(pred, 1e-12)), axis=1)))

    fd = finite_difference(scalar, net.parameters.copy())
    assert relative_error(grad, fd) < 1e-6
