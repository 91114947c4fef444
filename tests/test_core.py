"""Domain types, configuration validation, RNG streams and the MLP base."""

import numpy as np
import pytest

from meed import autodiff as ad
from meed.core import (ConfigError, Mlp, SelectionSet, ShapeError,
                       TrainConfig, classifier_layers, is_simplex, named_rng)
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
        TrainConfig(k=2, epochs=1, seed=0, optimizer="newton")
    with pytest.raises(ConfigError):
        TrainConfig(k=2, epochs=1, seed=0, loss_u="hinge")
    with pytest.raises(ConfigError):
        TrainConfig(k=2, epochs=1, seed=0, lambda_u=-1.0)
    with pytest.raises(ConfigError):
        TrainConfig(k=2, epochs=1, seed=0, prior_method="lime")


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
    return Mlp(in_dim, classifier_layers((hidden,), out), rng=rng)


def test_mlp_predict_is_simplex(rng):
    net = make_net(rng)
    y = net.predict(rng.standard_normal((7, 5)))
    assert y.shape == (7, 3)
    assert np.allclose(y.sum(axis=1), 1.0)
    assert (y >= 0).all()


def test_mlp_forward_var_matches_predict(rng):
    net = make_net(rng)
    x = rng.standard_normal((4, 5))
    leaves = net.make_leaves()
    out = net.forward_var(x, leaves)
    assert np.allclose(out.value, net.predict(x))


def test_mlp_clone_and_set_parameters(rng):
    net = make_net(rng)
    other = Mlp(net.in_dim, net.layers, parameters=net.parameters)
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

    leaves = net.make_leaves()
    pred = net.forward_var(x, leaves)
    loss = -ad.mean_all(ad.mul(ad.Var(target), ad.log(ad.clamp_min(pred, 1e-12)))) * 2.0
    ad.backward(loss)
    grad = net.grad_from_leaves(leaves)

    def scalar(params):
        probe = Mlp(net.in_dim, net.layers, parameters=params)
        pred = probe.predict(x)
        return float(-np.mean(target * np.log(np.maximum(pred, 1e-12))) * 2.0)

    fd = finite_difference(scalar, net.parameters.copy())
    assert relative_error(grad, fd) < 1e-6
