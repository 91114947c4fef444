"""Explainer network, output-feedback fusion and prior-knowledge fusion."""

import numpy as np
import pytest

from meed import autodiff as ad
from meed.core import ConfigError, ShapeError, TrainConfig
from meed.data import Dataset
from meed.explainer import ExplainerNet, fuse_prior_var, prior_constraint_loss_var
from meed.trainer import train
from tests.conftest import finite_difference, relative_error, weighted_sum


def fuse_prior(z, r, m):
    """Fused scores of one score row z (d,) and its prior r (d,)."""
    return fuse_prior_var(ad.Var(np.asarray(z)[None]), np.asarray(r)[None], m).value[0]


def prior_constraint_loss(z_tilde, z, m):
    return float(prior_constraint_loss_var(ad.Var(z_tilde), ad.Var(z), m)[1])


def test_scores_are_simplex(rng):
    net = ExplainerNet(d=7, c=3, hidden=(8,), rng=rng)
    x = rng.standard_normal((5, 7))
    y = rng.random((5, 3))
    y /= y.sum(axis=1, keepdims=True)
    z = net.score(x, y)
    assert z.shape == (5, 7)
    assert np.allclose(z.sum(axis=1), 1.0)
    assert (z >= 0).all()


def test_fusion_none_ignores_model_output(rng):
    net = ExplainerNet(d=5, c=2, hidden=(6,), use_output=False, rng=rng)
    x = rng.standard_normal((3, 5))
    y1 = np.tile([0.9, 0.1], (3, 1))
    y2 = np.tile([0.1, 0.9], (3, 1))
    assert np.allclose(net.score(x, y1), net.score(x, y2))


def test_fusion_raw_uses_model_output(rng):
    net = ExplainerNet(d=5, c=2, hidden=(6,), rng=rng)
    x = rng.standard_normal((3, 5))
    y1 = np.tile([0.9, 0.1], (3, 1))
    y2 = np.tile([0.1, 0.9], (3, 1))
    assert not np.allclose(net.score(x, y1), net.score(x, y2))


def test_unknown_fusion_rejected(rng):
    """`train(fusion=)` accepts only concat-raw, before the model is called."""
    class NoCalls:
        def evaluate(self, x):
            raise AssertionError("model called")

    ds = Dataset(ids=[str(i) for i in range(8)], X=rng.standard_normal((8, 5)))
    for fusion in ("concat-embedded", "none"):
        with pytest.raises(ConfigError, match=fusion):
            train(ds, NoCalls(), TrainConfig(k=2, epochs=1), fusion=fusion)


def test_score_rejects_mismatched_shapes(rng):
    net = ExplainerNet(d=5, c=2, hidden=(6,), rng=rng)
    with pytest.raises(ShapeError):
        net.score(np.zeros((2, 4)), np.tile([0.5, 0.5], (2, 1)))
    with pytest.raises(ShapeError):
        net.score(np.zeros((2, 5)), np.tile([0.3, 0.3, 0.4], (2, 1)))


@pytest.mark.parametrize("use_output", [True, False])
def test_score_rejects_mismatched_rows(rng, use_output):
    net = ExplainerNet(d=5, c=2, hidden=(6,), use_output=use_output, rng=rng)
    x, y = np.zeros((3, 5)), np.tile([0.5, 0.5], (2, 1))
    with pytest.raises(ShapeError, match="rows"):
        net.score(x, y)
    with pytest.raises(ShapeError, match="rows"):
        net.score_var(x, y, ad.Var(net.parameters))


def test_score_var_matches_score(rng):
    net = ExplainerNet(d=4, c=2, hidden=(5,), rng=rng)
    x = rng.standard_normal((3, 4))
    y = rng.random((3, 2))
    y /= y.sum(axis=1, keepdims=True)
    out = net.score_var(x, y, ad.Var(net.parameters))
    assert np.allclose(out.value, net.score(x, y))


def test_fuse_prior_at_epoch_zero_returns_prior():
    z = np.array([0.2, 0.8])
    r = np.array([0.9, 0.1])
    assert np.allclose(fuse_prior(z, r, m=0), r, atol=1e-12)


def test_fuse_prior_geometric_mean_value():
    fused = fuse_prior(np.array([0.5, 0.5]), np.array([0.9, 0.1]), m=1)
    assert np.allclose(fused, [0.75, 0.25], atol=1e-9)


def test_fuse_prior_decays_toward_explainer():
    z = np.array([0.5, 0.5])
    r = np.array([0.9, 0.1])
    gaps = [abs(fuse_prior(z, r, m)[0] - 0.5) for m in (0, 1, 5, 50)]
    assert gaps == sorted(gaps, reverse=True)
    assert gaps[-1] < 0.02


def test_prior_constraint_loss_halves_with_epoch():
    z_tilde = np.array([[0.75, 0.25]])
    z = np.array([[0.25, 0.75]])
    l0 = prior_constraint_loss(z_tilde, z, m=0)
    l1 = prior_constraint_loss(z_tilde, z, m=1)
    assert np.isclose(l1, l0 / 2.0)
    assert np.isclose(l0, 0.5)


def test_fuse_prior_var_gradient_matches_fd(rng):
    z = rng.random((2, 4)) + 0.1
    z /= z.sum(axis=1, keepdims=True)
    r = rng.random(4) + 0.1
    r /= r.sum()
    w = rng.standard_normal((2, 4))

    def build(leaf):
        fused = fuse_prior_var(leaf, r, m=2)
        return weighted_sum(fused, w)

    leaf = ad.Var(z.copy())
    ad.backward(build(leaf))
    fd = finite_difference(lambda q: build(ad.Var(q.reshape(2, 4))).value, z.ravel())
    assert relative_error(leaf.grad.ravel(), fd) < 1e-6


def test_prior_constraint_loss_var_matches_scalar(rng):
    z_tilde = rng.random((3, 4))
    z = rng.random((3, 4))
    got = prior_constraint_loss_var(ad.Var(z_tilde), ad.Var(z), m=3)[1]
    assert np.isclose(got, np.mean(np.abs(z_tilde - z)) / 4.0)

