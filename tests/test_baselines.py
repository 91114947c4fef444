"""Gradient baselines, prior scores and ablation configurations."""

import logging

import numpy as np
import pytest

from meed.core import BlackBoxModel, Mlp, ShapeError, TrainConfig
from meed.baselines import ABLATION_VARIANTS, FD_STEP, ablation_config, prior_scores
from meed.data import MlpModel
from meed.trainer import compute_prior_scores
from tests.conftest import finite_difference

METHODS = ("grad", "gradient-times-input")


class SoftmaxLinear(BlackBoxModel):
    """y = softmax(W x); closed-form gradients for checking."""

    def __init__(self, w):
        self.w = np.asarray(w, dtype=np.float64)

    def evaluate(self, x):
        x = np.atleast_2d(x)
        logits = x @ self.w.T
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)

    def randomize(self, rng):
        self.w = rng.standard_normal(self.w.shape)


def analytic_gradients(model, x, classes):
    """Rows d y[i, c_i] / d x_i = y[i, c_i] * (w_{c_i} - sum_j y[i, j] w_j)."""
    x = np.atleast_2d(x)
    y = model.evaluate(x)
    rows = np.arange(len(x))
    return y[rows, classes][:, None] * (model.w[classes] - y @ model.w)


def analytic_gradient(model, x, cls):
    return analytic_gradients(model, x, np.array([cls]))[0]


class WithGradient(SoftmaxLinear):
    """SoftmaxLinear exposing the batched closed-form `gradient`."""

    def gradient(self, x, class_index):
        return analytic_gradients(self, x, np.asarray(class_index))


def row_scores(model, x, method="grad", class_index=None):
    """Prior scores of one row x (d,) for its class, by default the model's argmax."""
    if class_index is None:
        class_index = int(np.argmax(model.evaluate(x)))
    return prior_scores(model, x[None], [class_index], method)[0]


def test_grad_scores_match_analytic_softmax():
    w = np.array([[1.0, -2.0, 0.5], [-1.0, 2.0, -0.5]])
    model = SoftmaxLinear(w)
    x = np.array([0.3, -0.7, 1.2])
    cls = int(np.argmax(model.evaluate(x)[0]))
    expected = np.abs(analytic_gradient(model, x, cls))
    expected /= expected.sum()
    assert np.allclose(row_scores(model, x), expected, atol=1e-3)


def test_grad_scores_use_exact_gradient_when_available():
    w = np.array([[1.0, -2.0, 0.5], [-1.0, 2.0, -0.5]])
    fd_scores = row_scores(SoftmaxLinear(w), np.array([0.3, -0.7, 1.2]))
    exact_scores = row_scores(WithGradient(w), np.array([0.3, -0.7, 1.2]))
    assert np.allclose(fd_scores, exact_scores, atol=1e-4)


def test_grad_scores_explicit_class_index():
    w = np.array([[1.0, 0.0], [0.0, 1.0]])
    model = SoftmaxLinear(w)
    x = np.array([2.0, -2.0])
    s0 = row_scores(model, x, class_index=0)
    s1 = row_scores(model, x, class_index=1)
    assert np.allclose(s0.sum(), 1.0) and np.allclose(s1.sum(), 1.0)


def test_zero_gradient_falls_back_to_uniform():
    class Constant(BlackBoxModel):
        def evaluate(self, x):
            x = np.atleast_2d(x)
            return np.tile([0.5, 0.5], (len(x), 1))

        def randomize(self, rng):
            pass

    scores = row_scores(Constant(), np.array([1.0, 2.0, 3.0, 4.0]))
    assert np.allclose(scores, 0.25)


def test_gradient_times_input_zero_input_uniform():
    w = np.array([[1.0, -2.0], [-1.0, 2.0]])
    scores = row_scores(SoftmaxLinear(w), np.zeros(2), "gradient-times-input")
    assert np.allclose(scores, 0.5)


def test_gradient_times_input_weights_by_feature_value():
    w = np.array([[1.0, 1.0], [-1.0, -1.0]])
    model = SoftmaxLinear(w)
    x = np.array([2.0, 0.001])
    scores = row_scores(model, x, "gradient-times-input")
    assert scores[0] > scores[1]


def test_ablation_variants_cover_table():
    base = TrainConfig(k=3, epochs=5, seed=0, lambda_u=0.7, lambda_e=0.01,
                       prior_method="grad")
    assert set(ABLATION_VARIANTS) == {"full", "w/o-Output", "w/o-AIL", "w/o-Prior"}

    full = ablation_config("full", base)
    assert full == base

    no_out = ablation_config("w/o-Output", base)
    assert not no_out.use_output_feedback
    assert no_out.lambda_u == base.lambda_u

    no_ail = ablation_config("w/o-AIL", base)
    assert no_ail.lambda_u == 0.0
    assert no_ail.use_output_feedback

    no_prior = ablation_config("w/o-Prior", base)
    assert no_prior.prior_method == "none"
    assert no_prior.lambda_e == 0.0

    with pytest.raises(ValueError):
        ablation_config("w/o-Gumbel", base)


# ---------------------------------------------------------------------------
# Batched prior scores against independent references
# ---------------------------------------------------------------------------

def fallback_warnings(caplog) -> int:
    return sum("falling back to uniform" in r.getMessage() for r in caplog.records
               if r.name == "meed.baselines")


def reference_scores(grads, x, method):
    raw = np.abs(x * grads) if method == "gradient-times-input" else np.abs(grads)
    return raw / raw.sum(axis=1, keepdims=True)


def positive_relu_model(d=5, c=3, seed=0):
    """MlpModel whose first layer has positive weights and zero biases, so a
    row of nonpositive features leaves every relu off: the output is constant
    around it and its input gradient is exactly zero."""
    net = Mlp(d, [("dense", 4), ("relu",), ("dense", c), ("softmax",)],
              rng=np.random.default_rng(seed))
    params = net.parameters.copy()
    params[:d * 4] = np.abs(params[:d * 4]) + 0.1
    net.set_parameters(params)
    return MlpModel(net)


@pytest.mark.parametrize("method", METHODS)
def test_batched_prior_matches_finite_differences_on_mlp(method, caplog):
    model = positive_relu_model()
    rng = np.random.default_rng(1)
    x = np.vstack([rng.uniform(0.2, 1.5, (6, 5)), np.zeros(5), -rng.uniform(0.2, 1.5, 5)])
    classes = rng.integers(0, 3, len(x))
    with caplog.at_level(logging.WARNING, logger="meed.baselines"):
        scores = prior_scores(model, x, classes, method)
    fd = np.stack([finite_difference(lambda v, c=c: model.evaluate(v)[c], xi)
                   for xi, c in zip(x, classes)])
    assert np.allclose(scores[:6], reference_scores(fd[:6], x[:6], method), atol=1e-7)
    assert np.array_equal(scores[6:], np.full((2, 5), 0.2))
    assert fallback_warnings(caplog) == 2


@pytest.mark.parametrize("method", METHODS)
def test_batched_prior_matches_closed_form_without_gradient(method, caplog):
    model = SoftmaxLinear([[1.0, -2.0, 0.5], [-1.0, 2.0, -0.5], [0.3, 0.3, -1.0]])
    rng = np.random.default_rng(2)
    # Rows: random inputs, a zero input, and an input so far out that the
    # softmax saturates to an exact one-hot, flat under every perturbation.
    x = np.vstack([rng.standard_normal((6, 3)), np.zeros(3), [600.0, -600.0, 0.0]])
    classes = np.argmax(model.evaluate(x), axis=1)
    with caplog.at_level(logging.WARNING, logger="meed.baselines"):
        scores = prior_scores(model, x, classes, method)
    exact = analytic_gradients(model, x, classes)
    assert not np.any(exact[-1])
    checked = 6 if method == "gradient-times-input" else 7
    assert np.allclose(scores[:checked], reference_scores(exact[:checked], x[:checked], method), atol=1e-6)
    assert np.array_equal(scores[checked:], np.full((len(x) - checked, 3), 1 / 3))
    assert fallback_warnings(caplog) == len(x) - checked


@pytest.mark.parametrize("method", METHODS)
def test_single_row_scores_are_rows_of_the_batch(method):
    model = SoftmaxLinear([[1.0, -2.0, 0.5], [-1.0, 2.0, -0.5]])
    x = np.random.default_rng(3).standard_normal((4, 3))
    classes = np.array([0, 1, 1, 0])
    batch = prior_scores(model, x, classes, method)
    for xi, c, row in zip(x, classes, batch):
        assert np.array_equal(row_scores(model, xi, method, class_index=int(c)), row)


# ---------------------------------------------------------------------------
# Model calls per prior row
# ---------------------------------------------------------------------------

class CountingBlackBox(SoftmaxLinear):
    def __init__(self, w):
        super().__init__(w)
        self.evaluate_rows = []

    def evaluate(self, x):
        self.evaluate_rows.append(len(np.atleast_2d(x)))
        return super().evaluate(x)


class CountingMlpModel(MlpModel):
    def __init__(self, net):
        super().__init__(net)
        self.calls = {"evaluate": 0, "gradient": 0}

    def evaluate(self, x):
        self.calls["evaluate"] += 1
        return super().evaluate(x)

    def gradient(self, x, class_index):
        self.calls["gradient"] += 1
        return super().gradient(x, class_index)


def test_black_box_prior_makes_one_evaluate_call_per_row():
    model = CountingBlackBox(np.random.default_rng(4).standard_normal((2, 5)))
    x = np.random.default_rng(5).standard_normal((7, 5))
    y = SoftmaxLinear(model.w).evaluate(x)
    compute_prior_scores(x, y, model, "gradient-times-input")
    assert model.evaluate_rows == [2 * 5] * 7


def test_exact_prior_makes_one_gradient_call():
    model = CountingMlpModel(positive_relu_model().net)
    x = np.random.default_rng(6).uniform(0.2, 1.5, (9, 5))
    y = MlpModel(model.net).evaluate(x)
    compute_prior_scores(x, y, model, "grad")
    assert model.calls == {"evaluate": 0, "gradient": 1}


def test_batched_mlp_gradient_rows_match_single_row_calls():
    net = Mlp(7, [("dense", 16), ("relu",), ("dense", 16), ("relu",), ("dense", 3),
                  ("softmax",)], rng=np.random.default_rng(7))
    model = MlpModel(net)
    rng = np.random.default_rng(8)
    x = rng.standard_normal((11, 7))
    classes = rng.integers(0, 3, 11)
    batch = model.gradient(x, classes)
    assert batch.shape == (11, 7)
    for xi, c, row in zip(x, classes, batch):
        assert np.allclose(model.gradient(xi[None], [c])[0], row, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# Model outputs on perturbed rows
# ---------------------------------------------------------------------------

class NanOnPerturbedRow(SoftmaxLinear):
    """Returns NaN for the copy of `bad_row` shifted by +FD_STEP along feature 0."""

    def __init__(self, w, bad_row):
        super().__init__(w)
        self.bad = np.asarray(bad_row, dtype=np.float64).copy()
        self.bad[0] += FD_STEP

    def evaluate(self, x):
        out = super().evaluate(x)
        out[np.all(np.atleast_2d(x) == self.bad, axis=1)] = np.nan
        return out


@pytest.mark.parametrize("method", METHODS)
def test_non_finite_output_on_perturbed_row_raises_shape_error(method):
    x = np.random.default_rng(9).standard_normal((4, 3))
    model = NanOnPerturbedRow([[1.0, -2.0, 0.5], [-1.0, 2.0, -0.5]], x[2])
    classes = np.argmax(model.evaluate(x), axis=1)
    with pytest.raises(ShapeError, match="row 2"):
        prior_scores(model, x, classes, method)


@pytest.mark.parametrize("bad", ["single-row", "nan"])
def test_bad_model_gradient_raises_shape_error(bad):
    """A `gradient` that keeps the single-row contract, or answers NaN."""

    class BadGradient(SoftmaxLinear):
        def gradient(self, x, class_index):
            grads = analytic_gradients(self, x, np.asarray(class_index))
            if bad == "single-row":
                return grads[0]
            grads[1, 0] = np.nan
            return grads

    model = BadGradient([[1.0, -2.0, 0.5], [-1.0, 2.0, -0.5]])
    x = np.random.default_rng(10).standard_normal((3, 3))
    with pytest.raises(ShapeError, match="model gradient"):
        prior_scores(model, x, [0, 1, 0], "grad")
