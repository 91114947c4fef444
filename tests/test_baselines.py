"""Gradient baselines, prior scores and ablation configurations."""

import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meed.core import BlackBoxModel, Mlp, ShapeError, TrainConfig
from meed.baselines import (ABLATION_VARIANTS, FD_MAX_COPIES, FD_STEP, _model_gradients,
                            ablation_config, prior_scores)
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
    net = Mlp(d, (4, c), rng=np.random.default_rng(seed))
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


@pytest.mark.parametrize("d, n, calls", [(5, 207, [1020, 1020, 30]), (7, 73, [1022]),
                                         (512, 3, [1024] * 3), (513, 2, [1026] * 2)],
                         ids=["d5-three-blocks", "d7-one-block", "d512-row-a-call",
                              "d513-row-a-call"])
def test_black_box_prior_makes_one_evaluate_call_per_block(d, n, calls):
    """Rows of copies per `evaluate` call at FD_MAX_COPIES = 1024: full blocks of
    1024 // 2d rows, then the rest; one row per call once 2d reaches 1024."""
    assert FD_MAX_COPIES == 1024
    model = CountingBlackBox(np.random.default_rng(4).standard_normal((2, d)))
    x = np.random.default_rng(5).standard_normal((n, d))
    y = SoftmaxLinear(model.w).evaluate(x)
    compute_prior_scores(x, y, model, "gradient-times-input")
    assert model.evaluate_rows == calls


def test_exact_prior_makes_one_gradient_call():
    model = CountingMlpModel(positive_relu_model().net)
    x = np.random.default_rng(6).uniform(0.2, 1.5, (9, 5))
    y = MlpModel(model.net).evaluate(x)
    compute_prior_scores(x, y, model, "grad")
    assert model.calls == {"evaluate": 0, "gradient": 1}


def test_batched_mlp_gradient_rows_match_single_row_calls():
    net = Mlp(7, (16, 16, 3), rng=np.random.default_rng(7))
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
    """Returns NaN for the copy of each of `bad_rows` shifted by +FD_STEP along feature 0."""

    def __init__(self, w, *bad_rows):
        super().__init__(w)
        self.bad = np.array(bad_rows, dtype=np.float64)
        self.bad[:, 0] += FD_STEP

    def evaluate(self, x):
        out = super().evaluate(x)
        x = np.atleast_2d(x)
        out[np.any(np.all(x[:, None] == self.bad, axis=2), axis=1)] = np.nan
        return out


@pytest.mark.parametrize("method", METHODS)
def test_non_finite_output_on_perturbed_row_raises_shape_error(method):
    x = np.random.default_rng(9).standard_normal((4, 3))
    model = NanOnPerturbedRow([[1.0, -2.0, 0.5], [-1.0, 2.0, -0.5]], x[2])
    classes = np.argmax(model.evaluate(x), axis=1)
    with pytest.raises(ShapeError, match="row 2"):
        prior_scores(model, x, classes, method)


def rows_per_call(d):
    return max(1, FD_MAX_COPIES // (2 * d))


BLOCK_3 = rows_per_call(3)  # rows per `evaluate` call at d=3


@pytest.mark.parametrize("bad", [(BLOCK_3 - 1,), (BLOCK_3,), (BLOCK_3 + 30,), (2 * BLOCK_3 + 4,),
                                 (2 * BLOCK_3 + 1, BLOCK_3 + 7), (BLOCK_3 + 7, BLOCK_3 + 2)])
def test_non_finite_output_in_a_later_block_names_the_first_bad_row(bad):
    x = np.random.default_rng(11).standard_normal((2 * BLOCK_3 + 5, 3))
    model = NanOnPerturbedRow([[1.0, -2.0, 0.5], [-1.0, 2.0, -0.5]], *x[list(bad)])
    classes = np.argmax(SoftmaxLinear(model.w).evaluate(x), axis=1)
    with pytest.raises(ShapeError, match=f"perturbed copies of row {min(bad)} must"):
        prior_scores(model, x, classes, "grad")


@pytest.mark.parametrize("wrong", ["one-short", "one-extra", "flat", "short-last-block"])
def test_wrong_output_row_count_raises_shape_error(wrong):
    """An `evaluate` answering the wrong number of rows fails with ShapeError
    naming the block's rows, not with an error from reshaping or indexing."""

    class WrongRows(SoftmaxLinear):
        def evaluate(self, x):
            out = super().evaluate(x)
            if wrong == "one-extra":
                return np.vstack([out, out[:1]])
            if wrong == "flat":
                return out.ravel()
            if wrong == "one-short" or len(out) < 6 * BLOCK_3:  # the last block is short
                return out[:-1]
            return out

    model = WrongRows([[1.0, -2.0, 0.5], [-1.0, 2.0, -0.5]])
    x = np.random.default_rng(12).standard_normal((BLOCK_3 + 5, 3))
    first = BLOCK_3 if wrong == "short-last-block" else 0
    with pytest.raises(ShapeError, match=f"perturbed copies of rows {first} to "):
        prior_scores(model, x, np.zeros(len(x), dtype=int), "grad")


# ---------------------------------------------------------------------------
# Blocks of rows against the one-row-per-call loop
# ---------------------------------------------------------------------------

class RowwiseModel(BlackBoxModel):
    """Softmax over c logits built from elementwise ops and row sums only, so
    each output row is computed the same in a batch of any size."""

    def __init__(self, d, c, seed=0):
        rng = np.random.default_rng(seed)
        self.a, self.w = rng.uniform(0.5, 2.0, d), rng.standard_normal((c, d))

    def evaluate(self, x):
        h = np.tanh(np.atleast_2d(x) * self.a)
        logits = np.stack([(h * w).sum(axis=1) for w in self.w], axis=1)
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)

    def randomize(self, rng):
        pass


def per_row_gradients(model, x, class_index):
    """Central differences with one `evaluate` call per row."""
    d = x.shape[1]
    steps = np.concatenate([np.eye(d), -np.eye(d)]) * FD_STEP
    grads = np.empty_like(x)
    for i, row in enumerate(x):
        picked = model.evaluate(row + steps)[:, class_index[i]]
        grads[i] = (picked[:d] - picked[d:]) / (2 * FD_STEP)
    return grads


@pytest.mark.parametrize("n", [1, BLOCK_3 - 1, BLOCK_3, BLOCK_3 + 1, 2 * BLOCK_3 + 3])
def test_blocked_gradients_equal_the_per_row_loop_bit_for_bit(n):
    model = RowwiseModel(3, 4)
    rng = np.random.default_rng(13)
    x = rng.standard_normal((n, 3))
    classes = rng.integers(0, 4, n)
    assert np.array_equal(_model_gradients(model, x, classes), per_row_gradients(model, x, classes))


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_blocked_gradients_equal_the_per_row_loop_property(data):
    d = data.draw(st.integers(1, 40), label="d")
    c = data.draw(st.integers(1, 5), label="c")
    n = data.draw(st.integers(1, 2 * rows_per_call(d) + 3), label="n")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    model = RowwiseModel(d, c, seed)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    classes = rng.integers(0, c, n)
    assert np.array_equal(_model_gradients(model, x, classes), per_row_gradients(model, x, classes))


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
