"""Fidelity, sensitivity, sanity, timing, brute-force oracle and MI."""

import numpy as np
import pytest

from meed.core import ConfigError, Mlp, SelectionSet, ShapeError, TrainConfig, named_rng
from meed.data import (Dataset, MlpModel, SyntheticSpec, generate_synthetic, split_dataset,
                       train_given_model)
from meed.metrics import (SEN_N_PERTURB, MetricsReport, default_sen_radius,
                          evaluate_explainer, explainer_masks, fidelity_selected_approx,
                          fidelity_selected_model, fidelity_unselected_approx,
                          fidelity_unselected_model, mask_cosine, permuted_labels,
                          require_rows, sanity_tests, score_set, sensitivity,
                          time_per_sample)
from meed.trainer import train
from tests.helpers import brute_force_best_subset, mi_estimate


def test_report_serialize_parse_round_trip():
    report = MetricsReport(fs_m=98.5, fu_m=52.25, fs_a=91.0, fu_a=50.0,
                           sen=0.125, sanity_model=12.5, sanity_data=20.0,
                           tps=0.0005, k=4, n_eval=100)
    text = report.serialize()
    again = MetricsReport.parse(text)
    assert again.fs_m == pytest.approx(report.fs_m, abs=0.01)
    assert again.fu_a == pytest.approx(report.fu_a, abs=0.01)
    assert again.k == 4 and again.n_eval == 100
    for key in ("FS-M", "FU-M", "FS-A", "FU-A", "SEN", "TPS"):
        assert key in text


def test_report_parse_rejects_a_line_without_equals():
    text = MetricsReport(fs_m=1.0, fu_m=1.0, fs_a=1.0, fu_a=1.0, sen=1.0, sanity_model=1.0,
                         sanity_data=1.0, tps=1.0, k=1, n_eval=1).serialize()
    with pytest.raises(ConfigError, match="'garbage'"):
        MetricsReport.parse("garbage")
    with pytest.raises(ConfigError, match="'FS-M 1.00'"):
        MetricsReport.parse(text.replace("FS-M=", "FS-M "))


def test_report_serializes_to_the_documented_lines():
    """The text `meed evaluate` writes, one `KEY=value` line per field."""
    report = MetricsReport(fs_m=98.125, fu_m=52.255, fs_a=91.0, fu_a=50.0, sen=0.125,
                           sanity_model=12.5, sanity_data=-1.0, tps=0.000123456789, k=4,
                           n_eval=100)
    assert report.serialize() == ("FS-M=98.12\nFU-M=52.26\nFS-A=91.00\nFU-A=50.00\nSEN=0.12\n"
                                  "SANITY-MODEL=12.50\nSANITY-DATA=-1.00\nTPS=0.000123456789\n"
                                  "K=4\nN-EVAL=100\n")


def test_mask_cosine_bounds(rng):
    masks = (rng.random((10, 6)) < 0.5).astype(float)
    masks[masks.sum(axis=1) == 0, 0] = 1.0
    assert mask_cosine(masks, masks) == pytest.approx(100.0)
    flipped = 1.0 - masks
    assert mask_cosine(masks, flipped) < 20.0


def test_random_mask_cosine_expectation():
    rng = np.random.default_rng(1)
    d, k, n = 20, 5, 4000
    a = np.zeros((n, d))
    b = np.zeros((n, d))
    for i in range(n):
        a[i, rng.choice(d, k, replace=False)] = 1.0
        b[i, rng.choice(d, k, replace=False)] = 1.0
    # overlap of two uniform k-subsets has mean k^2/d, so cosine ~ 100k/d
    assert mask_cosine(a, b) == pytest.approx(100.0 * k / d, abs=2.0)


@pytest.fixture(scope="module")
def trained_run():
    spec = SyntheticSpec(d=8, true_subset=(0, 1), n=1600, noise_std=0.1,
                         kind="sparse-logit", seed=4)
    ds, subset = generate_synthetic(spec)
    tr, va, te = split_dataset(ds)
    model = train_given_model(tr, hidden=(16,), seed=0, epochs=15)
    feats = Dataset(ids=list(tr.ids), X=tr.X)
    config = TrainConfig(k=2, epochs=10, seed=1, batch_size=32)
    explainer, _, _ = train(feats, model, config, explainer_hidden=(16,),
                            approx_hidden=(16,))
    feats_te = Dataset(ids=list(te.ids), X=te.X)
    return explainer, model, feats, feats_te


def test_fidelity_selected_beats_unselected(trained_run):
    explainer, model, _, te = trained_run
    y = model.evaluate(te.X)
    masks = explainer_masks(explainer, te.X, y, 2)
    fs = fidelity_selected_model(model, te.X, y, masks)
    fu = fidelity_unselected_model(model, te.X, y, masks)
    assert 0.0 <= fu <= 100.0 and 0.0 <= fs <= 100.0
    assert fs > fu


def test_full_mask_has_perfect_selected_fidelity(trained_run):
    explainer, model, _, te = trained_run
    y = model.evaluate(te.X)
    masks = explainer_masks(explainer, te.X, y, te.d)
    assert fidelity_selected_model(model, te.X, y, masks) == pytest.approx(100.0)


def test_sensitivity_nonnegative_and_radius_default(trained_run):
    explainer, model, _, te = trained_run
    assert default_sen_radius(te.X) > 0
    z = explainer.score(te.X, model.evaluate(te.X))
    sen = sensitivity(explainer, model, te.X, z, named_rng(0, "perturb"))
    assert sen >= 0.0


def test_sanity_self_comparison_is_100(trained_run):
    explainer, model, _, te = trained_run
    y = model.evaluate(te.X)
    masks = explainer_masks(explainer, te.X, y, 2)
    assert mask_cosine(masks, masks) == pytest.approx(100.0)


def test_sanity_model_randomization_runs(trained_run):
    explainer, model, _, te = trained_run
    masks = explainer_masks(explainer, te.X, model.evaluate(te.X), 2)
    score = sanity_tests(explainer, model, te.X, masks, 2, named_rng(0, "model"))
    assert 0.0 <= score <= 100.0


def test_sanity_data_randomization_needs_true_labels(trained_run):
    """Refused before the label permutation is drawn, so rng is untouched."""
    _, _, feats, _ = trained_run
    rng = named_rng(0, "model")
    before = rng.bit_generator.state
    with pytest.raises(ConfigError, match="permutes true labels"):
        permuted_labels(feats, rng)
    assert rng.bit_generator.state == before


def test_permuted_labels_permutes_only_the_labels():
    ds, _ = generate_synthetic(SyntheticSpec(d=4, true_subset=(0,), n=50, kind="sparse-logit", seed=2))
    shuffled = permuted_labels(ds, named_rng(0, "model"))
    assert np.array_equal(shuffled.X, ds.X) and list(shuffled.ids) == list(ds.ids)
    assert np.array_equal(np.sort(shuffled.y_true), np.sort(ds.y_true))
    assert not np.array_equal(shuffled.y_true, ds.y_true)


def test_time_per_sample_positive(trained_run):
    explainer, model, _, te = trained_run
    assert time_per_sample(explainer, model, te.X, 2) > 0.0


def test_time_per_sample_rejects_an_empty_set(trained_run):
    explainer, model, _, te = trained_run
    with pytest.raises(ConfigError, match="the evaluation set is empty"):
        time_per_sample(explainer, model, te.X[:0], 2)


class RowsModel:
    """A black box that answers every input, a single row included, with
    (n, c) rows, as a model applying np.atleast_2d does."""

    def __init__(self, model):
        self.model = model

    def evaluate(self, x):
        return self.model.evaluate(np.atleast_2d(x))

    def randomize(self, rng):
        self.model.randomize(rng)


def test_evaluate_explainer_accepts_a_model_that_answers_rows(trained_run):
    explainer, model, feats, te = trained_run
    report = evaluate_explainer(explainer, RowsModel(model), feats, te, 2, retrain_budget=2)
    assert report.tps > 0.0


def test_evaluate_explainer_produces_full_report(trained_run):
    explainer, model, feats, te = trained_run
    report = evaluate_explainer(explainer, model, feats, te, k=2,
                                retrain_budget=5, hidden=(16,), seed=0)
    for val in (report.fs_m, report.fu_m, report.fs_a, report.fu_a,
                report.sanity_model):
        assert 0.0 <= val <= 100.0
    assert report.tps > 0.0
    assert report.sanity_data == -1.0
    assert report.k == 2 and report.n_eval == len(te)


def test_evaluate_explainer_fidelity_approx_equals_the_single_side_functions(trained_run):
    """Every field of the report but TPS equals its public metric computed on
    its own from the same arrays: each set's outputs, scores and masks."""
    explainer, model, feats, te = trained_run
    kwargs = dict(retrain_budget=3, hidden=(8,), seed=4)
    report = evaluate_explainer(explainer, model, feats, te, 2, **kwargs)
    y_tr, _, m_tr = score_set(explainer, model, feats, 2)
    y, z, masks = score_set(explainer, model, te, 2)
    assert np.array_equal(masks, explainer_masks(explainer, te.X, model.evaluate(te.X), 2))
    train_arrays, eval_arrays = (feats.X, y_tr, m_tr), (te.X, y, masks)
    assert report.fs_a == fidelity_selected_approx(train_arrays, eval_arrays, **kwargs)
    assert report.fu_a == fidelity_unselected_approx(train_arrays, eval_arrays, **kwargs)
    assert report.fs_m == fidelity_selected_model(model, te.X, y, masks)
    assert report.fu_m == fidelity_unselected_model(model, te.X, y, masks)
    assert report.sen == sensitivity(explainer, model, te.X, z, named_rng(4, "perturb"))
    assert report.sanity_model == sanity_tests(explainer, model, te.X, masks, 2,
                                               named_rng(4, "sanity"))
    assert (report.sanity_data, report.k, report.n_eval) == (-1.0, 2, len(te))


def test_evaluate_explainer_scores_each_set_once(trained_run, monkeypatch):
    """Each set goes through `explainer.score` once; the other full-set calls
    are SEN's perturbed inputs and the randomized model's outputs. TPS's
    one-row calls are not counted."""
    explainer, model, feats, te = trained_run
    calls = []
    score = explainer.score

    def counting(x, y):
        if len(x) > 1:
            calls.append((x, y))
        return score(x, y)

    monkeypatch.setattr(explainer, "score", counting)
    evaluate_explainer(explainer, model, feats, te, 2, retrain_budget=1, hidden=(8,))

    def count(x, y=None):
        return sum(np.array_equal(cx, x) and (y is None or np.array_equal(cy, y))
                   for cx, cy in calls)

    assert count(feats.X) == 1
    assert count(te.X, model.evaluate(te.X)) == 1
    assert count(te.X) == 2  # the other one: against the randomized model
    assert len(calls) == 3 + SEN_N_PERTURB


@pytest.mark.parametrize("empty", ["training", "evaluation"])
def test_evaluate_and_sanity_reject_an_empty_set(trained_run, empty):
    explainer, model, feats, te = trained_run
    none = Dataset(ids=[], X=np.zeros((0, te.d)))
    tr, ev = (none, te) if empty == "training" else (feats, none)
    with pytest.raises(ConfigError, match=f"the {empty} set is empty"):
        evaluate_explainer(explainer, model, tr, ev, 2, retrain_budget=1)
    with pytest.raises(ConfigError, match=f"the {empty} set is empty"):
        require_rows(evaluation=ev, training=tr)  # as `meed sanity` checks its sets


class FiniteInputsModel(RowsModel):
    """A black box that counts its calls; a non-finite feature reaching it
    fails the test."""

    def __init__(self, model):
        super().__init__(model)
        self.calls = 0

    def evaluate(self, x):
        assert np.all(np.isfinite(x)), "a non-finite feature reached the model"
        self.calls += 1
        return super().evaluate(x)


@pytest.mark.parametrize("bad_set, value", [("training", np.nan), ("evaluation", np.nan),
                                            ("training", np.inf)])
def test_evaluate_explainer_rejects_non_finite_features_before_the_model(trained_run, bad_set,
                                                                         value):
    """A non-finite feature in either set is the data's fault, as in train():
    ShapeError names its row and column before the model reads either set."""
    explainer, model, feats, te = trained_run
    sets = {"training": Dataset(ids=list(feats.ids), X=feats.X.copy()),
            "evaluation": Dataset(ids=list(te.ids), X=te.X.copy())}
    sets[bad_set].X[3, 1] = value
    spy = FiniteInputsModel(model)
    with pytest.raises(ShapeError, match="features must be finite.*row 3 column 1"):
        evaluate_explainer(explainer, spy, sets["training"], sets["evaluation"], 2,
                           retrain_budget=1)
    assert spy.calls == 0


def test_evaluate_explainer_leaves_caller_datasets_untouched(trained_run):
    """One dataset scored against two models gives each model's own report."""
    explainer, model, feats, te = trained_run
    other = MlpModel(Mlp(model.net.in_dim, model.net.widths, parameters=model.net.parameters))
    other.randomize(named_rng(5, "model"))

    def fresh():
        return Dataset(ids=list(feats.ids), X=feats.X), Dataset(ids=list(te.ids), X=te.X)

    kwargs = dict(k=2, retrain_budget=2, hidden=(8,), seed=0)
    reused_tr, reused_te = fresh()
    evaluate_explainer(explainer, model, reused_tr, reused_te, **kwargs)
    reused = evaluate_explainer(explainer, other, reused_tr, reused_te, **kwargs)
    expected = evaluate_explainer(explainer, other, *fresh(), **kwargs)
    reused.tps = expected.tps = 0.0
    assert reused == expected
    assert reused_tr.Y is None and reused_te.Y is None


def test_brute_force_recovers_strong_pair():
    rng = np.random.default_rng(3)
    n, d = 4000, 5
    x = rng.integers(0, 2, size=(n, d)).astype(float)
    labels = ((x[:, 1] + x[:, 3]) >= 1).astype(int)
    best = brute_force_best_subset(x, labels, k=2)
    assert best.indices == (1, 3)
    assert isinstance(best, SelectionSet)


def test_brute_force_xor_pair():
    rng = np.random.default_rng(0)
    x = rng.integers(0, 2, size=(3000, 4)).astype(float)
    labels = (x[:, 0].astype(int) ^ x[:, 1].astype(int))
    best = brute_force_best_subset(x, labels, k=2)
    assert best.indices == (0, 1)


def test_brute_force_tie_prefers_lexicographic_smallest():
    x = np.zeros((50, 3))  # constant features: every subset ties exactly
    labels = np.array([0, 1] * 25)
    best = brute_force_best_subset(x, labels, k=2)
    assert best.indices == (0, 1)


def test_brute_force_rejects_large_d():
    with pytest.raises(ValueError):
        brute_force_best_subset(np.zeros((10, 13)), np.zeros(10, dtype=int), k=2)


def test_mi_estimate_known_values():
    a = [0, 0, 1, 1] * 500
    b_same = list(a)
    b_indep = [0, 1] * 1000
    assert mi_estimate(a, b_same) == pytest.approx(np.log(2), abs=1e-6)
    assert mi_estimate(a, b_indep) == pytest.approx(0.0, abs=1e-6)
    assert mi_estimate(a, b_same) >= 0.0
