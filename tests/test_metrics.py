"""Fidelity, sensitivity, sanity, timing, brute-force oracle and MI."""

import numpy as np
import pytest

from meed.core import Mlp, SelectionSet, TrainConfig, named_rng
from meed.data import (Dataset, MlpModel, SyntheticSpec, generate_synthetic, split_dataset,
                       train_given_model)
from meed.metrics import (MetricsReport, brute_force_best_subset,
                          default_sen_radius, evaluate_explainer,
                          explainer_masks, fidelity_selected_model,
                          fidelity_unselected_model, mask_cosine, mi_estimate,
                          sanity_tests, sensitivity, time_per_sample)
from meed.trainer import train


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
    return explainer, model, feats, feats_te, tr, config


def test_fidelity_selected_beats_unselected(trained_run):
    explainer, model, _, te, _, _ = trained_run
    fs = fidelity_selected_model(explainer, model, te, k=2)
    fu = fidelity_unselected_model(explainer, model, te, k=2)
    assert 0.0 <= fu <= 100.0 and 0.0 <= fs <= 100.0
    assert fs > fu


def test_full_mask_has_perfect_selected_fidelity(trained_run):
    explainer, model, _, te, _, _ = trained_run
    assert fidelity_selected_model(explainer, model, te, k=te.d) == pytest.approx(100.0)


def test_sensitivity_nonnegative_and_radius_default(trained_run):
    explainer, model, _, te, _, _ = trained_run
    assert default_sen_radius(te) > 0
    sen = sensitivity(explainer, model, te, rng=named_rng(0, "perturb"))
    assert sen >= 0.0


def test_sanity_self_comparison_is_100(trained_run):
    explainer, model, _, te, _, _ = trained_run
    y = model.evaluate(te.X)
    masks = explainer_masks(explainer, te.X, y, 2)
    assert mask_cosine(masks, masks) == pytest.approx(100.0)


def test_sanity_model_randomization_runs(trained_run):
    explainer, model, _, te, _, _ = trained_run
    score = sanity_tests(explainer, model, te, 2, mode="model-randomization",
                         rng=named_rng(0, "model"))
    assert 0.0 <= score <= 100.0


def test_sanity_data_randomization_retrains(trained_run):
    explainer, model, feats, te, tr, config = trained_run
    quick = TrainConfig(k=2, epochs=2, seed=1, batch_size=32)

    def builder(shuffled):
        return train_given_model(shuffled, hidden=(16,), seed=0, epochs=3)

    score = sanity_tests(explainer, model, te, 2, mode="data-randomization",
                         rng=named_rng(0, "model"), train_set=tr, config=quick,
                         train_kwargs={"explainer_hidden": (16,), "approx_hidden": (16,)},
                         model_builder=builder)
    assert 0.0 <= score <= 100.0


def test_sanity_unknown_mode_rejected(trained_run):
    explainer, model, _, te, _, _ = trained_run
    with pytest.raises(ValueError):
        sanity_tests(explainer, model, te, 2, mode="weights-randomization")


def test_time_per_sample_positive(trained_run):
    explainer, model, _, te, _, _ = trained_run
    assert time_per_sample(explainer, model, te, n_samples=20, k=2) > 0.0


def test_evaluate_explainer_produces_full_report(trained_run):
    explainer, model, feats, te, _, _ = trained_run
    report = evaluate_explainer(explainer, model, feats, te, k=2,
                                retrain_budget=5, hidden=(16,), seed=0)
    for val in (report.fs_m, report.fu_m, report.fs_a, report.fu_a,
                report.sanity_model):
        assert 0.0 <= val <= 100.0
    assert report.tps > 0.0
    assert report.sanity_data == -1.0
    assert report.k == 2 and report.n_eval == len(te)


def test_evaluate_explainer_leaves_caller_datasets_untouched(trained_run):
    """One dataset scored against two models gives each model's own report."""
    explainer, model, feats, te, _, _ = trained_run
    other = MlpModel(Mlp(model.net.in_dim, model.net.layers, parameters=model.net.parameters))
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
