"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line with its measured values once every
assertion has held; a failed assertion surfaces as a normal pytest failure.
Criteria that need the standard handwritten-digit IDX files skip with a
reason when those files are absent (no network access in this environment);
point MEED_MNIST_DIR at a directory containing the four files to enable them.
"""

import itertools
import os

import numpy as np
import pytest

from meed import autodiff as ad
from meed.core import TrainConfig, named_rng
from meed.approximators import make_pair, sw_directions
from meed.baselines import ablation_config
from meed.data import (Dataset, SyntheticSpec, generate_synthetic,
                       load_idx_images, model_accuracy, split_dataset,
                       train_given_model)
from meed.explainer import ExplainerNet, fuse_prior_var, prior_constraint_loss_var
from meed.metrics import (brute_force_best_subset, evaluate_explainer,
                          explainer_masks, fidelity_selected_model,
                          fidelity_unselected_approx, mask_cosine, mi_estimate)
from meed.sampler import relaxed_topk_var, sample_gumbel_batch
from meed.trainer import explainer_objective, load_checkpoint, save_checkpoint, train
from tests.conftest import finite_difference, mnist_dir, relative_error


def report(n, text):
    print(f"\nACCEPTANCE CRITERION {n}: PASS -- {text}")


# ---------------------------------------------------------------------------
# Shared heavy fixtures
# ---------------------------------------------------------------------------

SPARSE_SPEC = SyntheticSpec(d=20, true_subset=(0, 1, 2, 3), n=5000,
                            noise_std=0.0, kind="sparse-logit", seed=7)


def sparse_base_config(seed):
    return TrainConfig(k=4, epochs=25, seed=seed, lambda_u=0.2,
                       learning_rate=2e-3)


@pytest.fixture(scope="module")
def sparse_run():
    ds, subset = generate_synthetic(SPARSE_SPEC)
    tr, va, te = split_dataset(ds)
    model = train_given_model(tr, hidden=(32, 32), seed=0, epochs=30)
    feats_tr = Dataset(ids=list(tr.ids), X=tr.X)
    feats_te = Dataset(ids=list(te.ids), X=te.X)
    return model, feats_tr, feats_te, subset


@pytest.fixture(scope="module")
def ablation_runs(sparse_run):
    """Per-seed metrics for full / w/o-AIL / w/o-Output on the sparse task."""
    model, feats_tr, feats_te, subset = sparse_run
    y_te = model.evaluate(feats_te.X)
    true = set(subset.indices)
    out = {v: {"fu_a": [], "fs_m": [], "precision": []}
           for v in ("full", "w/o-AIL", "w/o-Output")}
    for seed in range(1, 6):
        base = sparse_base_config(seed)
        for variant, slot in out.items():
            config = ablation_config(variant, base)
            explainer, _, _ = train(feats_tr, model, config,
                                    explainer_hidden=(64,))
            masks = explainer_masks(explainer, feats_te.X, y_te, config.k)
            precision = np.median([len(true & set(np.flatnonzero(m))) / config.k
                                   for m in masks])
            slot["precision"].append(float(precision))
            slot["fs_m"].append(fidelity_selected_model(explainer, model,
                                                        feats_te, config.k))
            slot["fu_a"].append(fidelity_unselected_approx(
                explainer, model, feats_tr, feats_te, config.k,
                retrain_budget=20, seed=seed))
    return out


# ---------------------------------------------------------------------------
# 1. Prior fusion formula exactness
# ---------------------------------------------------------------------------

def test_criterion_01_prior_fusion_exactness():
    r = np.array([[0.9, 0.1]])
    m0 = fuse_prior_var(ad.Var(np.array([[0.2, 0.8]])), r, m=0).value[0]
    assert np.allclose(m0, r[0], atol=1e-12)

    fused = fuse_prior_var(ad.Var(np.array([[0.5, 0.5]])), r, m=1).value[0]
    assert np.max(np.abs(fused - np.array([0.75, 0.25]))) <= 1e-9

    z_tilde = ad.Var(np.array([[0.75, 0.25]]))
    z_now = ad.Var(np.array([[0.25, 0.75]]))
    l0 = float(prior_constraint_loss_var(z_tilde, z_now, m=0).value)
    l1 = float(prior_constraint_loss_var(z_tilde, z_now, m=1).value)
    assert np.isclose(l1, l0 / 2.0)
    report(1, f"m=0 returns the prior; fused=({fused[0]:.9f}, {fused[1]:.9f}); "
              f"constraint loss fades {l0:.4f} -> {l1:.4f}")


# ---------------------------------------------------------------------------
# 2. Gumbel top-k sampler
# ---------------------------------------------------------------------------

def test_criterion_02_gumbel_sampler():
    z = np.array([[0.5, 0.3, 0.2]])
    ident = relaxed_topk_var(ad.Var(z), np.zeros((1, 3, 2)), tau=1.0).value
    assert np.allclose(ident, z, atol=1e-12)

    z3 = np.array([0.7, 0.2, 0.1])
    rng = named_rng(123, "gumbel")
    draws = 100_000
    xi = sample_gumbel_batch(draws, 3, 1, rng)
    winners = np.argmax(np.log(z3)[None, :] + xi[:, :, 0], axis=1)
    freqs = np.bincount(winners, minlength=3) / draws
    assert np.all(np.abs(freqs - z3) <= 0.01)

    noise = sample_gumbel_batch(2000, 3, 2, named_rng(77, "gumbel"))
    z_rows = ad.Var(np.tile(z3, (2000, 1)))
    mask = relaxed_topk_var(z_rows, noise, tau=0.5).value
    assert np.all(mask.sum(axis=1) <= 2 + 1e-9)
    cold = relaxed_topk_var(z_rows, noise, tau=0.01).value
    frac = (np.minimum(cold, 1 - cold) < 0.05).mean()
    # near-ties between the k Gumbel races leave a small fraction of entries
    # fractional at any fixed positive temperature
    assert frac >= 0.95
    report(2, f"zero-noise tau=1 identity holds; k=1 frequency error "
              f"{np.max(np.abs(freqs - z3)):.4f} (<= 0.01); sum(v) <= k held on "
              f"2000 draws; tau=0.01 near-binary fraction {frac:.3f} (>= 0.95)")


# ---------------------------------------------------------------------------
# 3. Gradient correctness on random nets
# ---------------------------------------------------------------------------

def test_criterion_03_gradients_match_finite_differences():
    worst = 0.0
    master = np.random.default_rng(2024)
    for trial in range(100):
        d = int(master.integers(3, 6))
        c = int(master.integers(2, 4))
        k = int(master.integers(1, d))
        loss_u = "cross-entropy" if trial % 2 == 0 else "sliced-wasserstein"
        with_prior = trial % 3 == 0
        config = TrainConfig(k=k, epochs=1, seed=0, tau=0.5, lambda_u=0.7,
                             lambda_e=0.05 if with_prior else 0.0,
                             loss_u=loss_u, n_projections=8)
        init = np.random.default_rng(trial)
        explainer = ExplainerNet(d, c, hidden=(4,), rng=init)
        pair = make_pair(d, c, (4,), init)
        n = 6
        x = init.standard_normal((n, d))
        y = init.random((n, c)) + 0.1
        y /= y.sum(axis=1, keepdims=True)
        xi = sample_gumbel_batch(n, d, k, init)
        prior_r = None
        if with_prior:
            prior_r = init.random(d) + 0.1
            prior_r /= prior_r.sum()
        thetas = sw_directions(c, config.n_projections, init)

        leaf = ad.Var(explainer.parameters)
        objective, *_ = explainer_objective(explainer, leaf, pair, x, y, config, xi,
                                            prior_r, m=1, sw_thetas=thetas)
        ad.backward(objective)
        grad = leaf.grad

        base = explainer.parameters.copy()

        def scalar(params):
            explainer.set_parameters(params)
            val, *_ = explainer_objective(explainer, ad.Var(explainer.parameters), pair, x, y,
                                          config, xi, prior_r, m=1, sw_thetas=thetas)
            return float(val.value)

        fd = finite_difference(scalar, base, step=1e-5)
        explainer.set_parameters(base)
        worst = max(worst, relative_error(grad, fd))
    assert worst <= 1e-3
    report(3, f"100 random nets, worst relative gradient error "
              f"{worst:.2e} (<= 1e-3)")


# ---------------------------------------------------------------------------
# 4. Brute-force subset oracle
# ---------------------------------------------------------------------------

def exact_mi_over_subsets(x, labels, k):
    best, best_mi = None, -1.0
    for subset in itertools.combinations(range(x.shape[1]), k):
        patterns = [tuple(row) for row in x[:, list(subset)]]
        mi = mi_estimate(patterns, list(labels))
        if mi > best_mi + 1e-12:
            best, best_mi = subset, mi
    return best


def test_criterion_04_brute_force_oracle():
    spec = SyntheticSpec(d=6, true_subset=(1, 4), n=10_000, noise_std=0.0,
                         kind="sparse-logit", seed=13)
    ds, subset = generate_synthetic(spec)
    x_binary = (ds.X > 0).astype(float)
    found = brute_force_best_subset(x_binary, ds.y_true, k=2)
    assert found.indices == subset.indices

    xor_spec = SyntheticSpec(d=4, true_subset=(0, 1), n=6000, noise_std=0.0,
                             kind="xor", seed=14)
    xor_ds, _ = generate_synthetic(xor_spec)
    xor_found = brute_force_best_subset(xor_ds.X, xor_ds.y_true, k=2)
    assert xor_found.indices == (0, 1)
    assert exact_mi_over_subsets(xor_ds.X, xor_ds.y_true, 2) == (0, 1)
    report(4, f"planted subset {found.indices} recovered on sign-binarized "
              f"features; XOR pair {xor_found.indices} matches exact MI "
              f"enumeration")


# ---------------------------------------------------------------------------
# 5. End-to-end subset recovery
# ---------------------------------------------------------------------------

def test_criterion_05_end_to_end_recovery(ablation_runs):
    precisions = ablation_runs["full"]["precision"]
    median = float(np.median(precisions))
    assert median >= 0.9
    report(5, f"median selection precision over 5 seeds {median:.2f} (>= 0.9), "
              f"per-seed {[round(p, 2) for p in precisions]}")


# ---------------------------------------------------------------------------
# 6. Ablation direction
# ---------------------------------------------------------------------------

def test_criterion_06_ablation_direction(ablation_runs):
    fu_a_full = float(np.median(ablation_runs["full"]["fu_a"]))
    fu_a_noail = float(np.median(ablation_runs["w/o-AIL"]["fu_a"]))
    fs_m_full = float(np.median(ablation_runs["full"]["fs_m"]))
    fs_m_noout = float(np.median(ablation_runs["w/o-Output"]["fs_m"]))
    assert fu_a_noail - fu_a_full >= 5.0
    assert fs_m_full >= fs_m_noout
    report(6, f"FU-A without the adversarial term {fu_a_noail:.2f} vs full "
              f"{fu_a_full:.2f} (gap {fu_a_noail - fu_a_full:.2f} >= 5); "
              f"FS-M full {fs_m_full:.2f} >= without output feedback "
              f"{fs_m_noout:.2f}")


# ---------------------------------------------------------------------------
# 7. Mask-label dependence drops with the adversarial term
# ---------------------------------------------------------------------------

def test_criterion_07_mask_label_mi_gap():
    spec = SyntheticSpec(d=12, true_subset=(0, 1, 2, 3, 4, 5), n=4000,
                         noise_std=0.0, kind="shortcut-bait", seed=3)
    ds, subset = generate_synthetic(spec)
    tr, va, te = split_dataset(ds)
    model = train_given_model(tr, hidden=(16,), seed=0, epochs=20)
    feats = Dataset(ids=list(tr.ids), X=tr.X)
    y_te = model.evaluate(te.X)
    classes = [int(c) for c in np.argmax(y_te, axis=1)]
    medians = {}
    for lam in (0.0, 1.0):
        mis = []
        for seed in range(1, 6):
            config = TrainConfig(k=6, epochs=30, seed=seed, lambda_u=lam)
            explainer, _, _ = train(feats, model, config)
            masks = explainer_masks(explainer, te.X, y_te, 6)
            mis.append(mi_estimate([tuple(m) for m in masks], classes))
        medians[lam] = float(np.median(mis))
    assert medians[0.0] - medians[1.0] >= 0.05
    report(7, f"median MI(mask pattern, predicted class) {medians[0.0]:.3f} nats "
              f"without the adversarial term vs {medians[1.0]:.3f} with it "
              f"(gap {medians[0.0] - medians[1.0]:.3f} >= 0.05)")


# ---------------------------------------------------------------------------
# 8. Handwritten-digit 3-vs-8 run (needs the IDX files)
# ---------------------------------------------------------------------------

def test_criterion_08_digits_3v8():
    root = mnist_dir()
    if root is None:
        pytest.skip("standard IDX digit files are not available offline; "
                    "set MEED_MNIST_DIR to run this criterion")
    train_ds = load_idx_images(os.path.join(root, "train-images-idx3-ubyte"),
                               os.path.join(root, "train-labels-idx1-ubyte"),
                               (3, 8))
    test_ds = load_idx_images(os.path.join(root, "t10k-images-idx3-ubyte"),
                              os.path.join(root, "t10k-labels-idx1-ubyte"),
                              (3, 8))
    model = train_given_model(train_ds, hidden=(256, 256), seed=0, epochs=15)
    acc = model_accuracy(model, test_ds)
    assert acc >= 0.98

    feats_tr = Dataset(ids=list(train_ds.ids), X=train_ds.X)
    feats_te = Dataset(ids=list(test_ds.ids), X=test_ds.X)
    config = TrainConfig(k=25, epochs=10, seed=1, batch_size=128)
    explainer, _, _ = train(feats_tr, model, config, explainer_hidden=(128,))
    fs_m = fidelity_selected_model(explainer, model, feats_te, 25)
    assert fs_m >= 90.0
    report(8, f"3-vs-8 accuracy {100 * acc:.2f}% (>= 98%); FS-M at k=25 "
              f"{fs_m:.2f}% (>= 90%)")


# ---------------------------------------------------------------------------
# 9. Sanity randomization checks
# ---------------------------------------------------------------------------

def test_criterion_09_sanity_checks():
    rng = np.random.default_rng(5)
    d, k, n = 20, 5, 4000
    masks = np.zeros((n, d))
    other = np.zeros((n, d))
    for i in range(n):
        masks[i, rng.choice(d, k, replace=False)] = 1.0
        other[i, rng.choice(d, k, replace=False)] = 1.0
    self_score = mask_cosine(masks, masks)
    random_score = mask_cosine(masks, other)
    assert self_score == pytest.approx(100.0)
    assert random_score == pytest.approx(100.0 * k / d, abs=2.0)
    if mnist_dir() is None:
        report(9, f"self-comparison {self_score:.1f}%; random-mask overlap "
                  f"{random_score:.2f}% vs expected {100.0 * k / d:.2f}%; "
                  f"model-randomization sub-check needs the digit-scale run")
        pytest.skip("the model-randomization threshold is defined for the "
                    "digit-scale run; IDX files are unavailable offline")
    report(9, f"self-comparison {self_score:.1f}%; random-mask overlap "
              f"{random_score:.2f}%")


# ---------------------------------------------------------------------------
# 10. Infrastructure: checkpoints, resume, determinism, IDX counts
# ---------------------------------------------------------------------------

def test_criterion_10_infrastructure(tmp_path, sparse_run):
    model, feats_tr, feats_te, _ = sparse_run
    small = feats_tr.subset(np.arange(256))

    full_cfg = TrainConfig(k=4, epochs=4, seed=21, batch_size=64)
    e_full, p_full, ckpt_full = train(small, model, full_cfg,
                                      explainer_hidden=(16,), approx_hidden=(16,))

    path = os.path.join(tmp_path, "ckpt.bin")
    save_checkpoint(ckpt_full, path)
    loaded = load_checkpoint(path)
    again = os.path.join(tmp_path, "ckpt2.bin")
    save_checkpoint(loaded, again)
    assert open(path, "rb").read() == open(again, "rb").read()

    half_cfg = TrainConfig(k=4, epochs=2, seed=21, batch_size=64)
    _, _, half = train(small, model, half_cfg, explainer_hidden=(16,),
                       approx_hidden=(16,))
    e_res, p_res, _ = train(small, model, full_cfg, explainer_hidden=(16,),
                            approx_hidden=(16,),
                            resume=half)
    assert np.array_equal(e_full.parameters, e_res.parameters)
    assert np.array_equal(p_full.a_selected.parameters,
                          p_res.a_selected.parameters)
    assert np.array_equal(p_full.a_unselected.parameters,
                          p_res.a_unselected.parameters)

    eval_small = feats_te.subset(np.arange(128))
    r1 = evaluate_explainer(e_full, model, small, eval_small, 4,
                            retrain_budget=3, seed=5).serialize()
    r2 = evaluate_explainer(e_full, model, small, eval_small, 4,
                            retrain_budget=3, seed=5).serialize()
    # the TPS line is wall-clock timing; everything else must match exactly
    stable1 = [l for l in r1.splitlines() if not l.startswith("TPS")]
    stable2 = [l for l in r2.splitlines() if not l.startswith("TPS")]
    assert stable1 == stable2

    root = mnist_dir()
    if root is None:
        report(10, "checkpoint round-trip bit-exact; resume matches the "
                   "uninterrupted run; identical seeds give identical reports; "
                   "IDX count sub-check needs the digit files")
        pytest.skip("IDX digit files are unavailable offline; the record-count "
                    "sub-check cannot run")
    train_ds = load_idx_images(os.path.join(root, "train-images-idx3-ubyte"),
                               os.path.join(root, "train-labels-idx1-ubyte"),
                               (3, 8))
    test_ds = load_idx_images(os.path.join(root, "t10k-images-idx3-ubyte"),
                              os.path.join(root, "t10k-labels-idx1-ubyte"),
                              (3, 8))
    assert len(train_ds) == 11_982
    assert len(test_ds) == 1_984
    report(10, "checkpoint round-trip bit-exact; resume matches; reports "
               f"deterministic; IDX counts {len(train_ds)}/{len(test_ds)}")
