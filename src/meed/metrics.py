"""Fidelity, sensitivity, sanity and timing metrics, plus the theory oracles.

Fidelity follows the masked-input protocol: binary top-k masks from the
explainer's scores, zero imputation, top-1 agreement with the model's
original output. The -M variants run masked inputs through the original
model; the -A variants through a freshly retrained approximator.
"""

from __future__ import annotations

import copy
import itertools
import math
import time
from dataclasses import asdict, dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .core import ConfigError, SelectionSet, checked_outputs, from_strings, named_rng
from .data import Dataset
from .sampler import hard_topk, hard_topk_batch
from .trainer import fit_classifier, train

RETRAIN_BUDGET_DEFAULT = 20
SEN_RADIUS_FRACTION = 0.05  # of the per-feature data range
SEN_N_PERTURB = 32


@dataclass
class MetricsReport:
    """One evaluation; as text, one `KEY=value` line per field, the key its
    name upper-cased with `-` for `_` (FS-M for fs_m)."""

    fs_m: float
    fu_m: float
    fs_a: float
    fu_a: float
    sen: float
    sanity_model: float
    sanity_data: float
    tps: float
    k: int
    n_eval: int

    def serialize(self) -> str:
        """Scores to two decimals; TPS, in seconds, and the counts in full."""
        return "".join(f"{name.upper().replace('_', '-')}="
                       + (f"{val:.2f}" if isinstance(val, float) and name != "tps" else str(val))
                       + "\n" for name, val in asdict(self).items())

    @classmethod
    def parse(cls, text: str) -> "MetricsReport":
        kv = dict(line.split("=", 1) for line in text.strip().splitlines())
        return from_strings(cls, {key.lower().replace("-", "_"): val for key, val in kv.items()},
                            "report")


def _outputs(dataset: Dataset, model) -> np.ndarray:
    """The dataset's model outputs: its `Y` when set, else computed (not
    stored); outputs off the simplex raise ShapeError, as in `train()`."""
    return checked_outputs(model.evaluate(dataset.X) if dataset.Y is None else dataset.Y,
                           len(dataset))


def explainer_masks(explainer, x: np.ndarray, y: np.ndarray, k: int) -> np.ndarray:
    """Binary top-k masks (n, d) from the explainer's scores."""
    return hard_topk_batch(explainer.score(x, y), k)


def _agreement(pred: np.ndarray, y: np.ndarray) -> float:
    return 100.0 * float(np.mean(np.argmax(pred, axis=1) == np.argmax(y, axis=1)))


def fidelity_selected_model(explainer, model, eval_set: Dataset, k: int) -> float:
    y = _outputs(eval_set, model)
    masks = explainer_masks(explainer, eval_set.X, y, k)
    return _agreement(model.evaluate(eval_set.X * masks), y)


def fidelity_unselected_model(explainer, model, eval_set: Dataset, k: int) -> float:
    y = _outputs(eval_set, model)
    masks = explainer_masks(explainer, eval_set.X, y, k)
    return _agreement(model.evaluate(eval_set.X * (1.0 - masks)), y)


def _require_rows(**sets: Optional[Dataset]) -> None:
    """ConfigError naming the first given set that has no rows."""
    for name, dataset in sets.items():
        if dataset is not None and len(dataset) == 0:
            raise ConfigError(f"the {name} set is empty; its split of the dataset got no rows")


def _fidelity_approx(explainer, model, train_set: Dataset, eval_set: Dataset, k: int,
                     sides: Sequence[str], retrain_budget: int, hidden: Sequence[int],
                     seed: int) -> list:
    """FS-A and FU-A: for each side, "selected" (the top-k masks) or
    "unselected" (their complements), the agreement of an approximator
    retrained on the masked training inputs; all sides are one stacked fit."""
    y_tr, y_ev = _outputs(train_set, model), _outputs(eval_set, model)
    m_tr = explainer_masks(explainer, train_set.X, y_tr, k)
    m_ev = explainer_masks(explainer, eval_set.X, y_ev, k)
    x_tr = np.stack([train_set.X * (m_tr if side == "selected" else 1.0 - m_tr) for side in sides])
    x_ev = np.stack([eval_set.X * (m_ev if side == "selected" else 1.0 - m_ev) for side in sides])
    net = fit_classifier(x_tr, y_tr, hidden, retrain_budget, named_rng(seed, "init"))
    return [_agreement(pred, y_ev) for pred in net.predict(x_ev)]


def fidelity_selected_approx(explainer, model, train_set: Dataset, eval_set: Dataset,
                             k: int, retrain_budget: int = RETRAIN_BUDGET_DEFAULT,
                             hidden: Sequence[int] = (32, 32), seed: int = 0) -> float:
    """FS-A: agreement of a freshly trained approximator on masked inputs."""
    return _fidelity_approx(explainer, model, train_set, eval_set, k, ("selected",),
                            retrain_budget, hidden, seed)[0]


def fidelity_unselected_approx(explainer, model, train_set: Dataset, eval_set: Dataset,
                               k: int, retrain_budget: int = RETRAIN_BUDGET_DEFAULT,
                               hidden: Sequence[int] = (32, 32), seed: int = 0) -> float:
    """FU-A: same protocol on the complement masks."""
    return _fidelity_approx(explainer, model, train_set, eval_set, k, ("unselected",),
                            retrain_budget, hidden, seed)[0]


def default_sen_radius(eval_set: Dataset) -> float:
    ranges = eval_set.X.max(axis=0) - eval_set.X.min(axis=0)
    return SEN_RADIUS_FRACTION * float(ranges.mean())


def sensitivity(explainer, model, eval_set: Dataset,
                rng: Optional[np.random.Generator] = None) -> float:
    """Worst-case relative score change over SEN_N_PERTURB uniform input
    perturbations within `default_sen_radius`, x100."""
    radius = default_sen_radius(eval_set)
    if rng is None:
        rng = np.random.default_rng(0)
    y = _outputs(eval_set, model)
    z0 = explainer.score(eval_set.X, y)
    norms = np.linalg.norm(z0, axis=1)
    worst = np.zeros(len(eval_set))
    for _ in range(SEN_N_PERTURB):
        delta = rng.uniform(-radius, radius, size=eval_set.X.shape)
        xp = eval_set.X + delta
        zp = explainer.score(xp, model.evaluate(xp))
        rel = np.linalg.norm(zp - z0, axis=1) / norms
        worst = np.maximum(worst, rel)
    return 100.0 * float(worst.mean())


def mask_cosine(masks_a: np.ndarray, masks_b: np.ndarray) -> float:
    """Mean cosine similarity between two binary mask sets, x100."""
    num = (masks_a * masks_b).sum(axis=1)
    den = np.linalg.norm(masks_a, axis=1) * np.linalg.norm(masks_b, axis=1)
    return 100.0 * float(np.mean(num / den))


def sanity_tests(explainer, model, eval_set: Dataset, k: int,
                 mode: str = "model-randomization",
                 rng: Optional[np.random.Generator] = None,
                 train_set: Optional[Dataset] = None,
                 config=None, train_kwargs: Optional[dict] = None,
                 model_builder=None) -> float:
    """Randomization tests: low cosine between original and randomized masks.

    model mode reuses the trained explainer against a re-initialized model's
    outputs; data mode retrains the model on permuted labels and retrains the
    explainer from scratch against it.
    """
    _require_rows(evaluation=eval_set, training=train_set)
    if rng is None:
        rng = np.random.default_rng(0)
    y = _outputs(eval_set, model)
    base_masks = explainer_masks(explainer, eval_set.X, y, k)
    if mode == "model-randomization":
        randomized = copy.deepcopy(model)
        randomized.randomize(rng)
        y_new = randomized.evaluate(eval_set.X)
        new_masks = explainer_masks(explainer, eval_set.X, y_new, k)
        return mask_cosine(base_masks, new_masks)
    if mode == "data-randomization":
        if train_set is None or config is None or model_builder is None:
            raise ValueError("data-randomization needs train_set, config and model_builder")
        if train_set.y_true is None:
            raise ConfigError("data randomization permutes true labels; the training set has none")
        shuffled = Dataset(ids=list(train_set.ids), X=train_set.X,
                           y_true=rng.permutation(np.asarray(train_set.y_true)))
        new_model = model_builder(shuffled)
        new_explainer, _, _ = train(Dataset(ids=list(shuffled.ids), X=shuffled.X),
                                    new_model, config, **(train_kwargs or {}))
        y_new = new_model.evaluate(eval_set.X)
        new_masks = explainer_masks(new_explainer, eval_set.X, y_new, k)
        return mask_cosine(base_masks, new_masks)
    raise ValueError(f"unknown sanity mode: {mode}")


def time_per_sample(explainer, model, eval_set: Dataset, n_samples: int = 100,
                    k: Optional[int] = None) -> float:
    """Mean wall-clock seconds for one explanation (model call included), each
    a one-row batch, so a model that always answers (n, c) rows also fits."""
    n = min(n_samples, len(eval_set))
    k = k if k is not None else min(5, eval_set.d)
    for i in range(min(5, n)):  # warm-up, excluded
        x = eval_set.X[i:i + 1]
        hard_topk(explainer.score(x, model.evaluate(x))[0], k)
    tic = time.perf_counter()
    for i in range(n):
        x = eval_set.X[i:i + 1]
        hard_topk(explainer.score(x, model.evaluate(x))[0], k)
    return (time.perf_counter() - tic) / n


def evaluate_explainer(explainer, model, train_set: Dataset, eval_set: Dataset, k: int,
                       retrain_budget: int = RETRAIN_BUDGET_DEFAULT,
                       hidden: Sequence[int] = (32, 32), seed: int = 0) -> MetricsReport:
    """Full report over one trained explainer (data-randomization left at -1
    unless run separately; it needs a retraining budget the caller controls)."""
    _require_rows(training=train_set, evaluation=eval_set)
    rng = named_rng(seed, "perturb")
    # Each set's outputs once, on local copies; the caller's datasets stay as given.
    train_set = replace(train_set, Y=_outputs(train_set, model))
    eval_set = replace(eval_set, Y=_outputs(eval_set, model))
    fs_a, fu_a = _fidelity_approx(explainer, model, train_set, eval_set, k,
                                  ("selected", "unselected"), retrain_budget, hidden, seed)
    return MetricsReport(
        fs_m=fidelity_selected_model(explainer, model, eval_set, k),
        fu_m=fidelity_unselected_model(explainer, model, eval_set, k),
        fs_a=fs_a, fu_a=fu_a,
        sen=sensitivity(explainer, model, eval_set, rng=rng),
        sanity_model=sanity_tests(explainer, model, eval_set, k,
                                  mode="model-randomization", rng=rng),
        sanity_data=-1.0,
        tps=time_per_sample(explainer, model, eval_set, k=k),
        k=k, n_eval=len(eval_set))


# ---------------------------------------------------------------------------
# Theory-check oracles
# ---------------------------------------------------------------------------

def _conditional_log_likelihood(patterns, labels: np.ndarray, n_classes: int) -> float:
    """Mean log p-hat(y_i | pattern_i) with Laplace smoothing alpha = 1."""
    joint: dict = {}
    marg: dict = {}
    for p, y in zip(patterns, labels):
        joint[(p, y)] = joint.get((p, y), 0) + 1
        marg[p] = marg.get(p, 0) + 1
    total = 0.0
    for p, y in zip(patterns, labels):
        total += math.log((joint[(p, y)] + 1.0) / (marg[p] + n_classes))
    return total / len(labels)


def brute_force_best_subset(x: np.ndarray, labels: np.ndarray, k: int) -> SelectionSet:
    """Exhaustive search for the subset maximizing the empirical selected-vs-
    unselected conditional log-likelihood gap; ties go to the lexicographically
    smallest subset. Feasible for small discrete feature spaces (d <= 12)."""
    x = np.asarray(x)
    labels = np.asarray(labels).astype(int)
    n, d = x.shape
    if d > 12:
        raise ValueError("brute force limited to d <= 12")
    n_classes = int(labels.max()) + 1
    best, best_score = None, -np.inf
    for subset in itertools.combinations(range(d), k):
        comp = tuple(j for j in range(d) if j not in subset)
        sel_patterns = [tuple(row) for row in x[:, list(subset)]]
        comp_patterns = [tuple(row) for row in x[:, list(comp)]] if comp else [()] * n
        score = (_conditional_log_likelihood(sel_patterns, labels, n_classes)
                 - _conditional_log_likelihood(comp_patterns, labels, n_classes))
        if score > best_score + 1e-12:
            best, best_score = subset, score
    return SelectionSet(indices=best, d=d)


def mi_estimate(discrete_a, discrete_b) -> float:
    """Plug-in mutual information (nats) from the joint frequency table."""
    if len(discrete_a) != len(discrete_b):
        raise ValueError("lists must have the same length")
    n = len(discrete_a)
    joint: dict = {}
    pa: dict = {}
    pb: dict = {}
    for a, b in zip(discrete_a, discrete_b):
        joint[(a, b)] = joint.get((a, b), 0) + 1
        pa[a] = pa.get(a, 0) + 1
        pb[b] = pb.get(b, 0) + 1
    mi = 0.0
    for (a, b), cnt in joint.items():
        p_ab = cnt / n
        mi += p_ab * math.log(p_ab * n * n / (pa[a] * pb[b]))
    return max(mi, 0.0)
