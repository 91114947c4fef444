"""Fidelity, sensitivity, sanity and timing metrics.

Fidelity follows the masked-input protocol: binary top-k masks from the
explainer's scores, zero imputation, top-1 agreement with the model's
original output. The -M variants run masked inputs through the original
model; the -A variants through a freshly retrained approximator.
"""

from __future__ import annotations

import copy
import time
from dataclasses import asdict, dataclass, replace
from typing import Sequence

import numpy as np

from .core import ConfigError, checked_features, checked_outputs, from_strings, named_rng
from .data import Dataset
from .sampler import hard_topk, hard_topk_batch
from .trainer import fit_classifier

RETRAIN_BUDGET_DEFAULT = 20
SEN_RADIUS_FRACTION = 0.05  # of the per-feature data range
SEN_N_PERTURB = 32
TPS_SAMPLES = 100  # timed rows of `time_per_sample`


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
        """The inverse of `serialize`; a line without `=` raises ConfigError naming it."""
        kv = {}
        for line in text.strip().splitlines():
            key, sep, val = line.partition("=")
            if not sep:
                raise ConfigError(f"report line {line!r} is not KEY=value")
            kv[key.lower().replace("-", "_")] = val
        return from_strings(cls, kv, "report")


def score_set(explainer, model, dataset: Dataset, k: int) -> tuple:
    """One scoring pass over a set: its model outputs `y` (its `Y` when set,
    else computed), the explainer's scores `z` and their binary top-k masks
    (n, d). Bad features or outputs raise ShapeError first, as in `train()`."""
    x = checked_features(dataset.X)
    y = checked_outputs(model.evaluate(x) if dataset.Y is None else dataset.Y, len(x))
    z = explainer.score(x, y)
    return y, z, hard_topk_batch(z, k)


def explainer_masks(explainer, x: np.ndarray, y: np.ndarray, k: int) -> np.ndarray:
    """Binary top-k masks (n, d) from the explainer's scores."""
    return hard_topk_batch(explainer.score(x, y), k)


def _agreement(pred: np.ndarray, y: np.ndarray) -> float:
    return 100.0 * float(np.mean(np.argmax(pred, axis=1) == np.argmax(y, axis=1)))


def fidelity_selected_model(model, x: np.ndarray, y: np.ndarray, masks: np.ndarray) -> float:
    """FS-M: the model's top-1 agreement with `y` on the selected features."""
    return _agreement(model.evaluate(x * masks), y)


def fidelity_unselected_model(model, x: np.ndarray, y: np.ndarray, masks: np.ndarray) -> float:
    """FU-M: the same on the complement features."""
    return _agreement(model.evaluate(x * (1.0 - masks)), y)


def require_rows(**sets) -> None:
    """ConfigError naming the first given set (a Dataset or an array of rows)
    that has no rows."""
    for name, dataset in sets.items():
        if len(dataset) == 0:
            raise ConfigError(f"the {name} set is empty; its split of the dataset got no rows")


def _fidelity_approx(train: tuple, evaluation: tuple, sides: Sequence[str],
                     retrain_budget: int, hidden: Sequence[int], seed: int) -> list:
    """FS-A and FU-A from each set's (x, y, masks): for each side, "selected" (the
    top-k masks) or "unselected" (their complements), the agreement of an
    approximator retrained on the masked training inputs; all sides are one stacked fit."""
    (x_tr, y_tr, m_tr), (x_ev, y_ev, m_ev) = train, evaluation
    x_tr = np.stack([x_tr * (m_tr if side == "selected" else 1.0 - m_tr) for side in sides])
    x_ev = np.stack([x_ev * (m_ev if side == "selected" else 1.0 - m_ev) for side in sides])
    net = fit_classifier(x_tr, y_tr, hidden, retrain_budget, named_rng(seed, "init"))
    return [_agreement(pred, y_ev) for pred in net.predict(x_ev)]


def fidelity_selected_approx(train: tuple, evaluation: tuple,
                             retrain_budget: int = RETRAIN_BUDGET_DEFAULT,
                             hidden: Sequence[int] = (32, 32), seed: int = 0) -> float:
    """FS-A: agreement of a freshly trained approximator on masked inputs."""
    return _fidelity_approx(train, evaluation, ("selected",), retrain_budget, hidden, seed)[0]


def fidelity_unselected_approx(train: tuple, evaluation: tuple,
                               retrain_budget: int = RETRAIN_BUDGET_DEFAULT,
                               hidden: Sequence[int] = (32, 32), seed: int = 0) -> float:
    """FU-A: same protocol on the complement masks."""
    return _fidelity_approx(train, evaluation, ("unselected",), retrain_budget, hidden, seed)[0]


def default_sen_radius(x: np.ndarray) -> float:
    ranges = x.max(axis=0) - x.min(axis=0)
    return SEN_RADIUS_FRACTION * float(ranges.mean())


def sensitivity(explainer, model, x: np.ndarray, z: np.ndarray,
                rng: np.random.Generator) -> float:
    """Worst-case relative change of the scores `z` of `x` over SEN_N_PERTURB
    uniform input perturbations within `default_sen_radius`, x100."""
    radius = default_sen_radius(x)
    norms = np.linalg.norm(z, axis=1)
    worst = np.zeros(len(x))
    for _ in range(SEN_N_PERTURB):
        delta = rng.uniform(-radius, radius, size=x.shape)
        xp = x + delta
        zp = explainer.score(xp, model.evaluate(xp))
        rel = np.linalg.norm(zp - z, axis=1) / norms
        worst = np.maximum(worst, rel)
    return 100.0 * float(worst.mean())


def mask_cosine(masks_a: np.ndarray, masks_b: np.ndarray) -> float:
    """Mean cosine similarity between two binary mask sets, x100."""
    num = (masks_a * masks_b).sum(axis=1)
    den = np.linalg.norm(masks_a, axis=1) * np.linalg.norm(masks_b, axis=1)
    return 100.0 * float(np.mean(num / den))


def sanity_tests(explainer, model, x: np.ndarray, masks: np.ndarray, k: int,
                 rng: np.random.Generator) -> float:
    """Model randomization: the cosine between the base `masks` of `x` and the
    masks the same explainer gives against a re-initialized copy of the
    model's outputs; low means the explanation follows the model."""
    randomized = copy.deepcopy(model)
    randomized.randomize(rng)
    new_masks = explainer_masks(explainer, x, randomized.evaluate(x), k)
    return mask_cosine(masks, new_masks)


def permuted_labels(train_set: Dataset, rng: np.random.Generator) -> Dataset:
    """The training set with its true labels permuted by `rng`, for the data
    randomization sanity test. ConfigError, before anything is drawn, when the
    set has no true labels."""
    if train_set.y_true is None:
        raise ConfigError("data randomization permutes true labels; the training set has none")
    return replace(train_set, y_true=rng.permutation(train_set.y_true))


def time_per_sample(explainer, model, x: np.ndarray, k: int) -> float:
    """Mean wall-clock seconds for one explanation (model call included) over
    up to TPS_SAMPLES one-row batches, so models answering (n, c) rows fit."""
    require_rows(evaluation=x)
    n = min(TPS_SAMPLES, len(x))
    for rows in (range(min(5, n)), range(n)):  # a warm-up, excluded, then the timed pass
        tic = time.perf_counter()
        for i in rows:
            row = x[i:i + 1]
            hard_topk(explainer.score(row, model.evaluate(row))[0], k)
    return (time.perf_counter() - tic) / n


def evaluate_explainer(explainer, model, train_set: Dataset, eval_set: Dataset, k: int,
                       retrain_budget: int = RETRAIN_BUDGET_DEFAULT,
                       hidden: Sequence[int] = (32, 32), seed: int = 0) -> MetricsReport:
    """Full report over one trained explainer from one scoring pass per set,
    whose arrays every metric reads, once both sets' features are checked.
    SANITY-MODEL randomizes the model from the "sanity" stream, as `meed
    sanity` does; SANITY-DATA stays -1, as it retrains a model and an explainer."""
    require_rows(training=train_set, evaluation=eval_set)
    for dataset in (train_set, eval_set):
        checked_features(dataset.X)
    y_tr, _, m_tr = score_set(explainer, model, train_set, k)
    y, z, masks = score_set(explainer, model, eval_set, k)
    x = eval_set.X
    fs_a, fu_a = _fidelity_approx((train_set.X, y_tr, m_tr), (x, y, masks),
                                  ("selected", "unselected"), retrain_budget, hidden, seed)
    return MetricsReport(
        fs_m=fidelity_selected_model(model, x, y, masks),
        fu_m=fidelity_unselected_model(model, x, y, masks),
        fs_a=fs_a, fu_a=fu_a,
        sen=sensitivity(explainer, model, x, z, named_rng(seed, "perturb")),
        sanity_model=sanity_tests(explainer, model, x, masks, k, named_rng(seed, "sanity")),
        sanity_data=-1.0,
        tps=time_per_sample(explainer, model, x, k),
        k=k, n_eval=len(eval_set))

