"""Reference oracles and file writers that only the tests use.

The oracles check the paper's theory on small discrete tasks: the brute-force
best subset (criterion 4: AIL learns the selected-feature conditional) and the
plug-in mutual information between mask pattern and class (criterion 7:
combinatorial shortcuts). The IDX writers make the image files that the
package's IDX reader loads.
"""

import itertools
import math
import struct

import numpy as np

from meed.core import SelectionSet
from meed.data import IDX_IMAGES_MAGIC, IDX_LABELS_MAGIC


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


def write_idx_images(images: np.ndarray, path: str) -> None:
    images = np.asarray(images, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, *images.shape))
        fh.write(images.tobytes())


def write_idx_labels(labels: np.ndarray, path: str) -> None:
    labels = np.asarray(labels, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(struct.pack(">II", IDX_LABELS_MAGIC, labels.shape[0]))
        fh.write(labels.tobytes())
