"""Reference oracles, reference tape ops and file writers that only the tests use.

The oracles check the paper's theory on small discrete tasks: the brute-force
best subset (criterion 4: AIL learns the selected-feature conditional) and the
plug-in mutual information between mask pattern and class (criterion 7:
combinatorial shortcuts). The reference tape ops build the losses the slow
way, one node per net (a frozen net is a node of its input) and per loss
joined by elementwise glue, for the tests that compare the fused nodes with
that form; the sliced Wasserstein distance has an axis-0 form for any rows
and a two-class one for rows on the simplex, and `record_sw_paths` logs
which of the package's two forms each call takes.
The IDX writers make the image files that the package's IDX reader loads.
"""

import itertools
import math
import struct

import numpy as np

from meed import approximators
from meed import autodiff as ad
from meed.core import Mlp, SelectionSet
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


def value(x) -> np.ndarray:
    """The array of a Var, or a constant as a float64 array."""
    return x.value if isinstance(x, ad.Var) else np.asarray(x, dtype=np.float64)


def _glue(result, operands) -> ad.Var:
    """Node of an elementwise op over its (operand, VJP) pairs. Only Var
    operands become parents: a constant gets no gradient. A Var operand has
    the result's shape (only a constant may broadcast), so each VJP's
    gradient needs no reduction."""
    pairs = [(x, vjp) for x, vjp in operands if isinstance(x, ad.Var)]
    return ad.Var(result, tuple(x for x, _ in pairs), lambda g: [vjp(g) for _, vjp in pairs])


def sub(a, b) -> ad.Var:
    """a - b for Vars or constants."""
    return _glue(value(a) - value(b), ((a, lambda g: g), (b, lambda g: -g)))


def mul(a, b) -> ad.Var:
    """a * b for Vars or constants."""
    av, bv = value(a), value(b)
    return _glue(av * bv, ((a, lambda g: g * bv), (b, lambda g: g * av)))


def frozen_net_node(net: Mlp, x: ad.Var) -> ad.Var:
    """The one-net `net` on the Var batch x as a node of x alone: its weights
    are frozen, so the VJP is `Mlp.backward`'s input gradient."""
    out, saved = net.forward(x.value)
    return ad.Var(out, (x,), lambda g: (net.backward(saved, g, weights=False)[0],))


def take(a: ad.Var, i: int) -> ad.Var:
    """a[i] along the leading axis; its VJP is g at i and zeros elsewhere."""
    return ad.Var(a.value[i], (a,), lambda g: (np.stack(
        [g if j == i else np.zeros_like(g) for j in range(len(a.value))]),))


def explicit_sliced_wasserstein(batch_a, batch_b, thetas) -> tuple:
    """(value, vjp) of the sliced Wasserstein distance in its axis-0 form: one
    projection per column of an (n, P) array, a stable argsort down each
    column, and a VJP that scatters each sorted difference back along that
    column's order."""
    proj_a = np.sort(np.asarray(batch_a, dtype=np.float64) @ thetas, axis=0)
    proj_b = batch_b @ thetas
    order = np.argsort(proj_b, axis=0, kind="stable")
    diff = np.take_along_axis(proj_b, order, axis=0) - proj_a

    def vjp(g):
        half = g / diff.size * diff
        g_proj = np.zeros_like(proj_b)
        np.put_along_axis(g_proj, order, half + half, axis=0)
        return g_proj @ thetas.T

    return (diff * diff).mean(), vjp


def two_class_sliced_wasserstein(batch_a, batch_b, thetas) -> tuple:
    """(value, vjp) of the sliced Wasserstein distance between two-class
    batches whose rows lie on the simplex, in its axis-0 form, one direction
    block at a time. Each projection sorts such rows by column 0, rising
    where theta_0 > theta_1 and falling elsewhere. So in each block every row
    of batch_b is paired with batch_a's row of the same rank in the block's
    order (batch_b's by a stable argsort down column 0, or down its negation),
    and the pairs' differences are weighed by the block's (2, 2) sum of
    theta theta^T."""
    batch_a = np.asarray(batch_a, dtype=np.float64)
    n, n_proj = batch_b.shape[0], thetas.shape[1]
    rows_a = batch_a[np.argsort(batch_a[:, 0], kind="stable")]
    rises = thetas[0] > thetas[1]
    diffs, moved = [], []
    for key, rows, block in ((batch_b[:, 0], rows_a, rises),
                             (-batch_b[:, 0], rows_a[::-1], ~rises)):
        rank = np.empty(n, dtype=int)
        rank[np.argsort(key, kind="stable")] = np.arange(n)
        diffs.append(batch_b - rows[rank])
        moved.append(diffs[-1] @ ((thetas * block) @ thetas.T))
    value = np.concatenate([d * m for d, m in zip(diffs, moved)]).sum() / (n * n_proj)

    def vjp(g):
        half = g / (n * n_proj) * (moved[0] + moved[1])
        return half + half

    return value, vjp


def sliced_wasserstein_node(batch_a, batch_b: ad.Var, thetas,
                            form=explicit_sliced_wasserstein) -> ad.Var:
    """The sliced Wasserstein distance between a constant batch and a Var
    batch (n, c) as a tape node of its own, in the axis-0 `form`."""
    value, vjp = form(batch_a, batch_b.value, thetas)
    return ad.Var(value, (batch_b,), lambda g: (vjp(g),))


def record_sw_paths(monkeypatch) -> list:
    """Patch both sliced Wasserstein paths of `approximators` to log each call
    into the returned list: "two-class" for the closed form, "per-projection"
    for one sort per projection."""
    paths = []
    for name, label in (("_two_class_sw", "two-class"), ("_per_projection_sw", "per-projection")):
        def logged(*args, _run=getattr(approximators, name), _label=label):
            paths.append(_label)
            return _run(*args)
        monkeypatch.setattr(approximators, name, logged)
    return paths


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
