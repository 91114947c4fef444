"""Synthetic ground-truth generators, IDX image ingestion, given-model training."""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from . import autodiff as ad
from .core import (BlackBoxModel, ConfigError, Mlp, SelectionSet, named_rng, read_record,
                   write_record)
from .trainer import fit_classifier

SYNTH_KINDS = ("sparse-logit", "xor", "shortcut-bait")


class IdxParseError(ValueError):
    """Malformed IDX file; message includes the byte offset."""


class DatasetFileError(ValueError):
    """Malformed dataset text file; message names the path and line."""


class ModelFileError(ValueError):
    """Corrupt or incompatible model file."""


@dataclass
class Dataset:
    """Feature matrix plus optional true labels and model outputs."""

    ids: list
    X: np.ndarray
    y_true: Optional[np.ndarray] = None
    Y: Optional[np.ndarray] = None  # model outputs; computed from the model when None

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)

    def __len__(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    def subset(self, idx) -> "Dataset":
        idx = np.asarray(idx)
        return Dataset(ids=[self.ids[i] for i in idx], X=self.X[idx],
                       y_true=None if self.y_true is None else self.y_true[idx],
                       Y=None if self.Y is None else self.Y[idx])


@dataclass(frozen=True)
class SyntheticSpec:
    d: int
    true_subset: tuple
    n: int
    noise_std: float
    kind: str
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "true_subset", tuple(int(i) for i in self.true_subset))
        if self.kind not in SYNTH_KINDS:
            raise ConfigError(f"unknown synthetic kind: {self.kind}")
        sub = self.true_subset
        if len(set(sub)) != len(sub) or any(not 0 <= i < self.d for i in sub):
            raise ConfigError(f"true_subset {sub} needs distinct indices in [0, d={self.d})")
        if self.n < 1:
            raise ConfigError("n must be >= 1")


def generate_synthetic(spec: SyntheticSpec) -> Tuple[Dataset, SelectionSet]:
    """Deterministic dataset plus its planted informative subset."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(spec.seed)))
    sub = list(spec.true_subset)
    if spec.kind == "sparse-logit":
        x = rng.standard_normal((spec.n, spec.d))
        w = rng.uniform(1.5, 2.5, size=len(sub)) * rng.choice([-1.0, 1.0], size=len(sub))
        # Label noise enters through the logit perturbation; thresholding keeps
        # the planted subset recoverable at high accuracy for small noise_std.
        logits = x[:, sub] @ w + spec.noise_std * rng.standard_normal(spec.n)
        labels = (logits > 0).astype(int)
    elif spec.kind == "xor":
        x = rng.integers(0, 2, size=(spec.n, spec.d)).astype(np.float64)
        labels = (x[:, sub].sum(axis=1) % 2).astype(int)
        if spec.noise_std > 0:
            flip = rng.random(spec.n) < spec.noise_std
            labels = np.where(flip, 1 - labels, labels)
    else:  # shortcut-bait: two disjoint groups, each sufficient on its own
        half = len(sub) // 2
        group_a, group_b = sub[:half], sub[half:]
        labels = rng.integers(0, 2, size=spec.n)
        x = rng.standard_normal((spec.n, spec.d))
        # Shift large enough that either group alone supports >= 95% accuracy
        # with margin to spare for an imperfect probe.
        mu = 2.5
        x[:, group_a] += mu * (labels == 0)[:, None]
        x[:, group_b] += mu * (labels == 1)[:, None]
        if spec.noise_std > 0:
            x += spec.noise_std * rng.standard_normal(x.shape)
    ids = [f"{spec.kind}-{spec.seed}-{i}" for i in range(spec.n)]
    ds = Dataset(ids=ids, X=x, y_true=labels)
    return ds, SelectionSet(indices=tuple(sorted(sub)), d=spec.d)


def split_dataset(ds: Dataset) -> Tuple[Dataset, Dataset, Dataset]:
    """Deterministic 50/25/25 train/val/test split keyed by sample id hash."""
    buckets = []
    for sid in ds.ids:
        h = hashlib.md5(str(sid).encode("utf-8")).digest()[0] % 4
        buckets.append(0 if h < 2 else (1 if h == 2 else 2))
    buckets = np.asarray(buckets)
    return (ds.subset(np.where(buckets == 0)[0]),
            ds.subset(np.where(buckets == 1)[0]),
            ds.subset(np.where(buckets == 2)[0]))


# ---------------------------------------------------------------------------
# Dataset text export (line-delimited records)
# ---------------------------------------------------------------------------

def export_dataset(ds: Dataset, true_subset: Optional[SelectionSet], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        subset_txt = ";".join(str(i) for i in true_subset.indices) if true_subset else ""
        fh.write(f"#trueSubset={subset_txt}\n")
        for i in range(len(ds)):
            xs = ",".join(repr(float(v)) for v in ds.X[i])
            label = "" if ds.y_true is None else str(int(ds.y_true[i]))
            fh.write(f"{ds.ids[i]},{xs},{label}\n")


def import_dataset(path: str) -> Tuple[Dataset, Optional[tuple]]:
    """Read an `export_dataset` file: `id,feature...,label` rows (an empty label
    for none) and `#` comment lines, of which `#trueSubset=i;j;...` is kept.
    A malformed file raises DatasetFileError naming the path and line."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise DatasetFileError(f"{path}: not UTF-8 text: {exc}") from exc
    ids, rows, labels = [], [], []
    true_subset = None
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        try:
            if line.startswith("#trueSubset=") and line != "#trueSubset=":
                true_subset = tuple(int(s) for s in line[len("#trueSubset="):].split(";"))
            if not line or line.startswith("#"):
                continue
            *fields, label = line.split(",")
            if len(fields) < 2:
                raise ValueError(f"expected id, features and label, got {len(fields) + 1} field(s)")
            row = [float(v) for v in fields[1:]]
            if rows and len(row) != len(rows[0]):
                raise ValueError(f"{len(row)} features, the first row has {len(rows[0])}")
            if not np.all(np.isfinite(row)):
                raise ValueError("non-finite feature")
            labels.append(int(label) if label else -1)
        except ValueError as exc:
            raise DatasetFileError(f"{path}:{lineno}: {exc}") from exc
        ids.append(fields[0])
        rows.append(row)
    if not rows:
        raise DatasetFileError(f"{path}: no data rows")
    y_true = np.asarray(labels)
    if np.all(y_true == -1):
        y_true = None
    return Dataset(ids=ids, X=np.asarray(rows), y_true=y_true), true_subset


# ---------------------------------------------------------------------------
# IDX (MNIST-style) ingestion
# ---------------------------------------------------------------------------

IDX_IMAGES_MAGIC = 2051
IDX_LABELS_MAGIC = 2049


def _read_idx(path: str, magic: int) -> np.ndarray:
    """uint8 tensor of an IDX file; the magic's low byte is its number of dimensions."""
    with open(path, "rb") as fh:
        blob = fh.read()
    head = 4 + 4 * (magic & 0xFF)
    if len(blob) < head:
        raise IdxParseError(f"{path}: truncated header at offset {len(blob)}")
    found, *shape = struct.unpack_from(f">{head // 4}I", blob, 0)
    if found != magic:
        raise IdxParseError(f"{path}: bad magic {found} at offset 0, expected {magic}")
    expected = head + math.prod(shape)
    if len(blob) != expected:
        raise IdxParseError(f"{path}: expected {expected} bytes, got {len(blob)} "
                            f"(truncation at offset {len(blob)})")
    return np.frombuffer(blob, dtype=np.uint8, offset=head).reshape(shape)


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


def load_idx_images(images_path: str, labels_path: str,
                    class_pair: Tuple[int, int]) -> Dataset:
    """Filter an IDX image/label pair to two classes, relabeled {0, 1}.

    Pixels are scaled to [0, 1] and images flattened to rows*cols features.
    """
    images = _read_idx(images_path, IDX_IMAGES_MAGIC)
    labels = _read_idx(labels_path, IDX_LABELS_MAGIC)
    if images.shape[0] != labels.shape[0]:
        raise IdxParseError(f"image/label count mismatch: {images.shape[0]} vs {labels.shape[0]}")
    a, b = class_pair
    keep = (labels == a) | (labels == b)
    if not np.any(keep):
        import warnings
        warnings.warn(f"class pair {class_pair} selects no samples")
    n_pixels = images.shape[1] * images.shape[2]
    images = images[keep]
    y = (labels[keep] == b).astype(int)
    x = images.reshape(images.shape[0], n_pixels).astype(np.float64) / 255.0
    ids = [f"idx-{i}" for i in np.where(keep)[0]]
    return Dataset(ids=ids, X=x, y_true=y)


# ---------------------------------------------------------------------------
# The given model
# ---------------------------------------------------------------------------

class MlpModel(BlackBoxModel):
    """A trained MLP classifier playing the role of the black box."""

    def __init__(self, net: Mlp):
        self.net = net

    @property
    def d(self) -> int:
        return self.net.in_dim

    @property
    def c(self) -> int:
        return self.net.out_dim

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        return self.net.predict(x)

    def gradient(self, x: np.ndarray, class_index) -> np.ndarray:
        """Exact d(output_class)/dx for rows x (n, d) with indices (n,): row i
        of the (n, d) result holds the gradient of out[i, class_index[i]]. The
        rows share one graph: the backward of sum_i out[i, class_index[i]]
        yields every row's gradient at once."""
        xv = ad.Var(np.asarray(x, dtype=np.float64))
        out = self.net.forward_var(xv, self.net.make_leaves())
        ad.backward(ad.sum_along(ad.mul(out, np.eye(self.c)[class_index])))
        return xv.grad

    def randomize(self, rng: np.random.Generator) -> None:
        fresh = Mlp(self.net.in_dim, self.net.layers, rng=rng)
        self.net.set_parameters(fresh.parameters)


def train_given_model(dataset: Dataset, hidden: Sequence[int] = (32, 32),
                      seed: int = 0, epochs: int = 30, batch_size: int = 64,
                      learning_rate: float = 1e-3,
                      n_classes: Optional[int] = None) -> MlpModel:
    """Fit the model-to-be-explained on true labels (the only label consumer)."""
    if dataset.y_true is None:
        raise ValueError("train_given_model needs true labels")
    labels = np.asarray(dataset.y_true, dtype=int)
    targets = np.eye(n_classes or int(labels.max()) + 1)[labels]
    return MlpModel(fit_classifier(dataset.X, targets, hidden, epochs, named_rng(seed, "model"),
                                   learning_rate=learning_rate, batch_size=batch_size))


MODEL_MAGIC = b"MEEDMODL"
MODEL_VERSION = 2


def save_model(model: MlpModel, path: str) -> None:
    net = model.net
    write_record(path, MODEL_MAGIC, MODEL_VERSION, {"in_dim": net.in_dim, "layers": net.layers},
                 {"params": net.parameters})


def load_model(path: str) -> MlpModel:
    """Read a model file; any malformed or incompatible file raises ModelFileError."""
    header, vectors = read_record(path, MODEL_MAGIC, MODEL_VERSION, ModelFileError)
    try:
        layers = [tuple(layer) for layer in header["layers"]]
        return MlpModel(Mlp(int(header["in_dim"]), layers, parameters=vectors["params"]))
    except (IndexError, KeyError, TypeError, ValueError) as exc:
        raise ModelFileError(f"{path}: bad model header: {exc!r}") from exc


def model_accuracy(model: MlpModel, dataset: Dataset) -> float:
    pred = np.argmax(model.evaluate(dataset.X), axis=1)
    return float(np.mean(pred == np.asarray(dataset.y_true)))
