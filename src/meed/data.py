"""Synthetic ground-truth generators, IDX image ingestion, given-model training."""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from . import autodiff as ad
from .core import BlackBoxModel, Mlp, SelectionSet, named_rng
from .trainer import fit_classifier

SYNTH_KINDS = ("sparse-logit", "xor", "shortcut-bait")


class IdxParseError(ValueError):
    """Malformed IDX file; message includes the byte offset."""


@dataclass
class Dataset:
    """Feature matrix plus optional true labels and cached model outputs."""

    ids: list
    X: np.ndarray
    y_true: Optional[np.ndarray] = None
    Y: Optional[np.ndarray] = None  # cached model outputs, filled lazily

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
            raise ValueError(f"unknown synthetic kind: {self.kind}")
        if any(i >= self.d for i in self.true_subset):
            raise ValueError("true_subset index out of range")
        if self.n < 1:
            raise ValueError("n must be >= 1")


def _sigmoid(t: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-t))


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
    ids, rows, labels = [], [], []
    true_subset = None
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header.startswith("#trueSubset="):
            txt = header[len("#trueSubset="):]
            true_subset = tuple(int(s) for s in txt.split(";")) if txt else None
        for line in fh:
            parts = line.strip().split(",")
            ids.append(parts[0])
            rows.append([float(v) for v in parts[1:-1]])
            labels.append(int(parts[-1]) if parts[-1] else -1)
    y_true = np.asarray(labels)
    if np.all(y_true == -1):
        y_true = None
    return Dataset(ids=ids, X=np.asarray(rows), y_true=y_true), true_subset


# ---------------------------------------------------------------------------
# IDX (MNIST-style) ingestion
# ---------------------------------------------------------------------------

IDX_IMAGES_MAGIC = 2051
IDX_LABELS_MAGIC = 2049


def _read_idx_images(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 16:
        raise IdxParseError(f"{path}: truncated header at offset {len(blob)}")
    magic, count, rows, cols = struct.unpack_from(">IIII", blob, 0)
    if magic != IDX_IMAGES_MAGIC:
        raise IdxParseError(f"{path}: bad magic {magic} at offset 0, expected {IDX_IMAGES_MAGIC}")
    expected = 16 + count * rows * cols
    if len(blob) != expected:
        raise IdxParseError(f"{path}: expected {expected} bytes, got {len(blob)} "
                            f"(truncation at offset {len(blob)})")
    return np.frombuffer(blob, dtype=np.uint8, offset=16).reshape(count, rows, cols)


def _read_idx_labels(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 8:
        raise IdxParseError(f"{path}: truncated header at offset {len(blob)}")
    magic, count = struct.unpack_from(">II", blob, 0)
    if magic != IDX_LABELS_MAGIC:
        raise IdxParseError(f"{path}: bad magic {magic} at offset 0, expected {IDX_LABELS_MAGIC}")
    if len(blob) != 8 + count:
        raise IdxParseError(f"{path}: expected {8 + count} bytes, got {len(blob)} "
                            f"(truncation at offset {len(blob)})")
    return np.frombuffer(blob, dtype=np.uint8, offset=8)


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
    images = _read_idx_images(images_path)
    labels = _read_idx_labels(labels_path)
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

    def gradient(self, x: np.ndarray, class_index: int) -> np.ndarray:
        """Exact d(output_class)/dx for one input vector."""
        x = np.asarray(x, dtype=np.float64)[None, :]
        leaves = self.net.make_leaves()
        xv = ad.Var(x)
        out = self.net.forward_var(xv, leaves)
        picked = ad.sum_along(ad.mul(out, np.eye(self.c)[class_index][None, :]))
        ad.backward(picked)
        return xv.grad[0].copy()

    def randomize(self, rng: np.random.Generator) -> None:
        fresh = Mlp(self.net.in_dim, self.net.layers, rng=rng)
        self.net.set_parameters(fresh.parameters)

    def copy(self) -> "MlpModel":
        return MlpModel(self.net.clone())


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
MODEL_VERSION = 1


def save_model(model: MlpModel, path: str) -> None:
    net = model.net
    arch = ";".join(":".join(str(p) for p in layer) for layer in net.layers)
    header = f"{net.in_dim}|{arch}".encode("utf-8")
    params = net.parameters.astype("<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<I", MODEL_VERSION))
        fh.write(struct.pack("<Q", len(header)) + header)
        fh.write(struct.pack("<Q", net.n_params) + params)


def load_model(path: str) -> MlpModel:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != MODEL_MAGIC:
        raise ValueError("not a MEED model file")
    (version,) = struct.unpack_from("<I", blob, 8)
    if version != MODEL_VERSION:
        raise ValueError(f"model format version mismatch: file has {version}, "
                         f"library supports {MODEL_VERSION}")
    (hlen,) = struct.unpack_from("<Q", blob, 12)
    header = blob[20:20 + hlen].decode("utf-8")
    in_dim_txt, arch_txt = header.split("|", 1)
    layers = []
    for part in arch_txt.split(";"):
        bits = part.split(":")
        layers.append((bits[0],) if len(bits) == 1 else (bits[0], int(bits[1])))
    off = 20 + hlen
    (count,) = struct.unpack_from("<Q", blob, off)
    params = np.frombuffer(blob, dtype="<f8", count=count, offset=off + 8).copy()
    return MlpModel(Mlp(int(in_dim_txt), layers, parameters=params))


def model_accuracy(model: MlpModel, dataset: Dataset) -> float:
    pred = np.argmax(model.evaluate(dataset.X), axis=1)
    return float(np.mean(pred == np.asarray(dataset.y_true)))
