"""Shared fixtures and helpers for the test suite."""

import os
import struct

import numpy as np
import pytest
from hypothesis import strategies as st

from meed import autodiff as ad
from meed.core import Mlp, named_rng
from meed.data import Dataset, MlpModel, SyntheticSpec, generate_synthetic, split_dataset, train_given_model


def finite_difference(fn, params: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar function of a flat vector."""
    grad = np.zeros_like(params)
    for i in range(len(params)):
        bumped = params.copy()
        bumped[i] += step
        hi = fn(bumped)
        bumped[i] -= 2 * step
        lo = fn(bumped)
        grad[i] = (hi - lo) / (2 * step)
    return grad


def parameter_finite_difference(net, fn, step: float = 1e-6) -> np.ndarray:
    """Central finite differences of the scalar fn() in the flat parameters of
    `net`, each perturbation set through `set_parameters`; the parameters are
    restored after."""
    base = net.parameters.copy()

    def at(params):
        net.set_parameters(params)
        return fn()

    try:
        return finite_difference(at, base, step)
    finally:
        net.set_parameters(base)


def weighted_sum(out, weights=1.0):
    """A scalar tape node, sum(out * weights), that depends on every entry of
    the Var `out`."""
    weights = np.broadcast_to(np.asarray(weights, dtype=np.float64), out.value.shape)
    return ad.Var((out.value * weights).sum(), (out,), lambda g: (g * weights,))


def relative_error(approx: np.ndarray, exact: np.ndarray) -> float:
    denom = max(np.linalg.norm(exact), 1e-12)
    return np.linalg.norm(approx - exact) / denom


# Model file layer lists that `save_model` never writes, each with the
# parameter count it implies at in_dim 3: ending in relu, two softmaxes, none.
BAD_LAYER_LISTS = [([["dense", 2], ["relu"]], 8),
                   ([["dense", 2], ["softmax"], ["dense", 2], ["softmax"]], 14),
                   ([], 0)]


def record_sections(blob: bytes) -> list:
    """Offset of each section's length field in a record file (8-byte magic,
    u32 version): the JSON header, then one per vector."""
    offsets, pos = [], 12
    while pos < len(blob):
        offsets.append(pos)
        pos += 8 + struct.unpack_from("<Q", blob, pos)[0]
    return offsets


def damage_record(blob: bytes, data) -> bytes:
    """A hypothesis-drawn truncation of a record file, or a flip of one of its
    magic, version, section-length or vector-count bytes."""
    if data.draw(st.booleans(), label="truncate"):
        return blob[:data.draw(st.integers(0, len(blob) - 1), label="length")]
    fields = list(range(12))  # magic and version
    for pos in record_sections(blob):
        fields += range(pos, pos + 8)
    for pos in record_sections(blob)[1:]:
        fields += range(pos + 8, pos + 16)  # vector element counts
    pos = data.draw(st.sampled_from(fields), label="byte")
    damaged = bytearray(blob)
    damaged[pos] ^= data.draw(st.integers(1, 255), label="xor")
    return bytes(damaged)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def tiny_model():
    """A small trained model over 6 features, 2 classes."""
    spec = SyntheticSpec(d=6, true_subset=(0, 1), n=2400, noise_std=0.1,
                         kind="sparse-logit", seed=11)
    ds, subset = generate_synthetic(spec)
    tr, va, te = split_dataset(ds)
    model = train_given_model(tr, hidden=(16,), seed=0, epochs=30)
    return model, tr, te, subset


@pytest.fixture
def feature_set(tiny_model):
    _, tr, _, _ = tiny_model
    return Dataset(ids=list(tr.ids), X=tr.X)


def mnist_dir():
    """Directory holding the four standard IDX files, if present."""
    candidates = [os.environ.get("MEED_MNIST_DIR", ""),
                  os.path.join(os.path.dirname(__file__), "..", "data", "mnist")]
    names = ("train-images-idx3-ubyte", "train-labels-idx1-ubyte",
             "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte")
    for cand in candidates:
        if cand and all(os.path.exists(os.path.join(cand, n)) for n in names):
            return cand
    return None
