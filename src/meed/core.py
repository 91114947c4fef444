"""Shared domain types and the small differentiable MLP everything is built on.

All arrays are float64. Networks keep their trainable parameters in one flat
vector so optimizers and checkpoints can treat them uniformly.
"""

from __future__ import annotations

import json
import os
import struct
import typing
from dataclasses import MISSING, dataclass, fields
from typing import Optional, Sequence

import numpy as np

from . import autodiff as ad

SIMPLEX_TOL = 1e-6


class ShapeError(ValueError):
    """Input shape does not match a network's architecture."""


class ConfigError(ValueError):
    """Invalid configuration value."""


def is_simplex(vec: np.ndarray, tol: float = SIMPLEX_TOL) -> bool:
    """True when every vector along the last axis is a distribution (NaN and
    inf entries fail)."""
    vec = np.asarray(vec)
    return bool(np.all(vec >= 0.0) and np.all(np.abs(vec.sum(axis=-1) - 1.0) <= tol))


@dataclass(frozen=True)
class SelectionSet:
    """Hard selection of k feature indices out of d."""

    indices: tuple
    d: int

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        object.__setattr__(self, "indices", idx)
        if not 1 <= len(idx) <= self.d:
            raise ValueError("need 1 <= k <= d")
        if any(i < 0 or i >= self.d for i in idx):
            raise ValueError("index out of range")
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ValueError("indices must be strictly increasing")


@dataclass
class TrainConfig:
    """Hyperparameters for the alternating training loop."""

    k: int
    epochs: int
    seed: int = 0
    tau: float = 0.5
    lambda_u: float = 1.0
    lambda_e: float = 0.0
    batch_size: int = 64
    optimizer: str = "adam"
    learning_rate: float = 1e-3
    decay: float = 0.0
    loss_u: str = "cross-entropy"
    use_output_feedback: bool = True
    prior_method: str = "none"
    n_projections: int = 128

    def __post_init__(self):
        if self.tau <= 0:
            raise ConfigError("tau must be positive")
        if self.k < 1:
            raise ConfigError("k must be >= 1")
        if self.loss_u not in ("cross-entropy", "sliced-wasserstein"):
            raise ConfigError(f"unknown loss_u: {self.loss_u}")
        if self.optimizer not in ("sgd", "rmsprop", "adadelta", "adam"):
            raise ConfigError(f"unknown optimizer: {self.optimizer}")
        if self.prior_method not in ("none", "grad", "gradient-times-input"):
            raise ConfigError(f"unknown prior_method: {self.prior_method}")
        if self.lambda_u < 0 or self.lambda_e < 0:
            raise ConfigError("lambda_u and lambda_e must be nonnegative")
        if self.epochs < 0:
            raise ConfigError("epochs must be nonnegative")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if self.n_projections < 1:
            raise ConfigError("n_projections must be >= 1")

    @classmethod
    def from_strings(cls, mapping: dict) -> "TrainConfig":
        """Build from text values (a config file section or a checkpoint),
        converted by each field's annotated type; unset fields keep their
        defaults."""
        types = typing.get_type_hints(cls)
        unknown = sorted(set(mapping) - set(types))
        if unknown:
            raise ConfigError(f"unknown train key(s): {', '.join(unknown)}")
        missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in mapping]
        if missing:
            raise ConfigError(f"missing required config key: {missing[0]}")
        kwargs = {}
        for name, text in mapping.items():
            try:
                kwargs[name] = _FROM_TEXT[types[name]](text)
            except ValueError as exc:
                raise ConfigError(f"bad value for config key {name}: {exc}") from exc
        return cls(**kwargs)


def parse_bool(val: str) -> bool:
    if val.lower() in ("true", "1", "yes"):
        return True
    if val.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {val}")


def parse_int_tuple(val: str) -> tuple:
    """Comma-separated integers; the empty string is the empty tuple."""
    return tuple(int(v) for v in val.split(",")) if val else ()


_FROM_TEXT = {int: int, float: float, str: str, bool: parse_bool}


# ---------------------------------------------------------------------------
# Binary record files (checkpoints and model files)
# ---------------------------------------------------------------------------

def write_record(path: str, magic: bytes, version: int, header: dict,
                 vectors: dict) -> None:
    """Atomically write magic, u32 version, a length-prefixed JSON header that
    names the vectors, then one length-prefixed section per vector holding a
    u64 count and its little-endian float64 values."""
    head = json.dumps({**header, "vectors": list(vectors)}, sort_keys=True).encode("utf-8")
    parts = [magic, struct.pack("<I", version), struct.pack("<Q", len(head)), head]
    for vec in vectors.values():
        vec = np.asarray(vec, dtype="<f8").ravel()
        parts += [struct.pack("<QQ", 8 + 8 * vec.size, vec.size), vec.tobytes()]
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(b"".join(parts))
    os.replace(tmp, path)


def read_record(path: str, magic: bytes, version: int, error: type) -> tuple:
    """(header, {name: float64 vector}) of a file written by `write_record`;
    any malformed, truncated or other-version file raises `error`."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:len(magic)] != magic:
        raise error(f"{path}: bad magic, expected {magic!r}")
    offset = len(magic) + 4
    found = struct.unpack_from("<I", blob, len(magic))[0] if len(blob) >= offset else None
    if found != version:
        raise error(f"{path}: format version {found}, library supports {version}")
    sections = []
    while offset < len(blob):
        length = struct.unpack_from("<Q", blob, offset)[0] if offset + 8 <= len(blob) else len(blob)
        if offset + 8 + length > len(blob):
            raise error(f"{path}: truncated section at offset {offset}")
        sections.append(blob[offset + 8:offset + 8 + length])
        offset += 8 + length
    try:
        header = json.loads(sections[0].decode("utf-8"))
        names = header.pop("vectors")
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        raise error(f"{path}: bad header section: {exc!r}") from exc
    if (not isinstance(names, list) or not all(isinstance(n, str) for n in names)
            or len(set(names)) != len(names) or len(names) != len(sections) - 1):
        raise error(f"{path}: header names {names!r}, file holds {len(sections) - 1} vectors")
    vectors = {}
    for name, body in zip(names, sections[1:]):
        if len(body) < 8 or len(body) != 8 + 8 * struct.unpack_from("<Q", body)[0]:
            raise error(f"{path}: vector section {name} does not hold its count")
        vectors[name] = np.frombuffer(body, dtype="<f8", offset=8).astype(np.float64)
    return header, vectors


class BlackBoxModel:
    """Contract for the model being explained: deterministic x -> y."""

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def randomize(self, rng: np.random.Generator) -> None:
        """Reinitialize parameters (sanity randomization tests only)."""
        raise NotImplementedError


def named_rng(seed: int, stream: str) -> np.random.Generator:
    """Independent substream of the run seed, keyed by a stream name."""
    streams = {"data": 0, "init": 1, "gumbel": 2, "perturb": 3, "model": 4}
    key = streams[stream]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(key,))))


# ---------------------------------------------------------------------------
# Differentiable network
# ---------------------------------------------------------------------------

Layer = tuple  # ("dense", width) | ("relu",) | ("softmax",)


def classifier_layers(hidden: Sequence[int], out: int) -> list:
    """dense(h)/relu for each hidden width, then dense(out) and softmax."""
    layers = []
    for h in hidden:
        layers += [("dense", int(h)), ("relu",)]
    return layers + [("dense", int(out)), ("softmax",)]


def _glorot_limit(fan_in: int, fan_out: int) -> float:
    return float(np.sqrt(6.0 / (fan_in + fan_out)))


class Mlp:
    """Feed-forward net over a flat float64 parameter vector.

    Layers are drawn from dense(width), relu and softmax. Weights use
    uniform Glorot initialization from the provided RNG; biases start at 0.
    """

    def __init__(self, in_dim: int, layers: Sequence[Layer], rng: Optional[np.random.Generator] = None,
                 parameters: Optional[np.ndarray] = None):
        self.in_dim = int(in_dim)
        self.layers = [tuple(l) for l in layers]
        self._slices = []  # (w_slice, w_shape, b_slice) per dense layer
        width = self.in_dim
        offset = 0
        for i, layer in enumerate(self.layers):
            kind = layer[0]
            if kind == "dense":
                out = int(layer[1])
                w_size = width * out
                self._slices.append((slice(offset, offset + w_size), (width, out),
                                     slice(offset + w_size, offset + w_size + out)))
                offset += w_size + out
                width = out
            elif kind in ("relu", "softmax"):
                pass
            else:
                raise ConfigError(f"unknown layer kind at position {i}: {kind}")
        self.out_dim = width
        self.n_params = offset
        if parameters is not None:
            params = np.asarray(parameters, dtype=np.float64)
            if params.shape != (self.n_params,):
                raise ShapeError(f"expected {self.n_params} parameters, got {params.shape}")
            self._params = params.copy()
        else:
            self._params = np.zeros(self.n_params)
            if rng is None:
                rng = np.random.default_rng(0)
            for w_sl, w_shape, _ in self._slices:
                lim = _glorot_limit(*w_shape)
                self._params[w_sl] = rng.uniform(-lim, lim, size=w_shape[0] * w_shape[1])

    @property
    def parameters(self) -> np.ndarray:
        return self._params

    def set_parameters(self, vec: np.ndarray) -> None:
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != (self.n_params,):
            raise ShapeError(f"expected {self.n_params} parameters, got {vec.shape}")
        self._params[:] = vec

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Fast forward pass without building a graph."""
        x = np.asarray(x, dtype=np.float64)
        squeeze = x.ndim == 1
        h = x[None, :] if squeeze else x
        if h.shape[1] != self.in_dim:
            raise ShapeError(f"dense layer 0 expects input width {self.in_dim}, got {h.shape[1]}")
        dense_i = 0
        for layer in self.layers:
            if layer[0] == "dense":
                w_sl, w_shape, b_sl = self._slices[dense_i]
                w = self._params[w_sl].reshape(w_shape)
                b = self._params[b_sl]
                h = h @ w + b
                dense_i += 1
            elif layer[0] == "relu":
                h = np.maximum(h, 0.0)
            else:  # softmax
                e = np.exp(h - h.max(axis=1, keepdims=True))
                h = e / e.sum(axis=1, keepdims=True)
        return h[0] if squeeze else h

    def make_leaves(self) -> list:
        """Fresh graph leaves (one Var per weight matrix / bias vector)."""
        leaves = []
        for w_sl, w_shape, b_sl in self._slices:
            leaves.append(ad.Var(self._params[w_sl].reshape(w_shape)))
            leaves.append(ad.Var(self._params[b_sl]))
        return leaves

    def forward_var(self, x, leaves) -> ad.Var:
        h = ad.as_var(x)
        if h.value.ndim != 2 or h.value.shape[1] != self.in_dim:
            raise ShapeError(
                f"dense layer 0 expects input width {self.in_dim}, got {h.value.shape}")
        dense_i = 0
        for layer in self.layers:
            if layer[0] == "dense":
                w = leaves[2 * dense_i]
                b = leaves[2 * dense_i + 1]
                h = ad.add(ad.matmul(h, w), b)
                dense_i += 1
            elif layer[0] == "relu":
                h = ad.relu(h)
            else:
                h = ad.softmax(h, axis=1)
        return h

    def grad_from_leaves(self, leaves) -> np.ndarray:
        flat = np.zeros(self.n_params)
        for i, (w_sl, w_shape, b_sl) in enumerate(self._slices):
            gw = leaves[2 * i].grad
            gb = leaves[2 * i + 1].grad
            flat[w_sl] = (gw if gw is not None else np.zeros(w_shape)).ravel()
            flat[b_sl] = gb if gb is not None else 0.0
        return flat

