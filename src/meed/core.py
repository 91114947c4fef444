"""Shared domain types and the small differentiable MLP everything is built on.

All arrays are float64. Networks keep their trainable parameters in one flat
vector so optimizers and checkpoints can treat them uniformly.
"""

from __future__ import annotations

import copy
import functools
import json
import math
import operator
import os
import struct
import typing
from dataclasses import MISSING, dataclass, field, fields
from typing import Optional, Sequence

import numpy as np

from . import autodiff as ad

SIMPLEX_TOL = 1e-6


class ShapeError(ValueError):
    """Input shape does not match a network's architecture."""


class ConfigError(ValueError):
    """Invalid configuration value."""


def is_simplex(vec: np.ndarray) -> bool:
    """True when every vector along the last axis is a distribution (NaN and
    inf entries fail)."""
    vec = np.asarray(vec)
    return bool(np.all(vec >= 0.0) and np.all(np.abs(vec.sum(axis=-1) - 1.0) <= SIMPLEX_TOL))


def checked_features(x) -> np.ndarray:
    """x as float64 once it is an (n, d) array of finite values; else ShapeError
    naming its shape or its first non-finite entry by row and column."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"features must be an (n, d) array, got shape {x.shape}")
    bad = np.argwhere(~np.isfinite(x))
    if len(bad):
        row, col = bad[0]
        raise ShapeError(f"features must be finite values, row {row} column {col} "
                         f"holds {x[row, col]}")
    return x


def checked_outputs(y, n: int, what: str = "model outputs") -> np.ndarray:
    """y as float64 once it holds (n, c) rows of finite values on the
    probability simplex, c >= 2; anything else raises ShapeError naming `what`."""
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 2 or len(y) != n or not is_simplex(y):
        raise ShapeError(f"{what} must be ({n}, c) rows of finite values on the "
                         f"probability simplex, got shape {y.shape}")
    if y.shape[1] < 2:
        raise ShapeError(f"{what} must have c >= 2 classes, got shape {y.shape}")
    return y


def int_indices(values, error: type, what: str = "indices") -> tuple:
    """Sequence values as ints by `operator.index` (no bools); else `error` naming the entry."""
    try:
        if bool in map(type, values):
            raise TypeError
        return tuple(map(operator.index, values))
    except TypeError:
        bad = next((v for v in values if type(v) is bool or not isinstance(v, (int, np.integer))),
                   values)
        raise error(f"{what} must be integers, got {bad!r}") from None


@dataclass(frozen=True)
class SelectionSet:
    """Hard selection of k feature indices out of d."""

    indices: tuple
    d: int

    def __post_init__(self):
        idx = int_indices(self.indices, ValueError)
        object.__setattr__(self, "indices", idx)
        # One test passes a valid set; an invalid one raises the first rule it breaks.
        if idx and idx[0] >= 0 and idx[-1] < self.d and all(map(int.__lt__, idx, idx[1:])):
            return
        if not 1 <= len(idx) <= self.d:
            raise ValueError("need 1 <= k <= d")
        if any(i < 0 or i >= self.d for i in idx):
            raise ValueError("index out of range")
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ValueError("indices must be strictly increasing")


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for the alternating training loop."""

    k: int = field(metadata={"ge": 1})
    epochs: int = field(metadata={"ge": 0})
    seed: int = field(default=0, metadata={"ge": 0})
    tau: float = field(default=0.5, metadata={"gt": 0})
    lambda_u: float = field(default=1.0, metadata={"ge": 0})
    lambda_e: float = field(default=0.0, metadata={"ge": 0})
    batch_size: int = field(default=64, metadata={"ge": 1})
    learning_rate: float = field(default=1e-3, metadata={"gt": 0})
    loss_u: str = field(default="cross-entropy",
                        metadata={"choices": ("cross-entropy", "sliced-wasserstein")})
    use_output_feedback: bool = True
    prior_method: str = field(default="none",
                              metadata={"choices": ("none", "grad", "gradient-times-input")})
    n_projections: int = field(default=128, metadata={"ge": 1})

    def __post_init__(self):
        check_fields(self)


_field_types = functools.cache(typing.get_type_hints)  # {field: annotated type} of a dataclass


def _of_type(name: str, kind: type, value):
    """`value` as a field of annotated type `kind` holds it, numpy integers as ints
    (in a tuple too); a bool as a number, or another type, raises ConfigError naming `name`."""
    if kind is tuple and isinstance(value, tuple):
        return int_indices(value, ConfigError, f"config key {name} entries")
    whole = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if kind in (int, float) and whole:
        return operator.index(value)
    if kind in (float, bool, str) and isinstance(value, kind):
        return value
    raise ConfigError(f"bad type for config key {name}: {value!r}, need {kind.__name__}")


def check_fields(obj) -> None:
    """Sets each field of the dataclass `obj` to its value of the field's annotated
    type (`_of_type`); then ConfigError naming the first field that holds a non-finite
    float or breaks its metadata: `choices`, or a lower bound `ge` or `gt` (per tuple entry)."""
    types = _field_types(type(obj))
    for f in fields(obj):
        value, meta = _of_type(f.name, types[f.name], getattr(obj, f.name)), f.metadata
        object.__setattr__(obj, f.name, value)
        entries = value if isinstance(value, tuple) else (value,)
        if (any(isinstance(v, float) and not math.isfinite(v)
                or "ge" in meta and v < meta["ge"] or "gt" in meta and v <= meta["gt"]
                for v in entries) or "choices" in meta and value not in meta["choices"]):
            rule = "".join(f" {op} {meta[key]}" for key, op in (("ge", ">="), ("gt", ">"))
                           if key in meta)
            need = ("one of " + ", ".join(meta["choices"]) if "choices" in meta
                    else f"finite values{rule}")
            raise ConfigError(f"bad value for config key {f.name}: {value!r}, need {need}")


def parse_bool(val: str) -> bool:
    if val.lower() in ("true", "1", "yes"):
        return True
    if val.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {val}")


def parse_int_tuple(val: str) -> tuple:
    """Comma-separated integers; the empty string is the empty tuple."""
    return tuple(int(v) for v in val.split(",")) if val else ()


_FROM_TEXT = {int: int, float: float, str: str, bool: parse_bool, tuple: parse_int_tuple}


def from_strings(cls, mapping: dict, section: str):
    """The dataclass `cls` from text values (a config section, checkpoint header
    or report), each converted by its field's annotated type; unset fields keep
    their defaults. Unknown or missing keys and bad values raise ConfigError."""
    types = _field_types(cls)
    unknown = sorted(set(mapping) - set(types))
    if unknown:
        raise ConfigError(f"unknown [{section}] key(s): {', '.join(unknown)}")
    missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in mapping]
    if missing:
        raise ConfigError(f"missing required [{section}] key: {missing[0]}")
    kwargs = {}
    for name, text in mapping.items():
        try:
            kwargs[name] = _FROM_TEXT[types[name]](text)
        except ValueError as exc:
            raise ConfigError(f"bad value for config key {name}: {exc}") from exc
    return cls(**kwargs)


def read_text(path: str, error: type) -> str:
    """A text file's contents; bytes that are not UTF-8 raise `error` naming the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text: {exc}") from exc


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
    any malformed, truncated, other-version or non-finite file raises `error`."""
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
        if not np.all(np.isfinite(vectors[name])):
            raise error(f"{path}: vector {name} holds non-finite values")
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
    streams = {"data": 0, "init": 1, "gumbel": 2, "perturb": 3, "model": 4, "sanity": 5}
    key = streams[stream]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(key,))))


# ---------------------------------------------------------------------------
# Differentiable network
# ---------------------------------------------------------------------------

def _glorot_limit(fan_in: int, fan_out: int) -> float:
    return float(np.sqrt(6.0 / (fan_in + fan_out)))


def _rows(op: np.ufunc, h: np.ndarray) -> np.ndarray:
    """`op.reduce` over h's last axis, kept; a row (d,) reduces to a scalar. At
    width 2 (a two-class softmax) it is one op of the two columns: the same
    IEEE result, without the 25-60 ns a row that numpy's reductions cost there."""
    if h.ndim == 1:
        return op(h[0], h[1]) if len(h) == 2 else op.reduce(h)
    return (op(h[..., :1], h[..., 1:]) if h.shape[-1] == 2
            else op.reduce(h, axis=-1, keepdims=True))


class Mlp:
    """Softmax classifier over a flat float64 parameter vector.

    One dense layer per width in `widths`, a relu after each but the last and
    a softmax at the end. Weights use uniform Glorot initialization from the
    provided RNG; biases start at 0. With `nets=m` it holds m such nets of P
    parameters, net i's vector at `parameters[i*P:(i+1)*P]` (drawn in that
    order), and runs (m, n, in_dim) stacks.
    """

    def __init__(self, in_dim: int, widths: Sequence[int], rng: Optional[np.random.Generator] = None,
                 parameters: Optional[np.ndarray] = None, nets: int = 1):
        self.in_dim = int(in_dim)
        self.widths = tuple(int(w) for w in widths)
        self.nets = int(nets)
        if min(self.nets, self.in_dim) < 1:
            raise ConfigError(f"an Mlp holds nets >= 1 over in_dim >= 1 inputs, got nets="
                              f"{self.nets} and in_dim={self.in_dim}")
        self._slices = []  # (w_slice, w_shape, b_slice) per dense layer, within one net's vector
        width = self.in_dim
        offset = 0
        for i, out in enumerate(self.widths):
            if out < 1:
                raise ConfigError(f"dense layer {i} needs width >= 1, got {out}")
            w_size = width * out
            self._slices.append((slice(offset, offset + w_size), (width, out),
                                 slice(offset + w_size, offset + w_size + out)))
            offset += w_size + out
            width = out
        self.out_dim = width
        self.n_params = offset * self.nets
        self._views = {}  # stack shape -> (W, b) views of self._params per dense layer
        if parameters is not None:
            params = np.asarray(parameters, dtype=np.float64)
            if params.shape != (self.n_params,):
                raise ShapeError(f"expected {self.n_params} parameters, got {params.shape}")
            self._params = params.copy()
        else:
            self._params = np.zeros(self.n_params)
            rng = np.random.default_rng(0) if rng is None else rng
            for net in self._params.reshape(self.nets, offset):
                for w_sl, w_shape, _ in self._slices:
                    lim = _glorot_limit(*w_shape)
                    net[w_sl] = rng.uniform(-lim, lim, size=w_shape[0] * w_shape[1])

    @property
    def parameters(self) -> np.ndarray:
        return self._params

    def set_parameters(self, vec: np.ndarray) -> None:
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != (self.n_params,):
            raise ShapeError(f"expected {self.n_params} parameters, got {vec.shape}")
        self._params[:] = vec

    def __getstate__(self) -> dict:
        """Copies (`view` and `copy.deepcopy` too) and pickles drop the layer
        views, which would still read this net's vector; each builds its own."""
        return {**self.__dict__, "_views": {}}

    def _layers(self, lead: tuple) -> list:
        """Each dense layer's (W, b) views of this net's vector for the stack
        shape `lead`, built once per shape. Unstacked, b is (out,), which adds
        to a row and to each row of a batch; a stack's is (nets, 1, out)."""
        if lead not in self._views:
            flat = self._params.reshape(lead + (-1,))
            self._views[lead] = [(flat[..., w_sl].reshape(lead + w_shape),
                                  flat[..., None, b_sl] if lead else flat[b_sl])
                                 for w_sl, w_shape, b_sl in self._slices]
        return self._views[lead]

    def view(self, i: int) -> "Mlp":
        """Net i of a stack as a one-net Mlp over a view of its parameters."""
        one = copy.copy(self)
        one.nets, one.n_params = 1, self.n_params // self.nets
        one._params = self._params[i * one.n_params:(i + 1) * one.n_params]
        return one

    def forward(self, x: np.ndarray, keep: bool = True) -> tuple:
        """(out, saved) for a batch x (n, in_dim), or a stack (nets, n, in_dim),
        over this net's parameters. `saved` holds what
        `backward` needs: each dense layer's input (after the relu), then the
        softmax output. With `keep=False` it stays empty, so each activation
        is freed once the next layer has read it. A one-net Mlp also runs one
        row x (in_dim,) to an (out_dim,) row, but only with `keep=False`, as
        `backward` takes batches: a row with `keep=True` or to a stack raises ShapeError."""
        # All but the matmuls run in place; x is copied only for a softmax alone.
        h = np.asarray(x, dtype=np.float64) if self._slices else np.array(x, dtype=np.float64)
        lead = h.shape[:-2]
        if (not 1 <= h.ndim <= 3 or h.shape[-1] != self.in_dim
                or (h.ndim == 3 or self.nets > 1) and lead != (self.nets,)):
            raise ShapeError(f"dense layer 0 expects input width {self.in_dim} "
                             f"for {self.nets} net(s), got {h.shape}")
        if keep and h.ndim == 1:
            raise ShapeError(f"a single row {h.shape} runs only with keep=False; "
                             f"backward takes (n, {self.in_dim}) batches")
        # A row runs np.dot (@'s dgemv, no ufunc dispatch), contiguous for the one-row batch's bits.
        h, matmul = (np.ascontiguousarray(h), np.dot) if h.ndim == 1 else (h, np.matmul)
        saved = []
        for i, (w, b) in enumerate(self._layers(lead)):
            if i:
                np.maximum(h, 0.0, out=h)
            if keep:
                saved.append(h)
            h = matmul(h, w)
            h += b
        h -= _rows(np.maximum, h)
        np.exp(h, out=h)
        h /= _rows(np.add, h)
        if keep:
            saved.append(h)
        return h, saved

    def backward(self, saved, g: np.ndarray, inputs: bool = False,
                 out: Optional[np.ndarray] = None) -> np.ndarray:
        """`g` at the output of `forward` pulled back to the flat parameters, into
        `out` (n_params,) when given, else a new vector: per dense layer one
        `a.T @ g` and one bias sum, over a stack's net axis. `inputs=True` pulls
        it back to the input instead, one `g @ W.T` a layer, with no weight gradient."""
        lead = g.shape[:-2]
        rows = lead + (-1,)  # one row of parameters per net of a stack
        if not inputs:
            g_flat = np.empty(self.n_params) if out is None else out
            g_nets = g_flat.reshape(rows)
        layers = self._layers(lead)
        y = saved[-1]
        g = y * (g - _rows(np.add, g * y))
        for i in reversed(range(len(self._slices))):
            if not inputs:
                w_sl, _, b_sl = self._slices[i]
                g_nets[..., w_sl] = (saved[i].swapaxes(-1, -2) @ g).reshape(rows)
                g_nets[..., b_sl] = g.sum(axis=-2)
            if inputs or i:
                g = g @ layers[i][0].swapaxes(-1, -2)
            if i:
                g = g * (saved[i] > 0.0)
        return g if inputs else g_flat

    def predict(self, x: np.ndarray) -> np.ndarray:
        """`forward`'s output alone; a single row x (in_dim,) gives one (out_dim,) row."""
        return self.forward(x, keep=False)[0]

    def forward_var(self, x: np.ndarray, leaf: ad.Var) -> ad.Var:
        """The whole net as one tape node over a batch x (n, in_dim). Its parent
        is `leaf`, the Var over this net's own vector (no other: ShapeError),
        so `leaf.grad` is the flat weight gradient."""
        if leaf.value is not self._params:
            raise ShapeError("a weight leaf must be the Var over this net's own parameter vector")
        out, saved = self.forward(x)
        return ad.Var(out, (leaf,), lambda g: (self.backward(saved, g),))
