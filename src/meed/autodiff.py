"""Minimal reverse-mode automatic differentiation over float64 numpy arrays.

Only the operations needed by the explainer/approximator networks and the
loss paths are implemented: dense algebra, relu, softmax, hard max, log/exp,
elementwise arithmetic with broadcasting, sorting (for sliced Wasserstein),
and reductions.
"""

from __future__ import annotations

import numpy as np


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce `grad` back to `shape` after numpy broadcasting."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Var:
    """A node in the computation graph holding a float64 array."""

    __slots__ = ("value", "grad", "_parents", "_vjps")

    def __init__(self, value, parents=(), vjps=()):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self._parents = parents
        self._vjps = vjps

    @property
    def shape(self):
        return self.value.shape

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __neg__(self):
        return mul(self, -1.0)


def as_var(x) -> Var:
    return x if isinstance(x, Var) else Var(x)


def add(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    return Var(
        a.value + b.value,
        parents=(a, b),
        vjps=(
            lambda g: _unbroadcast(g, a.value.shape),
            lambda g: _unbroadcast(g, b.value.shape),
        ),
    )


def sub(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    return Var(
        a.value - b.value,
        parents=(a, b),
        vjps=(
            lambda g: _unbroadcast(g, a.value.shape),
            lambda g: _unbroadcast(-g, b.value.shape),
        ),
    )


def mul(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    return Var(
        a.value * b.value,
        parents=(a, b),
        vjps=(
            lambda g: _unbroadcast(g * b.value, a.value.shape),
            lambda g: _unbroadcast(g * a.value, b.value.shape),
        ),
    )


def div(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    out = a.value / b.value
    return Var(
        out,
        parents=(a, b),
        vjps=(
            lambda g: _unbroadcast(g / b.value, a.value.shape),
            lambda g: _unbroadcast(-g * out / b.value, b.value.shape),
        ),
    )


def matmul(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    return Var(
        a.value @ b.value,
        parents=(a, b),
        vjps=(
            lambda g: g @ b.value.T,
            lambda g: a.value.T @ g,
        ),
    )


def relu(a) -> Var:
    a = as_var(a)
    mask = a.value > 0.0
    return Var(a.value * mask, parents=(a,), vjps=(lambda g: g * mask,))


def log(a) -> Var:
    a = as_var(a)
    return Var(np.log(a.value), parents=(a,), vjps=(lambda g: g / a.value,))


def exp(a) -> Var:
    a = as_var(a)
    out = np.exp(a.value)
    return Var(out, parents=(a,), vjps=(lambda g: g * out,))


def absolute(a) -> Var:
    a = as_var(a)
    sign = np.sign(a.value)
    return Var(np.abs(a.value), parents=(a,), vjps=(lambda g: g * sign,))


def clamp_min(a, lo: float) -> Var:
    """max(a, lo) elementwise; subgradient passes only where a > lo."""
    a = as_var(a)
    mask = a.value > lo
    return Var(np.maximum(a.value, lo), parents=(a,), vjps=(lambda g: g * mask,))


def softmax(a, axis: int = -1) -> Var:
    a = as_var(a)
    shifted = a.value - a.value.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        return s * (g - (g * s).sum(axis=axis, keepdims=True))

    return Var(s, parents=(a,), vjps=(vjp,))


def max_along(a, axis: int) -> Var:
    """Hard max over one axis; subgradient goes to the first achieving entry."""
    a = as_var(a)
    idx = np.expand_dims(np.argmax(a.value, axis=axis), axis)
    out = np.take_along_axis(a.value, idx, axis=axis).squeeze(axis)

    def vjp(g):
        full = np.zeros_like(a.value)
        np.put_along_axis(full, idx, np.expand_dims(g, axis), axis=axis)
        return full

    return Var(out, parents=(a,), vjps=(vjp,))


def sum_along(a, axis=None, keepdims: bool = False) -> Var:
    a = as_var(a)
    out = a.value.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return np.broadcast_to(g, a.value.shape).copy()

    return Var(out, parents=(a,), vjps=(vjp,))


def mean_all(a) -> Var:
    a = as_var(a)
    n = a.value.size
    return Var(
        a.value.mean(),
        parents=(a,),
        vjps=(lambda g: np.full(a.value.shape, g / n),),
    )


def expand_dims(a, axis: int) -> Var:
    a = as_var(a)
    return Var(
        np.expand_dims(a.value, axis),
        parents=(a,),
        vjps=(lambda g: g.squeeze(axis),),
    )


def sort_axis0(a) -> Var:
    """Ascending sort of each column; gradient is scattered back by position."""
    a = as_var(a)
    order = np.argsort(a.value, axis=0, kind="stable")
    out = np.take_along_axis(a.value, order, axis=0)

    def vjp(g):
        full = np.zeros_like(a.value)
        np.put_along_axis(full, order, g, axis=0)
        return full

    return Var(out, parents=(a,), vjps=(vjp,))


def backward(root: Var) -> None:
    """Accumulate gradients of a scalar `root` into every reachable Var."""
    if root.value.size != 1:
        raise ValueError("backward() requires a scalar root")
    order: list[Var] = []
    seen: set[int] = set()
    stack: list[tuple[Var, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    root.grad = np.ones_like(root.value)
    for node in reversed(order):
        if node.grad is None:
            continue
        for parent, vjp in zip(node._parents, node._vjps):
            contrib = vjp(node.grad)
            if parent.grad is None:
                parent.grad = np.zeros_like(parent.value)
            parent.grad += contrib
