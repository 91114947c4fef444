"""Minimal reverse-mode automatic differentiation over float64 numpy arrays.

The tape is coarse: each network and each loss is one node whose VJP is
written out in closed form where it is defined (`Mlp.forward_var`, the
relaxed top-k, the losses and the prior fusion), and the pair's two
cross-entropies are one node. This module keeps only the graph, the backward
pass, and the elementwise arithmetic that glues those nodes together.
"""

from __future__ import annotations

import numpy as np


class Var:
    """A node in the computation graph holding a float64 array. `backward(g)`
    maps the node's gradient g to one gradient per parent, in order."""

    __slots__ = ("value", "grad", "_parents", "_backward")

    def __init__(self, value, parents=(), backward=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self._parents = parents
        self._backward = backward


def as_var(x) -> Var:
    return x if isinstance(x, Var) else Var(x)


def value(x) -> np.ndarray:
    return x.value if isinstance(x, Var) else np.asarray(x, dtype=np.float64)


def _glue(value, operands) -> Var:
    """Node of an elementwise op over its (operand, VJP) pairs. Only Var
    operands become parents: a constant gets no gradient. A Var operand has
    the result's shape (only a constant may broadcast), so each VJP's
    gradient needs no reduction."""
    pairs = [(x, vjp) for x, vjp in operands if isinstance(x, Var)]
    return Var(value, tuple(x for x, _ in pairs), lambda g: [vjp(g) for _, vjp in pairs])


def add(a, b) -> Var:
    return _glue(value(a) + value(b), ((a, lambda g: g), (b, lambda g: g)))


def sub(a, b) -> Var:
    return _glue(value(a) - value(b), ((a, lambda g: g), (b, lambda g: -g)))


def mul(a, b) -> Var:
    av, bv = value(a), value(b)
    return _glue(av * bv, ((a, lambda g: g * bv), (b, lambda g: g * av)))


def take(a: Var, i: int) -> Var:
    """a[i] along the leading axis; its VJP is g at i and zeros elsewhere."""
    return Var(a.value[i], (a,), lambda g: (np.stack(
        [g if j == i else np.zeros_like(g) for j in range(len(a.value))]),))


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
        if node.grad is None or not node._parents:
            continue
        for parent, contrib in zip(node._parents, node._backward(node.grad)):
            # Out of place: a VJP may hand back its own input or a shared array.
            parent.grad = contrib if parent.grad is None else parent.grad + contrib
