"""Minimal reverse-mode automatic differentiation over float64 numpy arrays.

The tape is coarse: each network, the relaxed top-k, the prior fusion and
its constraint loss is one node whose VJP is written out in closed form where
it is defined (`Mlp.forward_var`, the sampler and the explainer), and the
pair's loss L_s + lambda_u*L_u is one node for either adversary. This module
keeps only the graph, the backward pass, and the `add` that joins the prior's
constraint loss to the pair's.
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


def value(x) -> np.ndarray:
    return x.value if isinstance(x, Var) else np.asarray(x, dtype=np.float64)


def add(a: Var, b: Var) -> Var:
    return Var(a.value + b.value, (a, b), lambda g: (g, g))


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
