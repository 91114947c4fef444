"""Minimal reverse-mode automatic differentiation over float64 numpy arrays.

The tape is coarse. It holds the explainer's graph, whose scores
(`Mlp.forward_var`), relaxed top-k, prior fusion, constraint loss and frozen
pair outputs are one node each with a closed-form VJP, and the pair's loss
L_s + lambda_u*L_u, one node for either adversary. The approximator step runs
the pair's `Mlp` kernel itself around that loss node. This module keeps only
the graph, the backward pass, and the `add` that joins L_e to the pair's loss.
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
