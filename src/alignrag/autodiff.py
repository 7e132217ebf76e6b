"""Minimal reverse-mode automatic differentiation over numpy arrays.

Holds only the tape: Tensor, its const and param leaves, and
backward(root, seed). Each Tensor has one backward(g) that returns the
gradient of every parent, in parent order, so a node's vector-Jacobian
product runs once per pass. The training tape has two ops, each a
Tensor whose forward runs the numpy stages inference runs and whose
backward its module derives by hand: training's evidence node (encode,
select, weigh) and decoder.decoder_losses. Its root is the decoder's
(2, B) per-sample losses, seeded with each row's weight in the
objective. This module imports no other alignrag module.
"""
from __future__ import annotations

import numpy as np


class Tensor:
    __slots__ = ("value", "grad", "parents", "backward", "requires_grad")

    def __init__(self, value, parents=(), backward=None, requires_grad=False):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self.parents = parents
        self.backward = backward  # g -> one gradient per parent, in parent order
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)


def const(value) -> Tensor:
    return Tensor(value)


def param(value) -> Tensor:
    return Tensor(value, requires_grad=True)


def backward(root: Tensor, seed=None) -> None:
    """Accumulate the gradients of sum(seed * root) into every reachable tensor.

    Without a seed the root must be a scalar, and its seed is 1.
    """
    if seed is None:
        if root.value.shape != ():
            raise ValueError("backward requires a scalar loss or a seed")
        seed = np.ones(())
    seed = np.asarray(seed, dtype=np.float64)
    if seed.shape != root.value.shape:
        raise ValueError(f"seed of shape {seed.shape} for a root of shape {root.value.shape}")
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen or not node.requires_grad:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            stack.append((p, False))
    for node in topo:
        node.grad = None
    root.grad = seed
    for node in reversed(topo):
        if node.grad is None or not node.parents:
            continue
        for parent, g in zip(node.parents, node.backward(node.grad)):
            if parent.requires_grad:
                parent.grad = g if parent.grad is None else parent.grad + g
