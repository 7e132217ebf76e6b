"""Minimal reverse-mode automatic differentiation over numpy arrays.

Holds exactly the ops the training graph runs: const and param leaves,
gather_rows, segment_mean and l2_normalize_rows, plus backward(root,
seed). Each Tensor has one backward(g) that returns the gradient of
every parent, in parent order, so a node's vector-Jacobian product runs
once per pass. A coarse op elsewhere, such as decoder.decoder_losses or
training's evidence node (its forward is inference's aggregation.weigh),
is a Tensor whose backward it derives by hand. The training tape's root
is the decoder's (2, B) per-sample losses, seeded with each row's weight
in the objective.
This module imports no other alignrag module.
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


def gather_rows(m: Tensor, ids) -> Tensor:
    ids = np.asarray(ids, dtype=np.intp)

    def backward(g):
        # Scatter-add into the flattened table: np.add.at is several times
        # faster on 1-D input, and adds the same terms in the same order.
        out = np.zeros(m.value.shape)
        cols = out.shape[1]
        flat = (ids.reshape(-1, 1) * cols + np.arange(cols)).reshape(-1)
        np.add.at(out.reshape(-1), flat, g.reshape(-1))
        return (out,)

    return Tensor(m.value[ids], parents=(m,), backward=backward)


def segment_mean(m: Tensor, lengths) -> Tensor:
    """Mean of each run of consecutive rows: segment i is the next lengths[i] rows of m."""
    lengths = np.asarray(lengths, dtype=np.intp)
    if lengths.size == 0 or lengths.min() < 1 or lengths.sum() != m.value.shape[0]:
        raise ValueError("segments must be non-empty and cover every row exactly once")
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    counts = lengths[:, None].astype(np.float64)
    return Tensor(
        np.add.reduceat(m.value, starts, axis=0) / counts,
        parents=(m,),
        backward=lambda g: (np.repeat(g / counts, lengths, axis=0),),
    )


def l2_normalize_rows(m: Tensor) -> Tensor:
    """Each row of a (k, n) matrix divided by its Euclidean norm."""
    norms = np.sqrt(np.einsum("ij,ij->i", m.value, m.value))[:, None]
    out = m.value / norms
    return Tensor(
        out,
        parents=(m,),
        backward=lambda g: ((g - out * np.sum(g * out, axis=1, keepdims=True)) / norms,),
    )


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
