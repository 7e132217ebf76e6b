"""Minimal reverse-mode automatic differentiation over numpy arrays.

Holds exactly the ops the training graph runs: const and param leaves,
add, scale, gather_rows, row, segment_mean, sum_all and
l2_normalize_rows, plus backward. A coarse op elsewhere, such as
decoder.decoder_losses or training's evidence node (its forward is
inference's aggregation.weigh), is a Tensor whose grad_fns it derives by
hand. Shapes are scalars, vectors, and matrices; the only broadcasting
allowed is scalar-with-array.
This module imports no other alignrag module.
"""
from __future__ import annotations

import numpy as np


class Tensor:
    __slots__ = ("value", "grad", "parents", "grad_fns", "requires_grad")

    def __init__(self, value, parents=(), grad_fns=(), requires_grad=False):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self.parents = parents
        self.grad_fns = grad_fns
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)


def const(value) -> Tensor:
    return Tensor(value)


def param(value) -> Tensor:
    return Tensor(value, requires_grad=True)


def _unbroadcast(grad, shape):
    """Reduce a gradient back to `shape` after scalar broadcasting."""
    if grad.shape == tuple(shape):
        return grad
    if shape == ():
        return np.sum(grad)
    raise ValueError(f"cannot reduce grad of shape {grad.shape} to {shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    return Tensor(
        a.value + b.value,
        parents=(a, b),
        grad_fns=(
            lambda g: _unbroadcast(g, a.value.shape),
            lambda g: _unbroadcast(g, b.value.shape),
        ),
    )


def scale(a: Tensor, c: float) -> Tensor:
    return Tensor(a.value * c, parents=(a,), grad_fns=(lambda g: g * c,))


def gather_rows(m: Tensor, ids) -> Tensor:
    ids = np.asarray(ids, dtype=np.intp)

    def grad_m(g):
        # Scatter-add into the flattened table: np.add.at is several times
        # faster on 1-D input, and adds the same terms in the same order.
        out = np.zeros(m.value.shape)
        cols = out.shape[1]
        flat = (ids.reshape(-1, 1) * cols + np.arange(cols)).reshape(-1)
        np.add.at(out.reshape(-1), flat, g.reshape(-1))
        return out

    return Tensor(m.value[ids], parents=(m,), grad_fns=(grad_m,))


def row(m: Tensor, i: int) -> Tensor:
    def grad_m(g):
        out = np.zeros_like(m.value)
        out[i] = g
        return out

    return Tensor(m.value[i], parents=(m,), grad_fns=(grad_m,))


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
        grad_fns=(lambda g: np.repeat(g / counts, lengths, axis=0),),
    )


def sum_all(t: Tensor) -> Tensor:
    return Tensor(np.sum(t.value), parents=(t,), grad_fns=(lambda g: g * np.ones_like(t.value),))


def l2_normalize_rows(m: Tensor) -> Tensor:
    """Each row of a (k, n) matrix divided by its Euclidean norm."""
    norms = np.sqrt(np.einsum("ij,ij->i", m.value, m.value))[:, None]
    out = m.value / norms
    return Tensor(
        out,
        parents=(m,),
        grad_fns=(lambda g: (g - out * np.sum(g * out, axis=1, keepdims=True)) / norms,),
    )


def backward(loss: Tensor) -> None:
    """Accumulate gradients of a scalar loss into every reachable tensor."""
    if loss.value.shape != ():
        raise ValueError("backward requires a scalar loss")
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
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
    loss.grad = np.ones(())
    for node in reversed(topo):
        if node.grad is None:
            continue
        for parent, fn in zip(node.parents, node.grad_fns):
            if not parent.requires_grad:
                continue
            g = fn(node.grad)
            parent.grad = g if parent.grad is None else parent.grad + g
