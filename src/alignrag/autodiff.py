"""Minimal reverse-mode automatic differentiation over numpy arrays.

Supports exactly the graph the training objective needs: embedding
lookups, affine maps, softmax/log-softmax, means and norms, and one
coarse op, decoder_losses, that runs the whole teacher-forced decoder
of a minibatch with a hand-derived backward pass through time. Shapes
are scalars, vectors, and matrices; the only broadcasting allowed is
scalar-with-array.
"""
from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from .vocab import BOS_ID, EOS_ID, PAD_ID


class Tensor:
    __slots__ = ("value", "grad", "parents", "grad_fns", "requires_grad")

    def __init__(self, value, parents=(), grad_fns=(), requires_grad=False):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self.parents = parents
        self.grad_fns = grad_fns
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)

    # Operator sugar for readability; all logic lives in module functions.
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return scale(self, -1.0)

    def item(self) -> float:
        return float(self.value)


def const(value) -> Tensor:
    return Tensor(value)


def param(value) -> Tensor:
    return Tensor(value, requires_grad=True)


def detach(t: Tensor) -> Tensor:
    return Tensor(t.value)


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


def sub(a: Tensor, b: Tensor) -> Tensor:
    return Tensor(
        a.value - b.value,
        parents=(a, b),
        grad_fns=(
            lambda g: _unbroadcast(g, a.value.shape),
            lambda g: _unbroadcast(-g, b.value.shape),
        ),
    )


def mul(a: Tensor, b: Tensor) -> Tensor:
    return Tensor(
        a.value * b.value,
        parents=(a, b),
        grad_fns=(
            lambda g: _unbroadcast(g * b.value, a.value.shape),
            lambda g: _unbroadcast(g * a.value, b.value.shape),
        ),
    )


def scale(a: Tensor, c: float) -> Tensor:
    return Tensor(a.value * c, parents=(a,), grad_fns=(lambda g: g * c,))


def matvec(m: Tensor, v: Tensor) -> Tensor:
    """(r, c) matrix times (c,) vector."""
    return Tensor(
        m.value @ v.value,
        parents=(m, v),
        grad_fns=(lambda g: np.outer(g, v.value), lambda g: m.value.T @ g),
    )


def vecmat(v: Tensor, m: Tensor) -> Tensor:
    """(r,) vector times (r, c) matrix."""
    return Tensor(
        v.value @ m.value,
        parents=(v, m),
        grad_fns=(lambda g: m.value @ g, lambda g: np.outer(v.value, g)),
    )


def dot(a: Tensor, b: Tensor) -> Tensor:
    return Tensor(
        a.value @ b.value,
        parents=(a, b),
        grad_fns=(lambda g: g * b.value, lambda g: g * a.value),
    )


def concat(a: Tensor, b: Tensor) -> Tensor:
    na = a.value.shape[0]
    return Tensor(
        np.concatenate([a.value, b.value]),
        parents=(a, b),
        grad_fns=(lambda g: g[:na], lambda g: g[na:]),
    )


def stack(rows: Sequence[Tensor]) -> Tensor:
    """(B, n) matrix whose row i is the (n,) vector rows[i]."""
    return Tensor(
        np.stack([r.value for r in rows]),
        parents=tuple(rows),
        grad_fns=tuple((lambda g, i=i: g[i]) for i in range(len(rows))),
    )


def gather_rows(m: Tensor, ids) -> Tensor:
    ids = np.asarray(ids, dtype=np.intp)

    def grad_m(g):
        out = np.zeros_like(m.value)
        np.add.at(out, ids, g)
        return out

    return Tensor(m.value[ids], parents=(m,), grad_fns=(grad_m,))


def row(m: Tensor, i: int) -> Tensor:
    def grad_m(g):
        out = np.zeros_like(m.value)
        out[i] = g
        return out

    return Tensor(m.value[i], parents=(m,), grad_fns=(grad_m,))


def element(v: Tensor, i: int) -> Tensor:
    def grad_v(g):
        out = np.zeros_like(v.value)
        out[i] = g
        return out

    return Tensor(v.value[i], parents=(v,), grad_fns=(grad_v,))


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


def tanh(t: Tensor) -> Tensor:
    out = np.tanh(t.value)
    return Tensor(out, parents=(t,), grad_fns=(lambda g: g * (1.0 - out * out),))


def sigmoid(t: Tensor) -> Tensor:
    out = 1.0 / (1.0 + np.exp(-t.value))
    return Tensor(out, parents=(t,), grad_fns=(lambda g: g * out * (1.0 - out),))


def exp(t: Tensor) -> Tensor:
    out = np.exp(t.value)
    return Tensor(out, parents=(t,), grad_fns=(lambda g: g * out,))


def log(t: Tensor) -> Tensor:
    return Tensor(np.log(t.value), parents=(t,), grad_fns=(lambda g: g / t.value,))


def sqrt(t: Tensor) -> Tensor:
    out = np.sqrt(t.value)
    return Tensor(out, parents=(t,), grad_fns=(lambda g: g / (2.0 * out),))


def reciprocal(t: Tensor) -> Tensor:
    out = 1.0 / t.value
    return Tensor(out, parents=(t,), grad_fns=(lambda g: -g * out * out,))


def l2_normalize(v: Tensor) -> Tensor:
    norm = sqrt(dot(v, v))
    return mul(v, reciprocal(norm))


def l2_normalize_rows(m: Tensor) -> Tensor:
    """Each row of a (k, n) matrix divided by its Euclidean norm."""
    norms = np.sqrt(np.einsum("ij,ij->i", m.value, m.value))[:, None]
    out = m.value / norms
    return Tensor(
        out,
        parents=(m,),
        grad_fns=(lambda g: (g - out * np.sum(g * out, axis=1, keepdims=True)) / norms,),
    )


def log_softmax(logits: Tensor) -> Tensor:
    # Max-subtraction for stability; the shift is a constant and cancels
    # analytically, so treating it as non-differentiable is exact.
    shifted = sub(logits, const(np.max(logits.value)))
    lse = log(sum_all(exp(shifted)))
    return sub(shifted, lse)


def softmax(logits: Tensor) -> Tensor:
    return exp(log_softmax(logits))


# Decoder tensors decoder_losses reads, in the order of its parents after q and e.
_DECODER_NAMES = (
    "embed", "w_init", "w_z", "w_r", "w_h", "u_z", "u_r", "u_h",
    "b_z", "b_r", "b_h", "w_out", "b_out", "w_pool",
)


def decoder_losses(
    params: Mapping[str, Tensor], q: Tensor, e: Tensor, answers, cons_eps: float
) -> Tensor:
    """Teacher-forced decoding of a minibatch as one tape node.

    Row b of q and e (both (B, D)) belongs to the answer token ids
    answers[b]: the decoder starts from tanh(W_init q_b), reads BOS then
    the answer and predicts the answer then EOS, with e_b fused into every
    step's output layer. The (2, B) result holds each sample's mean NLL
    over its own steps (row 0) and its consistency loss
    sqrt(||h_gen - e_b||^2 + eps) - sqrt(eps) (row 1), where h_gen is the
    unit-normalised w_pool projection of its mean state. Shorter answers
    are padded; a padded step's state is computed but never read.
    """
    # Not at module top: decoder imports encoder, which imports this module.
    from .decoder import fused_gates, gru_cell

    p = {name: params[name].value for name in _DECODER_NAMES}
    q_val, e_val = q.value, e.value
    lengths = np.array([len(a) + 1 for a in answers])
    batch, steps = len(answers), int(lengths.max())
    inputs = np.full((steps, batch), PAD_ID)  # time-major
    targets = np.full((steps, batch), PAD_ID)
    for b, ans in enumerate(answers):
        inputs[: lengths[b], b] = [BOS_ID, *ans]
        targets[: lengths[b], b] = [*ans, EOS_ID]
    live = np.arange(steps)[:, None] < lengths  # (T, B)
    inv_len = 1.0 / lengths

    # Forward: every input projection in one matmul, then one cell per step.
    w_x, b_x, u_zr = fused_gates(p)
    hidden = u_zr.shape[1]
    x = p["embed"][inputs.reshape(-1)]  # (T*B, D)
    x_proj = (x @ w_x.T).reshape(steps, batch, -1)
    states = np.empty((steps + 1, batch, hidden))
    states[0] = np.tanh(q_val @ p["w_init"].T)
    gates = np.empty((3, steps, batch, hidden))
    for t in range(steps):
        states[t + 1], *cell_gates = gru_cell(x_proj[t], states[t], b_x, u_zr, p["u_h"])
        gates[:, t] = cell_gates
    z, r, cand = gates

    # Output layer on the live steps only: one matmul, a row-wise log-softmax.
    t_idx, b_idx = np.nonzero(live)
    fused = np.concatenate([states[1:][t_idx, b_idx], e_val[b_idx]], axis=1)
    logits = fused @ p["w_out"].T + p["b_out"]
    shifted = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    rows = np.arange(len(t_idx))
    tgt = targets[t_idx, b_idx]
    nll = np.bincount(b_idx, -(shifted[rows, tgt] - lse), minlength=batch) * inv_len

    mean_state = (states[1:] * live[:, :, None]).sum(axis=0) * inv_len[:, None]
    pooled = mean_state @ p["w_pool"].T
    inv_norm = 1.0 / np.sqrt(np.einsum("ij,ij->i", pooled, pooled))
    h_gen = pooled * inv_norm[:, None]
    diff = h_gen - e_val
    dist = np.sqrt(np.einsum("ij,ij->i", diff, diff) + cons_eps)
    cons = dist - np.sqrt(cons_eps)

    def backward_all(g):
        g_nll, g_cons = g
        grads = {}
        # Consistency branch back to w_pool and the mean state.
        d_diff = (g_cons / dist)[:, None] * diff
        d_e = -d_diff
        d_pooled = d_diff - h_gen * np.sum(d_diff * h_gen, axis=1, keepdims=True)
        d_pooled *= inv_norm[:, None]
        grads["w_pool"] = d_pooled.T @ mean_state
        d_states = live[:, :, None] * ((d_pooled @ p["w_pool"]) * inv_len[:, None])
        # NLL branch: softmax minus one-hot, each row weighted by its sample's 1/T.
        coef = (g_nll * inv_len)[b_idx]
        d_logits = np.exp(shifted - lse[:, None]) * coef[:, None]
        d_logits[rows, tgt] -= coef
        grads["w_out"] = d_logits.T @ fused
        grads["b_out"] = d_logits.sum(axis=0)
        d_fused = d_logits @ p["w_out"]
        d_states[t_idx, b_idx] += d_fused[:, :hidden]
        d_e_steps = np.zeros((steps, batch, e_val.shape[1]))
        d_e_steps[t_idx, b_idx] = d_fused[:, hidden:]
        grads["e"] = d_e + d_e_steps.sum(axis=0)
        # Through time: pre-activation gradients [a_z, a_r, a_cand] of every step.
        d_pre = np.empty((steps, batch, 3 * hidden))
        d_h = np.zeros((batch, hidden))
        for t in reversed(range(steps)):
            d_h = d_h + d_states[t]
            h_prev = states[t]
            d_cand_pre = d_h * z[t] * (1.0 - cand[t] * cand[t])
            d_rh = d_cand_pre @ p["u_h"]
            d_pre[t, :, :hidden] = d_h * (cand[t] - h_prev) * z[t] * (1.0 - z[t])
            d_pre[t, :, hidden : 2 * hidden] = d_rh * h_prev * r[t] * (1.0 - r[t])
            d_pre[t, :, 2 * hidden :] = d_cand_pre
            d_h = d_h * (1.0 - z[t]) + d_rh * r[t] + d_pre[t, :, : 2 * hidden] @ u_zr
        flat = d_pre.reshape(-1, 3 * hidden)
        d_u_zr = flat[:, : 2 * hidden].T @ states[:-1].reshape(-1, hidden)
        grads["u_h"] = flat[:, 2 * hidden :].T @ (r * states[:-1]).reshape(-1, hidden)
        d_w_x = flat.T @ x
        d_b_x = flat.sum(axis=0)
        grads["embed"] = np.zeros_like(p["embed"])
        np.add.at(grads["embed"], inputs.reshape(-1), flat @ w_x)
        for names, d in (
            (("w_z", "w_r", "w_h"), d_w_x),
            (("b_z", "b_r", "b_h"), d_b_x),
            (("u_z", "u_r"), d_u_zr),
        ):
            grads.update(zip(names, np.split(d, len(names))))
        d_init = d_h * (1.0 - states[0] * states[0])
        grads["w_init"] = d_init.T @ q_val
        grads["q"] = d_init @ p["w_init"]
        return grads

    memo: dict = {}

    def grad_of(name):
        def fn(g):
            # backward() hands the same g to every parent; derive them all once.
            if memo.get("g") is not g:
                memo.clear()
                memo.update(backward_all(g), g=g)
            return memo[name]

        return fn

    names = ("q", "e", *_DECODER_NAMES)
    return Tensor(
        np.stack([nll, cons]),
        parents=(q, e, *(params[name] for name in _DECODER_NAMES)),
        grad_fns=tuple(grad_of(name) for name in names),
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
