"""Evidence-constrained autoregressive decoder.

Each stage is written once, on rows of any leading shape (..., ·): the
initial state tanh(q W_init^T), the gated recurrent cell gru_cell, the
output logits [h; e] W_out^T + b_out and the generation representation
unit(mean_state W_pool^T). The evidence aggregate e enters the output
layer at EVERY step, so the constraint is continuous rather than
prefix-only. decode_rows decodes greedily on (B, 1, ·) rows, where each
matmul is a stack of one-row products, so every row gets the bits of
decoding it alone. decoder_losses, the training tape's decoder op, runs
the stages on a teacher-forced (B, ·) minibatch, from the evidence
node's stacked q and e, with a hand-derived backward pass. Weights are
read by name from one flat parameter mapping.
"""
from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .aggregation import EvidenceAggregate
from .encoder import INIT_SCALE, values_of
from .errors import DegenerateNorm, DimMismatch, InvalidTokenId
from .vocab import BOS_ID, EOS_ID, PAD_ID

DEFAULT_HIDDEN = 64
DEFAULT_MAX_LEN = 32
# Rows decode_rows decodes together, bounding a step's (rows, V) logits; no bit depends on it.
_DECODE_BLOCK = 128

# The decoder's tensors, in the order of decoder_losses' parents after qe.
_NAMES = (
    "embed", "w_init", "w_z", "w_r", "w_h", "u_z", "u_r", "u_h",
    "b_z", "b_r", "b_h", "w_out", "b_out", "w_pool",
)


def decoder_shapes(vocab_size: int, dim: int, hidden: int) -> dict[str, tuple]:
    shapes = {
        "embed": (vocab_size, dim),
        "w_init": (hidden, dim),
        "w_out": (vocab_size, hidden + dim),
        "b_out": (vocab_size,),
        "w_pool": (dim, hidden),
    }
    gates = {"w": (hidden, dim), "u": (hidden, hidden), "b": (hidden,)}
    return {name: shapes.get(name) or gates[name[0]] for name in _NAMES}


def init_decoder_params(
    vocab_size: int, dim: int, hidden: int = DEFAULT_HIDDEN, seed: int = 0
) -> dict[str, np.ndarray]:
    """Seed-reproducible uniform init; biases (incl. output bias) start at zero."""
    rng = np.random.default_rng(seed)
    tensors = {}
    for name, shape in sorted(decoder_shapes(vocab_size, dim, hidden).items()):
        if name.startswith("b_"):
            tensors[name] = np.zeros(shape)
        else:
            tensors[name] = rng.uniform(-INIT_SCALE, INIT_SCALE, size=shape)
    return tensors


@dataclass
class GenerationTrace:
    tokens: list[int]
    h_gen: np.ndarray


def fused_gates(params: Mapping[str, np.ndarray]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The per-gate weights stacked for gru_cell: [W_z; W_r; W_h], [b_z; b_r; b_h], [U_z; U_r].

    They are stacked at run time, so parameter names and the checkpoint
    format stay one tensor per gate.
    """
    p = params
    return (
        np.concatenate([p["w_z"], p["w_r"], p["w_h"]]),
        np.concatenate([p["b_z"], p["b_r"], p["b_h"]]),
        np.concatenate([p["u_z"], p["u_r"]]),
    )


def initial_state(q: np.ndarray, params: Mapping[str, np.ndarray]) -> np.ndarray:
    """The decoder's first state tanh(q W_init^T) for query rows q (..., D)."""
    return np.tanh(q @ params["w_init"].T)


def gru_cell(x_proj, h, b_x, u_zr, u_h):
    """One gated recurrent update of a batch of states h (..., H).

    x_proj is x [W_z; W_r; W_h]^T (..., 3H): it does not depend on h, so a
    caller that knows every input computes it for all steps in one matmul.
    Returns the new state and the gates (z, r, candidate) it was made from.
    """
    n = h.shape[-1]
    zr = _sigmoid(x_proj[..., : 2 * n] + h @ u_zr.T + b_x[: 2 * n])
    z, r = zr[..., :n], zr[..., n:]
    cand = np.tanh(x_proj[..., 2 * n :] + (r * h) @ u_h.T + b_x[2 * n :])
    return (1.0 - z) * h + z * cand, z, r, cand


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def output_logits(h, e, params: Mapping[str, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Logits [h; e] W_out^T + b_out of states h (..., H) fused with evidence e (..., D).

    Returns the logits and the fused rows [h; e].
    """
    fused = np.concatenate([h, e], axis=-1)
    return fused @ params["w_out"].T + params["b_out"], fused


def generation_repr(mean_state, params: Mapping[str, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Unit rows of mean_state (..., H) W_pool^T, and the reciprocal of each row's norm."""
    pooled = mean_state @ params["w_pool"].T
    inv_norm = 1.0 / np.sqrt(np.einsum("...j,...j->...", pooled, pooled))
    return pooled * inv_norm[..., None], inv_norm


def decode_greedy(
    q_vec, evidence: EvidenceAggregate, params: Mapping[str, np.ndarray], max_len=DEFAULT_MAX_LEN
) -> GenerationTrace:
    """Greedy decode from the encoded query: decode_rows on one row."""
    tokens, h_gen = decode_rows(values_of(q_vec)[None], evidence.vector.values[None], params, max_len)
    return GenerationTrace(tokens=tokens[0], h_gen=h_gen[0])


def decode_rows(q, e, params: Mapping[str, np.ndarray], max_len: int = DEFAULT_MAX_LEN):
    """Greedy decoding of query rows q (B, D) fused with evidence rows e (B, D): each
    row's token ids (it stops at EOS or max_len; argmax ties go to the lowest id) and
    (B, D) h_gen rows, from the mean state summed in step order as np.mean does."""
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    hidden, (vocab, width) = params["w_init"].shape[0], params["w_out"].shape
    if hidden + e.shape[1] != width:
        raise DimMismatch(f"the output layer expects H+D={width}, got {hidden}+{e.shape[1]}")
    if vocab <= BOS_ID:
        raise InvalidTokenId(f"token id {BOS_ID} outside vocabulary")
    w_x, b_x, u_zr = fused_gates(params)
    tokens: list[list[int]] = [[] for _ in range(len(q))]
    state_sum = np.empty((len(q), hidden))
    for start in range(0, len(q), _DECODE_BLOCK):
        live = np.arange(start, min(start + _DECODE_BLOCK, len(q)))
        h, e_live = initial_state(q[live, None, :], params), e[live, None, :]
        tok = np.full(len(live), BOS_ID)
        for t in range(max_len):
            h, *_ = gru_cell(params["embed"][tok][:, None, :] @ w_x.T, h, b_x, u_zr, params["u_h"])
            logits, _ = output_logits(h, e_live, params)
            tok = logits[:, 0].argmax(axis=1)  # first (lowest-id) max wins
            for b, token in zip(live.tolist(), tok.tolist()):
                tokens[b].append(token)
            state_sum[live] = h[:, 0] if t == 0 else state_sum[live] + h[:, 0]
            going = tok != EOS_ID
            if not going.any():
                break
            live, h, e_live, tok = live[going], h[going], e_live[going], tok[going]
    steps = np.array([len(row) for row in tokens])
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero state is rejected below
        h_gen, inv_norm = generation_repr((state_sum / steps[:, None])[:, None, :], params)
    bad = (inv_norm[:, 0] > 1e12) | ~np.isfinite(h_gen[:, 0]).all(axis=1)
    if bad.any() and inv_norm[bad.argmax(), 0] > 1e12:  # the first bad row decides
        raise DegenerateNorm("pooled generation representation has near-zero norm")
    if bad.any():
        raise ValueError("generation representation values must be finite")
    return tokens, h_gen[:, 0]


def decoder_losses(
    params: Mapping[str, ad.Tensor], qe: ad.Tensor, answers, cons_eps: float
) -> ad.Tensor:
    """Teacher-forced decoding of a minibatch as one tape node.

    qe (2, B, D) stacks the query rows q and the evidence rows e; row b of
    each belongs to the answer token ids answers[b]: the decoder starts
    from tanh(W_init q_b), reads BOS then the answer and predicts the
    answer then EOS, with e_b fused into every step's output layer. The
    (2, B) result holds each sample's mean NLL over its own steps (row 0)
    and its consistency loss sqrt(||h_gen - e_b||^2 + eps) - sqrt(eps)
    (row 1), where h_gen is the unit-normalised w_pool projection of its
    mean state. Shorter answers are padded; a padded step's state is
    computed but never read. The node's hand-derived backward takes the
    (2, B) gradient and returns the gradients of qe and the decoder's
    tensors in one pass.
    """
    p = {name: params[name].value for name in _NAMES}
    q_val, e_val = qe.value
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
    states[0] = initial_state(q_val, p)
    gates = np.empty((3, steps, batch, hidden))
    for t in range(steps):
        states[t + 1], *cell_gates = gru_cell(x_proj[t], states[t], b_x, u_zr, p["u_h"])
        gates[:, t] = cell_gates
    z, r, cand = gates

    # Output layer on the live steps only: one matmul, a row-wise log-softmax.
    t_idx, b_idx = np.nonzero(live)
    logits, fused = output_logits(states[1:][t_idx, b_idx], e_val[b_idx], p)
    shifted = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    rows = np.arange(len(t_idx))
    tgt = targets[t_idx, b_idx]
    nll = np.bincount(b_idx, -(shifted[rows, tgt] - lse), minlength=batch) * inv_len

    mean_state = (states[1:] * live[:, :, None]).sum(axis=0) * inv_len[:, None]
    h_gen, inv_norm = generation_repr(mean_state, p)
    diff = h_gen - e_val
    dist = np.sqrt(np.einsum("ij,ij->i", diff, diff) + cons_eps)
    cons = dist - np.sqrt(cons_eps)

    def backward(g):
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
        return (np.stack([grads.pop("q"), grads.pop("e")]), *(grads[name] for name in _NAMES))

    return ad.Tensor(
        np.stack([nll, cons]), parents=(qe, *(params[name] for name in _NAMES)), backward=backward
    )
