"""Evidence-constrained autoregressive decoder.

A single gated recurrent cell, gru_cell, produces the generation state
h_t for greedy decoding and for the training tape alike; the
evidence aggregate e is concatenated with h_t at EVERY step before the
output projection, so the constraint is continuous rather than
prefix-only. Decoding is greedy and fully deterministic. Every function
reads its weights by name from one flat parameter mapping, a
checkpoint's params.
"""
from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .aggregation import EvidenceAggregate, softmax
from .encoder import INIT_SCALE, SemanticVector, values_of
from .errors import DegenerateNorm, DimMismatch, EmptyTrace, InvalidTokenId
from .vocab import BOS_ID, EOS_ID

DEFAULT_HIDDEN = 64
DEFAULT_MAX_LEN = 32

# Gate tensor names; decoder_shapes derives every tensor shape from them.
_GATE_NAMES = ("w_z", "w_r", "w_h", "u_z", "u_r", "u_h", "b_z", "b_r", "b_h")


def decoder_shapes(vocab_size: int, dim: int, hidden: int) -> dict[str, tuple]:
    shapes = {
        "embed": (vocab_size, dim),
        "w_init": (hidden, dim),
        "w_out": (vocab_size, hidden + dim),
        "b_out": (vocab_size,),
        "w_pool": (dim, hidden),
    }
    for name in _GATE_NAMES:
        if name.startswith("w_"):
            shapes[name] = (hidden, dim)
        elif name.startswith("u_"):
            shapes[name] = (hidden, hidden)
        else:
            shapes[name] = (hidden,)
    return shapes


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
    step_states: list[np.ndarray]
    step_distributions: list[np.ndarray]
    h_gen: SemanticVector


def fuse(h: np.ndarray, e: np.ndarray, params: Mapping[str, np.ndarray]) -> np.ndarray:
    """Output logits from the concatenated (generation state, evidence)."""
    w_out = params["w_out"]
    if h.shape[0] + e.shape[0] != w_out.shape[1]:
        raise DimMismatch(
            f"fuse expects H+D={w_out.shape[1]}, got {h.shape[0]}+{e.shape[0]}"
        )
    return w_out @ np.concatenate([h, e]) + params["b_out"]


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


def gru_cell(x_proj, h, b_x, u_zr, u_h):
    """One gated recurrent update of a batch of states h (B, H).

    x_proj is x [W_z; W_r; W_h]^T (B, 3H): it does not depend on h, so a
    caller that knows every input computes it for all steps in one matmul.
    Returns the new state and the gates (z, r, candidate) it was made from.
    """
    n = h.shape[1]
    zr = _sigmoid(x_proj[:, : 2 * n] + h @ u_zr.T + b_x[: 2 * n])
    z, r = zr[:, :n], zr[:, n:]
    cand = np.tanh(x_proj[:, 2 * n :] + (r * h) @ u_h.T + b_x[2 * n :])
    return (1.0 - z) * h + z * cand, z, r, cand


def step(
    prev_token: int, h_prev: np.ndarray, e: np.ndarray, params: Mapping[str, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """One gated recurrent update followed by evidence-fused softmax."""
    return _step(prev_token, h_prev, e, params, fused_gates(params))


def _step(prev_token, h_prev, e, params, gates):
    if not 0 <= prev_token < params["w_out"].shape[0]:
        raise InvalidTokenId(f"token id {prev_token} outside vocabulary")
    w_x, b_x, u_zr = gates
    x_proj = params["embed"][prev_token][None, :] @ w_x.T
    h, *_ = gru_cell(x_proj, h_prev[None, :], b_x, u_zr, params["u_h"])
    return softmax(fuse(h[0], e, params)), h[0]


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def initial_state(query_vec: np.ndarray, params: Mapping[str, np.ndarray]) -> np.ndarray:
    return np.tanh(params["w_init"] @ query_vec)


def pooled_generation_repr(step_states, params: Mapping[str, np.ndarray]) -> SemanticVector:
    """Project the mean decoder state into the unified space and normalize."""
    if not step_states:
        raise EmptyTrace("no decoder states to pool")
    pooled = params["w_pool"] @ np.mean(step_states, axis=0)
    norm = np.linalg.norm(pooled)
    if norm < 1e-12:
        raise DegenerateNorm("pooled generation representation has near-zero norm")
    return SemanticVector(pooled / norm, normalized=True)


def decode_greedy(
    q_vec,
    evidence: EvidenceAggregate,
    params: Mapping[str, np.ndarray],
    max_len: int = DEFAULT_MAX_LEN,
) -> GenerationTrace:
    """Greedy decode from the encoded query; argmax ties resolve to the lowest token id."""
    return _decode_greedy(q_vec, evidence, params, fused_gates(params), max_len)


def _decode_greedy(q_vec, evidence, params, gates, max_len):
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    e = evidence.vector.values
    h = initial_state(values_of(q_vec), params)
    tokens: list[int] = []
    states: list[np.ndarray] = []
    dists: list[np.ndarray] = []
    prev = BOS_ID
    for _ in range(max_len):
        dist, h = _step(prev, h, e, params, gates)
        tok = int(np.argmax(dist))  # first (lowest-id) max wins
        tokens.append(tok)
        states.append(h)
        dists.append(dist)
        prev = tok
        if tok == EOS_ID:
            break
    h_gen = pooled_generation_repr(states, params)
    return GenerationTrace(
        tokens=tokens, step_states=states, step_distributions=dists, h_gen=h_gen
    )
