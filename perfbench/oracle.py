"""Independent numpy references the benchmark checks library outputs against.

Everything here is computed from texts, the Vocabulary's token ids and the
raw parameter arrays. Nothing reads EvidenceIndex, the autodiff tape or any
other library internal, so an internal rewrite cannot change the reference.
Batched matrix products replace the library's per-vector ones, so float
results agree to a tolerance, not bit for bit.
"""
from __future__ import annotations

import re
from collections import Counter

import numpy as np

BOS_ID, EOS_ID = 1, 2
# Scores and weights are compared at this absolute tolerance; two scores
# closer than it count as tied, so either order is accepted.
TOL = 1e-9
CONS_EPS = 1e-12


def unit_rows(id_lists, table: np.ndarray) -> np.ndarray:
    """Mean-pooled, L2-normalised embedding rows, one per token-id list."""
    out = np.empty((len(id_lists), table.shape[1]))
    for i, ids in enumerate(id_lists):
        pooled = table[np.asarray(ids, dtype=np.intp)].mean(axis=0)
        out[i] = pooled / np.linalg.norm(pooled)
    return out


def ranking_ok(got_ids, got_scores, scores: np.ndarray, k: int) -> bool:
    """True if (got_ids, got_scores) is the exact top-k of `scores`.

    `scores` holds the reference score of every entry, indexed by entry id.
    Ties break by ascending id; where two scores are within TOL of each
    other either order is accepted.
    """
    n = min(k, len(scores))
    got = np.asarray(got_ids, dtype=np.intp)
    if len(got) != n or len(set(got.tolist())) != n:
        return False
    if np.any(np.abs(np.asarray(got_scores, dtype=np.float64) - scores[got]) > TOL):
        return False
    ref = np.lexsort((np.arange(len(scores)), -scores))[:n]
    if np.array_equal(got, ref):
        return True
    mine = scores[got]
    if np.any(np.diff(mine) > TOL):
        return False
    rest = np.ones(len(scores), dtype=bool)
    rest[got] = False
    return not rest.any() or scores[rest].max() <= mine.min() + TOL


def softmax_weights(scores: np.ndarray, beta: float) -> np.ndarray:
    w = np.exp(beta * (scores - scores.max()))
    return w / w.sum()


def retrieve(q: np.ndarray, chunk_vecs: np.ndarray, k: int, tau: float, beta: float):
    """Reference ranks, weights and aggregate for one query."""
    scores = chunk_vecs @ q
    order = np.lexsort((np.arange(len(scores)), -scores))[:k]
    kept = order[scores[order] >= tau]
    alphas = softmax_weights(scores[kept], beta)
    return scores, kept, alphas, alphas @ chunk_vecs[kept]


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def gru_step(p: dict, x: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Row-batched gated recurrent update; x is (B, D), h is (B, H)."""
    z = _sigmoid(x @ p["w_z"].T + h @ p["u_z"].T + p["b_z"])
    r = _sigmoid(x @ p["w_r"].T + h @ p["u_r"].T + p["b_r"])
    cand = np.tanh(x @ p["w_h"].T + (r * h) @ p["u_h"].T + p["b_h"])
    return (1.0 - z) * h + z * cand


def _unit(m: np.ndarray) -> np.ndarray:
    return m / np.linalg.norm(m, axis=-1, keepdims=True)


def greedy_decode(p: dict, q: np.ndarray, e: np.ndarray, max_len: int):
    """Batched greedy decode of B sequences.

    Returns (tokens per sequence, pooled h_gen (B, D), smallest top-1 vs
    top-2 logit margin seen along each sequence's path). A margin below
    TOL means the argmax is a numerical tie and the path is ambiguous.
    """
    b = len(q)
    h = np.tanh(q @ p["w_init"].T)
    prev = np.full(b, BOS_ID)
    live = np.ones(b, dtype=bool)
    tokens: list[list[int]] = [[] for _ in range(b)]
    state_sum = np.zeros_like(h)
    steps = np.zeros(b)
    margin = np.full(b, np.inf)
    for _ in range(max_len):
        h_new = gru_step(p, p["embed"][prev], h)
        logits = np.concatenate([h_new, e], axis=1) @ p["w_out"].T + p["b_out"]
        tok = logits.argmax(axis=1)
        top2 = np.partition(logits, -2, axis=1)[:, -2:]
        margin = np.where(live, np.minimum(margin, top2[:, 1] - top2[:, 0]), margin)
        state_sum[live] += h_new[live]
        steps[live] += 1
        for i in np.flatnonzero(live):
            tokens[i].append(int(tok[i]))
        h = np.where(live[:, None], h_new, h)
        prev = np.where(live, tok, prev)
        live &= tok != EOS_ID
        if not live.any():
            break
    h_gen = _unit((state_sum / steps[:, None]) @ p["w_pool"].T)
    return tokens, h_gen, margin


def joint_loss(p: dict, q: np.ndarray, chunk_vecs: np.ndarray, answer_ids, config) -> float:
    """Teacher-forced NLL plus lambda times the smoothed consistency distance."""
    _, _, _, e = retrieve(q, chunk_vecs, config.top_k, config.tau, config.beta)
    inputs = [BOS_ID] + list(answer_ids)
    targets = list(answer_ids) + [EOS_ID]
    h = np.tanh(p["w_init"] @ q)[None, :]
    nll = 0.0
    state_sum = np.zeros(h.shape[1])
    for x_id, tgt in zip(inputs, targets):
        h = gru_step(p, p["embed"][x_id][None, :], h)
        logits = p["w_out"] @ np.concatenate([h[0], e]) + p["b_out"]
        top = logits.max()
        nll += top + np.log(np.exp(logits - top).sum()) - logits[tgt]
        state_sum += h[0]
    h_gen = _unit(p["w_pool"] @ (state_sum / len(targets)))
    diff = h_gen - e
    cons = np.sqrt(diff @ diff + CONS_EPS) - np.sqrt(CONS_EPS)
    return nll / len(targets) + config.lambda_ * cons


# SQuAD-style answer normalisation: lowercase, punctuation to spaces,
# drop the articles a/an/the.
_PUNCT_RE = re.compile(r"[^\w\s]|_")
_ARTICLES = {"a", "an", "the"}


def _answer_tokens(text: str) -> list[str]:
    return [t for t in _PUNCT_RE.sub(" ", text.lower()).split() if t not in _ARTICLES]


def exact_match(pred: str, gold: str) -> int:
    return int(_answer_tokens(pred) == _answer_tokens(gold))


def token_f1(pred: str, gold: str) -> float:
    pt, gt = _answer_tokens(pred), _answer_tokens(gold)
    if not pt and not gt:
        return 1.0
    overlap = sum((Counter(pt) & Counter(gt)).values())
    if overlap == 0:
        return 0.0
    precision, recall = overlap / len(pt), overlap / len(gt)
    return 2 * precision * recall / (precision + recall)
