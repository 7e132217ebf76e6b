"""Alignment-score normalization and evidence aggregation.

Scores become weights through a softmax with inverse temperature beta:
beta = 0 gives uniform weights, large beta sharpens onto the best
aligned evidence. The aggregate e = sum(alpha_i * d_i) is the single
vector injected into every decoding step; weigh computes both.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .encoder import SemanticVector
from .errors import EmptyScores, NonFiniteBeta
from .index import EvidenceIndex


@dataclass
class EvidenceWeights:
    entries: list[tuple[int, float]]  # (chunk_id, alpha)
    beta: float


@dataclass
class EvidenceAggregate:
    vector: SemanticVector
    source_weights: EvidenceWeights


def weigh(scores, counts, beta: float, rows=None) -> tuple[np.ndarray, np.ndarray | None]:
    """Alphas (P,) and, given rows (P, D), aggregates (S, D) of segments of kept scores.

    scores holds each segment's scores in rank order, counts[s] of them for
    segment s. Within a segment alpha = exp(x - max x) / sum with
    x = beta * score, and e = alpha_0 d_0 + alpha_1 d_1 + ..., in rank order.
    """
    counts = np.asarray(counts, dtype=np.intp)
    if not counts.size or counts.min() < 1:
        raise EmptyScores("no scores to normalize")
    if not math.isfinite(beta) or beta < 0:
        raise NonFiniteBeta(f"beta must be finite and >= 0, got {beta}")
    x, blocks = beta * np.asarray(scores, dtype=np.float64), _blocks(counts)
    alphas = np.empty_like(x)
    for _, at in blocks:
        expd = np.exp(x[at] - x[at].max(axis=1, keepdims=True))
        alphas[at] = expd / expd.sum(axis=1, keepdims=True)
    return alphas, None if rows is None else _weighted_sum(alphas, rows, blocks)


def _blocks(counts) -> list[tuple[np.ndarray, np.ndarray]]:
    """For each segment length n, the segments of n terms and their terms' (S_n, n) positions:
    one block per length, as numpy's pairwise sum regroups from 8 terms up."""
    starts = np.cumsum(counts) - counts
    members = [(n, np.flatnonzero(counts == n)) for n in sorted(set(counts.tolist()))]
    return [(m, starts[m][:, None] + np.arange(n)) for n, m in members]


def _weighted_sum(alphas, rows, blocks) -> np.ndarray:
    """Each segment's alpha-weighted rows (blocks from _blocks), summed first term first."""
    terms = alphas[:, None] * rows
    e = np.empty((sum(len(members) for members, _ in blocks), rows.shape[1]))
    for members, at in blocks:
        e[members] = np.add.accumulate(terms[at], axis=1)[:, -1]  # a running sum is in order
    return e


def normalize_weights(scores, beta: float) -> EvidenceWeights:
    """Softmax over beta-scaled scores, computed with max subtraction."""
    scores = list(scores)
    alphas, _ = weigh([s for _, s in scores], [len(scores)], beta)
    return EvidenceWeights(entries=list(zip([cid for cid, _ in scores], alphas.tolist())), beta=beta)


def aggregate(weights: EvidenceWeights, index: EvidenceIndex) -> EvidenceAggregate:
    """Exact weighted sum of the referenced chunk vectors, in weight order.

    Raises UnknownChunkId for an id absent from the index.
    """
    rows = index.matrix[[index.row(chunk_id) for chunk_id, _ in weights.entries]]
    alphas = np.array([alpha for _, alpha in weights.entries], dtype=np.float64)
    vec = _weighted_sum(alphas, rows, _blocks(np.array([len(alphas)])))[0]
    return EvidenceAggregate(vector=SemanticVector(vec, normalized=False), source_weights=weights)
