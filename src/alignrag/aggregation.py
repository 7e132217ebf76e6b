"""Alignment-score normalization and evidence aggregation.

Scores become weights through a softmax with inverse temperature beta:
beta = 0 gives uniform weights, large beta sharpens onto the best
aligned evidence. The aggregate e = sum(alpha_i * d_i) is the single
vector injected into every decoding step.
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


def softmax(x: np.ndarray) -> np.ndarray:
    """Softmax of a 1-D array, computed with max subtraction."""
    expd = np.exp(x - x.max())
    return expd / expd.sum()


def normalize_weights(scores, beta: float) -> EvidenceWeights:
    """Softmax over beta-scaled scores, computed with max subtraction."""
    scores = list(scores)
    if not scores:
        raise EmptyScores("no scores to normalize")
    if not math.isfinite(beta) or beta < 0:
        raise NonFiniteBeta(f"beta must be finite and >= 0, got {beta}")
    ids = [cid for cid, _ in scores]
    alphas = softmax(beta * np.array([s for _, s in scores], dtype=np.float64))
    return EvidenceWeights(entries=list(zip(ids, alphas.tolist())), beta=beta)


def aggregate(weights: EvidenceWeights, index: EvidenceIndex) -> EvidenceAggregate:
    """Exact weighted sum of the referenced chunk vectors, in weight order.

    Raises UnknownChunkId for an id absent from the index.
    """
    vec = None
    for chunk_id, alpha in weights.entries:
        contrib = alpha * index.matrix[index.row(chunk_id)]
        vec = contrib if vec is None else vec + contrib
    return EvidenceAggregate(
        vector=SemanticVector(vec, normalized=False), source_weights=weights
    )
