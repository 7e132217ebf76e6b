"""Unified semantic encoder shared by queries and evidence.

One embedding table, learned with the decoder, mean pooling over token
embeddings, then L2 normalization. The same parameters encode every
piece of text, so query and evidence vectors live in a single
comparable space.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateNorm, EmptyInput
from .vocab import Vocabulary

DEFAULT_DIM = 64
INIT_SCALE = 0.08
NORM_EPS = 1e-12


@dataclass
class SemanticVector:
    """Fixed-dimension real vector in the unified space."""

    values: np.ndarray
    normalized: bool = False

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1:
            raise ValueError("SemanticVector must be one-dimensional")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("SemanticVector values must be finite")
        if self.normalized and abs(np.linalg.norm(self.values) - 1.0) > 1e-6:
            raise ValueError("vector flagged normalized has non-unit norm")

    @property
    def dim(self) -> int:
        return self.values.shape[0]


@dataclass
class EncoderParams:
    """Embedding table realizing the encoding function."""

    embedding: np.ndarray

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        h.update(str(self.embedding.shape).encode())
        h.update(np.ascontiguousarray(self.embedding))
        return h.hexdigest()[:16]


def values_of(v) -> np.ndarray:
    """The float64 array behind a SemanticVector or any array-like."""
    return v.values if isinstance(v, SemanticVector) else np.asarray(v, dtype=np.float64)


def init_encoder_params(vocab_size: int, dim: int = DEFAULT_DIM, seed: int = 0) -> EncoderParams:
    rng = np.random.default_rng(seed)
    table = rng.uniform(-INIT_SCALE, INIT_SCALE, size=(vocab_size, dim))
    return EncoderParams(embedding=table)


def encode_ids(ids, params: EncoderParams) -> np.ndarray:
    """Mean-pool embedding rows and L2-normalize. Raw-array form of encode()."""
    if len(ids) == 0:
        raise EmptyInput("cannot encode an empty token sequence")
    pooled = params.embedding[np.asarray(ids, dtype=np.intp)].mean(axis=0)
    norm = np.linalg.norm(pooled)
    if norm < NORM_EPS:
        raise DegenerateNorm(f"pre-normalization norm {norm} below {NORM_EPS}")
    return pooled / norm


def encode(text: str, vocab: Vocabulary, params: EncoderParams) -> SemanticVector:
    ids = vocab.encode(text)
    if not ids:
        raise EmptyInput(f"text tokenized to nothing: {text!r}")
    return SemanticVector(encode_ids(ids, params), normalized=True)
