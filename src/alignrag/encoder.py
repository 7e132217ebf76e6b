"""Unified semantic encoder shared by queries and evidence.

One embedding table, learned with the decoder, mean pooling over token
embeddings, then L2 normalization. The same parameters encode every
piece of text, so query and evidence vectors live in a single
comparable space. encode_rows is the one encode, in plain numpy: build_index,
encode, evaluate and training all run it, and training's evidence node
derives its backward by hand.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import DegenerateNorm, EmptyInput
from .vocab import Vocabulary

DEFAULT_DIM = 64
INIT_SCALE = 0.08
NORM_EPS = 1e-12
# Id arrays per encode_rows call: bounds the row gather. Rows are independent, so no bit moves.
_ENCODE_BLOCK = 64


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


def encode_rows(table: np.ndarray, ids, lengths) -> tuple[np.ndarray, np.ndarray]:
    """The batched encode: row i mean-pools segment i's rows of table, L2-normalized.

    ids holds every segment's token ids, concatenated; lengths[i] is segment
    i's count. Returns the (n, D) unit rows and the (n, 1) norms they were
    divided by. A pooled row of near-zero norm raises DegenerateNorm.
    """
    lengths = np.asarray(lengths, dtype=np.intp)
    if lengths.size == 0 or lengths.min() < 1 or lengths.sum() != len(ids):
        raise ValueError("segments must be non-empty and cover every id exactly once")
    starts = np.cumsum(lengths) - lengths
    pooled = np.add.reduceat(table[np.asarray(ids, dtype=np.intp)], starts, axis=0)
    pooled /= lengths[:, None]
    squares = np.einsum("ij,ij->i", pooled, pooled)
    if squares.min() < NORM_EPS**2:
        raise DegenerateNorm(f"pre-normalization norm {squares.min() ** 0.5} below {NORM_EPS}")
    norms = np.sqrt(squares)[:, None]
    return pooled / norms, norms


def encode_all(table: np.ndarray, id_arrays) -> np.ndarray:
    """The unit rows of encode_rows: one row per non-empty id array of the iterable.

    The arrays are read and encoded _ENCODE_BLOCK at a time, so an iterator
    that tokenizes lazily never holds more than one block of them.
    """
    id_arrays = iter(id_arrays)
    rows = []
    while block := list(islice(id_arrays, _ENCODE_BLOCK)):
        rows.append(encode_rows(table, np.concatenate(block), [len(ids) for ids in block])[0])
    return np.concatenate(rows)


def encode(text: str, vocab: Vocabulary, params: EncoderParams) -> SemanticVector:
    ids = vocab.encode(text)
    if not ids:
        raise EmptyInput(f"text tokenized to nothing: {text!r}")
    return SemanticVector(encode_all(params.embedding, [ids])[0], normalized=True)
