"""Evidence store with exact cosine retrieval.

The index is flat: an ascending chunk-id array, the chunk texts, and one
unit-norm row per chunk in a single matrix. A row's score is one float64
einsum whose bits depend on that row alone, so any subset of rows scores
as it would in a scan of all of them. top_k scans a float32 copy of the
matrix, whose scores lie within a proven bound of the float64 ones, and
rescores in float64 only the rows that the bound cannot rule out: results
equal an exhaustive scan's bit for bit. Selection does not sort the
corpus: one partition finds the k-th best score, and only the rows at or
above it, which include every row tied with it, are sorted. score_samples
and select_evidence rank many samples at once, each against its own
chunks, with a lone top_k's bits.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoder import EncoderParams, encode_all, values_of
from .errors import (
    CheckpointError,
    DimMismatch,
    DuplicateId,
    EmptyCorpus,
    EmptyInput,
    UnknownChunkId,
)
from .serialization import read_container, write_container
from .vocab import Vocabulary

INDEX_FORMAT_VERSION = 1
ZERO_NORM_EPS = 1e-12
UNIT_NORM_TOL = 1e-6


@dataclass
class RetrievalResult:
    chunk_id: int
    score: float


class EvidenceIndex:
    """Chunk ids in ascending order, their texts, and an (N, dim) row matrix.

    ``ids`` and ``matrix`` are read-only views; when the ids already ascend
    they share the caller's arrays rather than copy them. ``screen`` is a
    read-only float32 copy of ``matrix`` that is never saved. For a unit query,
    a row's float32 score differs from its float64 cosine by at most ``slack``
    in any summation order, with or without FMA: each of the D + 2 float32
    roundings errs by at most 2^-24 of the row's norm (Cauchy-Schwarz), the
    float64 score by far less, and 2^-100 covers underflow. ``slack`` is inf
    where float32 could overflow or a row is not finite: no row is ruled out.
    """

    def __init__(self, ids, texts: list[str], matrix: np.ndarray):
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size == 0:
            raise EmptyCorpus("index needs at least one entry")
        matrix = np.asarray(matrix, dtype=np.float64)
        if (ids[1:] < ids[:-1]).any():  # ascending ids need no reordering copies
            order = np.argsort(ids, kind="stable")
            ids, texts, matrix = ids[order], [texts[i] for i in order], matrix[order]
        repeated = ids[1:][ids[1:] == ids[:-1]]
        if repeated.size:
            raise DuplicateId(f"duplicate chunk id {int(repeated[0])}")
        self.ids, self.texts, self.matrix = ids.view(), list(texts), matrix.view()
        with np.errstate(over="ignore", invalid="ignore"):  # out-of-range rows get slack = inf
            self.screen = matrix.astype(np.float32)
        self.ids.flags.writeable = self.matrix.flags.writeable = self.screen.flags.writeable = False
        max_norm = np.sqrt(np.einsum("ij,ij->i", matrix, matrix).max())
        self.slack = float((self.dim + 4) * 2.0**-23 * max_norm + 2.0**-100)
        if not max_norm + self.slack < np.finfo(np.float32).max:  # also NaN and inf rows
            self.slack = np.inf

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def __len__(self) -> int:
        return len(self.ids)

    def row(self, chunk_id: int) -> int:
        """Position of chunk_id in ids, texts and matrix."""
        pos = int(np.searchsorted(self.ids, chunk_id))
        if pos == len(self.ids) or self.ids[pos] != chunk_id:
            raise UnknownChunkId(f"chunk id {chunk_id} not in index")
        return pos

    def text(self, chunk_id: int) -> str:
        return self.texts[self.row(chunk_id)]

    def __contains__(self, chunk_id: int) -> bool:
        return chunk_id in self.ids


def build_index(corpus, vocab: Vocabulary, params: EncoderParams) -> EvidenceIndex:
    """Encode (id, text) pairs into an immutable index."""
    corpus = list(corpus)
    if not corpus:
        raise EmptyCorpus("corpus is empty")

    def token_ids():
        for chunk_id, text in corpus:
            ids = vocab.encode(text)
            if not ids:
                raise EmptyInput(f"chunk {chunk_id}: text tokenized to nothing: {text!r}")
            yield ids

    rows = encode_all(params.embedding, token_ids())
    return EvidenceIndex([cid for cid, _ in corpus], [text for _, text in corpus], rows)


def top_k(q, index: EvidenceIndex, k: int) -> list[RetrievalResult]:
    """Exact top-k by score, ties broken by ascending chunk id.

    A row whose score is at or above the k-th best has a screen score at or above
    the k-th best screen score less 2 slack, so only those rows are rescored.
    """
    qv = values_of(q)
    if qv.shape[0] != index.dim:
        raise DimMismatch(f"query dim {qv.shape[0]} != index dim {index.dim}")
    if k < 1:
        raise ValueError("k must be >= 1")
    unit = _unit_rows(qv)[0].astype(np.float32)
    kth = len(index) - min(k, len(index))
    # The float32 product overflows, and inf - 2 * slack is NaN, only where slack = inf.
    with np.errstate(over="ignore", invalid="ignore"):
        rough = index.screen @ unit
        cut = np.float64(np.partition(rough, kth)[kth]) - 2 * index.slack
    cand = np.flatnonzero(~(rough < cut))  # a NaN cut keeps every row
    scores = cosine_scores(qv, index.matrix[cand])
    return [RetrievalResult(int(index.ids[cand[i]]), float(scores[i])) for i in best_k(scores, k)]


def _unit_rows(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """q (..., D) with each row divided by its norm, near-zero rows as 0, and where they are.
    A finite row whose squares overflow takes its norm as m * norm(v / m), m = max |v|."""
    rows = q.reshape(-1, q.shape[-1])
    with np.errstate(over="ignore"):
        norms = np.array([np.linalg.norm(v) for v in rows])
        for i in np.flatnonzero(np.isinf(norms) & np.isfinite(rows).all(axis=1)):
            m = np.abs(rows[i]).max()
            norms[i] = m * np.linalg.norm(rows[i] / m)
    norms = norms.reshape(q.shape[:-1])
    zero = norms < ZERO_NORM_EPS
    return q / np.where(zero, np.inf, norms)[..., None], zero


def cosine_scores(q: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Cosines (..., N) of query rows q (..., D) with their own unit rows matrix (..., N, D);
    0 for a near-zero query. One einsum on C-ordered rows: a score's bits depend only on
    its row and query, never on the other rows scored with it (BLAS matrix-vector
    products give tail rows another kernel's bits)."""
    unit, zero = _unit_rows(q)
    scores = np.einsum("...nd,...d->...n", np.ascontiguousarray(matrix), unit)
    scores[zero] = 0.0
    return scores


def best_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Positions of the min(k, N) best scores in each row of scores (..., N), best first.

    Every score at or above the k-th best is a candidate, so a tie block that straddles
    k is kept whole; a stable sort on -score breaks ties by ascending position. NaN
    scores rank last.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    neg = -scores.reshape(-1, scores.shape[-1])
    kth = min(k, neg.shape[1]) - 1
    # NaN-safe: NaNs partition last, and a NaN k-th best makes every score a candidate.
    candidates = np.flatnonzero(~(neg > np.partition(neg, kth, axis=1)[:, kth : kth + 1]))
    rows, cols = np.divmod(candidates, neg.shape[1])  # a 1-D nonzero: 2-D is slower at 1e5
    order = np.lexsort((neg[rows, cols], rows))  # by row, then -score; lexsort is stable
    first = np.searchsorted(rows, np.arange(len(neg)))
    return cols[order[first[:, None] + np.arange(kth + 1)]].reshape(*scores.shape[:-1], kth + 1)


def score_samples(rows: np.ndarray, slots) -> list[tuple[list[int], np.ndarray]]:
    """(samples, (G, N) cosine_scores) for each chunk count N: one stacked product each.

    slots[b] holds the positions in rows of sample b's question row, then its chunks'.
    """
    sizes = np.array([len(at) for at in slots])
    groups = []
    for size in np.unique(sizes).tolist():
        members = np.flatnonzero(sizes == size).tolist()
        at = np.array([slots[b] for b in members])
        groups.append((members, cosine_scores(rows[at[:, 0]], rows[at[:, 1:]])))
    return groups


def select_evidence(groups, k: int | None, tau: float) -> list[tuple[list[int], list[float]]]:
    """Each sample's (positions, scores) of its best k chunks (all if k is None) scoring
    >= tau, best first, as top_k and filter_by_threshold give them; groups from score_samples."""
    kept = [None] * sum(len(members) for members, _ in groups)
    for members, scores in groups:
        order = best_k(scores, scores.shape[1] if k is None else k)
        top = np.take_along_axis(scores, order, axis=1)
        n_kept = (top >= tau).sum(axis=1)  # scores descend, so tau keeps a prefix
        for b, pos, score, n in zip(members, order.tolist(), top.tolist(), n_kept.tolist()):
            kept[b] = (pos[:n], score[:n])
    return kept


def filter_by_threshold(results: list[RetrievalResult], tau: float) -> list[RetrievalResult]:
    """Keep results with score >= tau; order is preserved."""
    return [r for r in results if r.score >= tau]


def save_index(path, index: EvidenceIndex, vocab: Vocabulary, params: EncoderParams) -> None:
    """Self-contained index file: entries, vocabulary, and embedding table."""
    header = {
        "format_version": INDEX_FORMAT_VERSION,
        "dim": index.dim,
        "entry_count": len(index),
        "entries": [{"id": i, "text": t} for i, t in zip(index.ids.tolist(), index.texts)],
        "vocab": {"tokens": vocab.tokens, "hash_buckets": vocab.hash_buckets},
    }
    arrays = {"vectors": index.matrix, "embedding": params.embedding}
    write_container(path, "index", header, arrays)


def load_index(path) -> tuple[EvidenceIndex, Vocabulary, EncoderParams]:
    header, arrays = read_container(path, "index")
    try:
        vectors, embedding = arrays["vectors"], arrays["embedding"]
        entries = header["entries"]
        shape = (header["entry_count"], header["dim"])
        ids = [meta["id"] for meta in entries]
        texts = [meta["text"] for meta in entries]
        vocab = Vocabulary(header["vocab"]["tokens"], header["vocab"]["hash_buckets"])
    except (KeyError, TypeError, ValueError) as err:
        raise CheckpointError(f"{path}: malformed index header ({err!r})") from err
    if vectors.shape != shape or len(entries) != shape[0]:
        raise CheckpointError(
            f"{path}: {len(entries)} entries and vectors {vectors.shape}, header says {shape}"
        )
    if embedding.shape != (vocab.size, shape[1]):
        raise CheckpointError(
            f"{path}: embedding {embedding.shape} does not fit vocabulary {vocab.size} x dim {shape[1]}"
        )
    if np.any(np.abs(np.sqrt(np.einsum("ij,ij->i", vectors, vectors)) - 1.0) > UNIT_NORM_TOL):
        raise CheckpointError(f"{path}: entry vector with non-unit norm")
    if not all(type(i) is int and -(2**63) <= i < 2**63 for i in ids):
        raise CheckpointError(f"{path}: chunk id that is not a 64-bit integer")
    try:
        index = EvidenceIndex(ids, texts, vectors)
    except (DuplicateId, EmptyCorpus) as err:
        raise CheckpointError(f"{path}: {err}") from err
    return index, vocab, EncoderParams(embedding=embedding)
