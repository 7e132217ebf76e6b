import numpy as np
import pytest

from alignrag.encoder import encode
from alignrag.errors import (
    CheckpointError,
    DimMismatch,
    DuplicateId,
    EmptyCorpus,
    EmptyInput,
)
from alignrag.index import (
    EvidenceIndex,
    RetrievalResult,
    build_index,
    filter_by_threshold,
    load_index,
    save_index,
    top_k,
)

CORPUS = [
    (0, "alpha bravo"),
    (1, "charlie delta"),
    (2, "alpha charlie echo"),
    (3, "bravo bravo delta"),
    (4, "echo alpha"),
]


@pytest.fixture
def index(tiny_vocab, tiny_encoder):
    return build_index(CORPUS, tiny_vocab, tiny_encoder)


def random_index(rng, n, dim):
    vecs = rng.normal(size=(n, dim))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    index = EvidenceIndex(range(n), [f"chunk {i}" for i in range(n)], vecs)
    return index, vecs


class TestBuild:
    def test_entries_sorted_by_id(self, tiny_vocab, tiny_encoder):
        idx = build_index(list(reversed(CORPUS)), tiny_vocab, tiny_encoder)
        assert idx.ids.tolist() == [0, 1, 2, 3, 4]

    def test_duplicate_id_rejected(self, tiny_vocab, tiny_encoder):
        with pytest.raises(DuplicateId):
            build_index([(1, "alpha"), (1, "bravo")], tiny_vocab, tiny_encoder)

    def test_empty_corpus_rejected(self, tiny_vocab, tiny_encoder):
        with pytest.raises(EmptyCorpus):
            build_index([], tiny_vocab, tiny_encoder)

    def test_empty_chunk_text_names_offender(self, tiny_vocab, tiny_encoder):
        with pytest.raises(EmptyInput, match="chunk 7"):
            build_index([(7, "...")], tiny_vocab, tiny_encoder)

    def test_rows_across_encode_blocks_match_encode(self, tiny_vocab, tiny_encoder):
        # 150 chunks span three encode blocks of 64, with repeated texts and
        # ids in descending order; "zulu" is out of vocabulary.
        words = ["alpha", "bravo", "charlie", "delta", "echo", "zulu"]
        texts = [" ".join(words[i * j % 6] for j in range(1, 2 + i % 5)) for i in range(150)]
        assert len(set(texts)) < len(texts)
        corpus = [(1000 - i, text) for i, text in enumerate(texts)]
        idx = build_index(corpus, tiny_vocab, tiny_encoder)
        for chunk_id, text in corpus:
            row = idx.matrix[idx.row(chunk_id)]
            assert np.array_equal(row, encode(text, tiny_vocab, tiny_encoder).values)
            expected = tiny_encoder.embedding[tiny_vocab.encode(text)].mean(axis=0)
            expected = expected / np.linalg.norm(expected)
            np.testing.assert_allclose(row, expected, rtol=0, atol=1e-15)

    def test_empty_chunk_past_first_block_names_offender(self, tiny_vocab, tiny_encoder):
        corpus = [(i, "alpha bravo") for i in range(100)]
        corpus[70] = (70, "...")
        with pytest.raises(EmptyInput, match="chunk 70:"):
            build_index(corpus, tiny_vocab, tiny_encoder)

    def test_contains_and_chunk_lookup(self, index):
        assert 3 in index
        assert 99 not in index
        assert index.text(3) == "bravo bravo delta"


class TestTopK:
    def test_matches_brute_force_oracle(self, rng):
        idx, vecs = random_index(rng, 50, 8)
        for _ in range(20):
            q = rng.normal(size=8)
            q /= np.linalg.norm(q)
            scores = vecs @ q
            for k in (1, 3, 10):
                oracle = sorted(range(50), key=lambda i: (-scores[i], i))[:k]
                got = top_k(q, idx, k)
                assert [r.chunk_id for r in got] == oracle
                np.testing.assert_allclose(
                    [r.score for r in got], scores[oracle], atol=1e-12
                )
                assert [r.rank for r in got] == list(range(1, k + 1))

    def test_ties_broken_by_ascending_id(self):
        v = np.array([1.0, 0.0])
        ids = (5, 2, 9)
        idx = EvidenceIndex(ids, [f"c{i}" for i in ids], [v] * 3)
        assert [r.chunk_id for r in top_k(v, idx, 3)] == [2, 5, 9]

    def test_zero_query_scores_zero(self, rng):
        idx, _ = random_index(rng, 6, 3)
        results = top_k(np.zeros(3), idx, 6)
        assert [r.score for r in results] == [0.0] * 6
        assert [r.chunk_id for r in results] == list(range(6))

    def test_k_larger_than_corpus_truncates(self, rng):
        idx, _ = random_index(rng, 4, 3)
        assert len(top_k(np.ones(3), idx, 100)) == 4

    def test_k_must_be_positive(self, rng):
        idx, _ = random_index(rng, 4, 3)
        with pytest.raises(ValueError):
            top_k(np.ones(3), idx, 0)

    def test_query_dim_checked(self, rng):
        idx, _ = random_index(rng, 4, 3)
        with pytest.raises(DimMismatch):
            top_k(np.ones(5), idx, 1)

    def test_semantic_vector_query(self, index, tiny_vocab, tiny_encoder):
        q = encode("alpha bravo", tiny_vocab, tiny_encoder)
        results = top_k(q, index, 1)
        assert results[0].chunk_id == 0
        assert results[0].score == pytest.approx(1.0)


class TestThreshold:
    def test_keeps_scores_at_or_above_tau(self, rng):
        idx, _ = random_index(rng, 20, 4)
        q = rng.normal(size=4)
        results = top_k(q, idx, 20)
        kept = filter_by_threshold(results, 0.1)
        assert all(r.score >= 0.1 for r in kept)
        assert kept == [r for r in results if r.score >= 0.1]

    def test_boundary_inclusive(self):
        r = [RetrievalResult(chunk_id=0, score=0.5, rank=1)]
        assert filter_by_threshold(r, 0.5) == r

    def test_can_empty_out(self, rng):
        idx, _ = random_index(rng, 5, 4)
        assert filter_by_threshold(top_k(np.ones(4), idx, 5), 2.0) == []


class TestPersistence:
    def test_round_trip(self, tmp_path, index, tiny_vocab, tiny_encoder):
        path = tmp_path / "idx.bin"
        save_index(path, index, tiny_vocab, tiny_encoder)
        loaded, vocab2, params2 = load_index(path)
        np.testing.assert_array_equal(loaded.ids, index.ids)
        assert loaded.texts == index.texts
        np.testing.assert_array_equal(loaded.matrix, index.matrix)
        np.testing.assert_array_equal(params2.embedding, tiny_encoder.embedding)
        assert vocab2.tokens == tiny_vocab.tokens
        assert params2.fingerprint() == tiny_encoder.fingerprint()
        # Retrieval behaves identically after the round trip.
        q = encode("alpha charlie", tiny_vocab, tiny_encoder)
        assert [r.chunk_id for r in top_k(q, loaded, 3)] == [
            r.chunk_id for r in top_k(q, index, 3)
        ]

    def test_resave_is_byte_identical(self, tmp_path, index, tiny_vocab, tiny_encoder):
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_index(p1, index, tiny_vocab, tiny_encoder)
        loaded, vocab2, params2 = load_index(p1)
        save_index(p2, loaded, vocab2, params2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_wrong_kind_rejected(self, tmp_path, index, tiny_vocab, tiny_encoder):
        from alignrag.serialization import read_container

        path = tmp_path / "idx.bin"
        save_index(path, index, tiny_vocab, tiny_encoder)
        with pytest.raises(CheckpointError):
            read_container(path, "checkpoint")

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda h, a: a.update(vectors=2 * a["vectors"]),
            lambda h, a: a["vectors"].__setitem__((0, 0), np.nan),
            lambda h, a: h["entries"][1].update(id=h["entries"][0]["id"]),
            lambda h, a: h["entries"][1].update(id="1"),
            lambda h, a: h.update(entry_count=h["entry_count"] + 1),
        ],
        ids=["non-unit-norm", "non-finite", "duplicate-id", "non-integer-id", "entry-count"],
    )
    def test_invalid_stored_index_rejected(self, tmp_path, index, tiny_vocab, tiny_encoder, corrupt):
        from alignrag.serialization import read_container, write_container

        path = tmp_path / "idx.bin"
        save_index(path, index, tiny_vocab, tiny_encoder)
        header, arrays = read_container(path, "index")
        corrupt(header, arrays)
        write_container(path, "index", {k: v for k, v in header.items() if k not in ("kind", "arrays")}, arrays)
        with pytest.raises(CheckpointError):
            load_index(path)
