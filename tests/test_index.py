import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alignrag.encoder import EncoderParams, encode
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
    best_k,
    build_index,
    cosine_scores,
    filter_by_threshold,
    load_index,
    save_index,
    score_samples,
    select_evidence,
    top_k,
)
import reference as ref

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


def exhaustive(q, idx, k):
    """The rule top_k must equal: one einsum over every row in C order, then best_k."""
    with np.errstate(over="ignore"):
        qn = np.linalg.norm(q)
    if np.isinf(qn) and np.isfinite(q).all():  # finite values whose squares overflow
        m = np.abs(q).max()
        qn = m * np.linalg.norm(q / m)
    rows = np.ascontiguousarray(idx.matrix)
    scores = np.einsum("nd,d->n", rows, q / qn) if qn >= 1e-12 else np.zeros(len(idx))
    order = best_k(scores, k)
    return idx.ids[order].tolist(), scores[order]


def assert_screened_exact(q, idx, k):
    got = top_k(q, idx, k)
    ids, scores = exhaustive(q, idx, k)
    assert [r.chunk_id for r in got] == ids
    np.testing.assert_array_equal([r.score for r in got], scores)


def random_index(rng, n, dim):
    vecs = rng.normal(size=(n, dim))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    index = EvidenceIndex(range(n), [f"chunk {i}" for i in range(n)], vecs)
    return index, vecs


class TestBuild:
    def test_entries_sorted_by_id(self, tiny_vocab, tiny_encoder):
        idx = build_index(list(reversed(CORPUS)), tiny_vocab, tiny_encoder)
        assert idx.ids.tolist() == [0, 1, 2, 3, 4]

    def test_ascending_ids_keep_their_rows_in_place(self, rng):
        rows = rng.normal(size=(4, 3))
        idx = EvidenceIndex([2, 5, 7, 9], ["a", "b", "c", "d"], rows)
        assert np.shares_memory(idx.matrix, rows)
        with pytest.raises(ValueError, match="read-only"):
            idx.matrix[0, 0] = 0.0
        shuffled = EvidenceIndex([5, 2, 9, 7], ["b", "a", "d", "c"], rows[[1, 0, 3, 2]])
        assert shuffled.ids.tolist() == idx.ids.tolist() and shuffled.texts == idx.texts
        np.testing.assert_array_equal(shuffled.matrix, rows)
        with pytest.raises(DuplicateId, match="duplicate chunk id 5"):
            EvidenceIndex([2, 5, 5], ["a", "b", "c"], rows[:3])

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

    @staticmethod
    def assert_matches_oracle(q, idx, k):
        """top_k against a full sort by (-score, position) on the exact cosine
        scores, one einsum over every row; positions ascend with chunk ids."""
        qn = np.linalg.norm(q)
        scores = np.einsum("nd,d->n", idx.matrix, q / qn) if qn >= 1e-12 else np.zeros(len(idx))
        oracle = sorted(range(len(idx)), key=lambda i: (-scores[i], i))[:k]
        got = top_k(q, idx, k)
        assert [r.chunk_id for r in got] == idx.ids[oracle].tolist()
        assert [r.score for r in got] == scores[oracle].tolist()

    def test_tie_blocks_from_duplicate_rows(self, rng):
        # 30 rows drawn from 4 vectors: every score comes in a tie block, and
        # k walks through the inside and the edges of each block.
        base = rng.normal(size=(4, 5))
        rows = base[rng.integers(0, 4, size=30)]
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        idx = EvidenceIndex(range(30), [f"c{i}" for i in range(30)], rows)
        for q in (*base, rng.normal(size=5)):
            for k in range(1, 31):
                self.assert_matches_oracle(q, idx, k)

    def test_k_inside_a_tie_block(self):
        # Scores 1, 0.6 x4, 0: k = 3 cuts the block of four after its second
        # member, which must be the two lowest ids of the block: 13 and 21.
        a, b, c = np.array([1.0, 0.0]), np.array([0.6, 0.8]), np.array([0.0, 1.0])
        ids = (40, 7, 13, 2, 99, 21)
        idx = EvidenceIndex(ids, [f"c{i}" for i in ids], [b, c, b, a, b, b])
        got = top_k(a, idx, 3)
        assert [r.chunk_id for r in got] == [2, 13, 21]
        assert [r.score for r in got] == [1.0, 0.6, 0.6]
        self.assert_matches_oracle(a, idx, 3)

    @pytest.mark.parametrize("k", [12, 13, 100])
    def test_k_at_and_above_corpus_size(self, rng, k):
        base = rng.normal(size=(3, 4))
        rows = base[[0, 1, 2, 0, 1, 2, 0, 0, 1, 2, 2, 1]]
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        ids = rng.permutation(1000)[:12]
        idx = EvidenceIndex(ids, [f"c{i}" for i in ids], rows)
        assert len(top_k(base[0], idx, k)) == 12
        self.assert_matches_oracle(base[0], idx, k)

    @pytest.mark.parametrize("k", [1, 4, 9])
    def test_zero_query_ties_everything(self, rng, k):
        ids = (31, 5, 77, 0, 12, 64, 8, 50, 3)
        rows = rng.normal(size=(9, 3))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        idx = EvidenceIndex(ids, [f"c{i}" for i in ids], rows)
        got = top_k(np.zeros(3), idx, k)
        assert [r.chunk_id for r in got] == sorted(ids)[:k]
        assert [r.score for r in got] == [0.0] * k
        self.assert_matches_oracle(np.zeros(3), idx, k)

    def test_ids_out_of_order_and_not_dense(self, rng):
        ids = rng.choice(10_000, size=25, replace=False)
        base = rng.normal(size=(3, 6))
        rows = base[rng.integers(0, 3, size=25)]
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        idx = EvidenceIndex(ids, [f"c{i}" for i in ids], rows)
        for q in (*base, rng.normal(size=6)):
            for k in (1, 5, 10, 25):
                self.assert_matches_oracle(q, idx, k)

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 20),
        dim=st.integers(1, 4),
        k=st.integers(1, 25),
        n_distinct=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        query=st.sampled_from(["row", "random", "zero"]),
    )
    def test_repeated_rows_property(self, n, dim, k, n_distinct, seed, query):
        rng = np.random.default_rng(seed)
        base = rng.normal(size=(n_distinct, dim))
        rows = base[rng.integers(0, n_distinct, size=n)]
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        ids = rng.choice(10 * n + 10, size=n, replace=False)
        idx = EvidenceIndex(ids, [f"c{i}" for i in ids], rows)
        q = {"row": base[0], "random": rng.normal(size=dim), "zero": np.zeros(dim)}[query]
        self.assert_matches_oracle(q, idx, k)

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


class TestRowStableScores:
    """A row's score depends only on the row and the query, so identical rows tie
    exactly, whatever the corpus size, and a lone row scores as it does in a corpus."""

    def test_duplicate_of_the_last_row_ties_with_its_twins(self):
        # A BLAS matrix-vector product scored the N mod 4 tail rows with another
        # kernel, so chunk 29 beat its identical twins 5, 6, 7, ... by one ulp.
        rng = np.random.default_rng(0)
        base = rng.normal(size=(3, 64))
        base /= np.linalg.norm(base, axis=1, keepdims=True)
        rows = base[rng.integers(0, 3, size=30)]
        q = rng.normal(size=64)
        got = top_k(q, EvidenceIndex(range(30), ["x"] * 30, rows), 30)
        assert [r.chunk_id for r in got[:10]] == [5, 6, 7, 10, 12, 15, 20, 22, 23, 29]
        assert len({r.score for r in got[:10]}) == 1

    @pytest.mark.parametrize("dim", [1, 3, 8, 64, 100])
    def test_identical_rows_tie_at_every_size(self, dim):
        rng = np.random.default_rng(dim)
        for n in range(1, 71):
            base = rng.normal(size=(3, dim))
            base /= np.linalg.norm(base, axis=1, keepdims=True)
            pick = rng.integers(0, 3, size=n)
            qs = rng.normal(size=(2, dim))
            idx = EvidenceIndex(range(n), ["x"] * n, base[pick])
            # Two questions over the same chunks form one stacked (2, n, dim) group.
            rows = np.vstack([qs[0], base[pick], qs[1]])
            slots = [np.arange(n + 1), np.r_[n + 1, 1 : n + 1]]
            batched = select_evidence(score_samples(rows, slots), None, -np.inf)
            for q, (positions, scores) in zip(qs, batched, strict=True):
                alone = [top_k(q, EvidenceIndex([0], ["x"], row[None]), 1)[0].score for row in base]
                want = sorted(range(n), key=lambda i: (-alone[pick[i]], i))
                want = [(i, alone[pick[i]]) for i in want]
                assert [(r.chunk_id, r.score) for r in top_k(q, idx, n)] == want
                assert list(zip(positions, scores)) == want


class TestScreen:
    """top_k scans a float32 copy of the rows and rescores in float64 only the rows
    the bound cannot rule out: it must equal the exhaustive rule on every input."""

    def test_near_ties_inside_the_slack(self, rng):
        dim, n = 16, 2000
        v = rng.normal(size=dim)
        rows = v + 1e-7 * rng.normal(size=(n, dim))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        idx = EvidenceIndex(range(n), ["x"] * n, rows)
        exact = rows @ (v / np.linalg.norm(v))
        rough = idx.screen @ (v / np.linalg.norm(v)).astype(np.float32)
        # float32 alone would rank these rows in another order.
        assert np.argsort(-exact, kind="stable")[:5].tolist() != np.argsort(-rough, kind="stable")[:5].tolist()
        for q in (v, v + 1e-6 * rng.normal(size=dim), rng.normal(size=dim)):
            for k in (1, 5, 50, n):
                assert_screened_exact(q, idx, k)

    def test_tie_blocks_straddling_k_at_ten_thousand_rows(self, rng):
        n, dim = 10_000, 32
        base = rng.normal(size=(6, dim))
        base /= np.linalg.norm(base, axis=1, keepdims=True)
        idx = EvidenceIndex(range(n), ["x"] * n, base[rng.integers(0, 6, size=n)])
        q = base[0] + 0.5 * rng.normal(size=dim)
        _, scores = exhaustive(q, idx, n)
        ends = np.flatnonzero(np.diff(scores)) + 1  # where each tie block ends
        assert len(ends) == 5 and ends[0] > 100
        for k in (1, 2, ends[0] - 1, ends[0], ends[0] + 1, ends[1] + 3, n - 1):
            assert_screened_exact(q, idx, int(k))

    def test_zero_query_keeps_every_row(self, rng):
        idx, _ = random_index(rng, 5000, 8)
        got = top_k(np.zeros(8), idx, 7)
        assert [(r.chunk_id, r.score) for r in got] == [(i, 0.0) for i in range(7)]
        assert_screened_exact(np.zeros(8), idx, 7)

    def test_k_bounds(self, rng):
        idx, _ = random_index(rng, 40, 5)
        q = rng.normal(size=5)
        for k in (40, 41, 10**6):
            assert len(top_k(q, idx, k)) == 40
            assert_screened_exact(q, idx, k)
        for k in (0, -1):
            with pytest.raises(ValueError, match="k must be >= 1"):
                top_k(q, idx, k)

    def test_non_unit_rows(self, rng):
        # Row norms from 1e-45 (below float32's smallest subnormal) to 1e30.
        n, dim = 3000, 12
        rows = rng.normal(size=(n, dim)) * 10.0 ** rng.uniform(-45, 30, size=(n, 1))
        rows[::7] = rows[3]  # exact duplicates of one row
        idx = EvidenceIndex(range(n), ["x"] * n, rows)
        assert np.isfinite(idx.slack)
        for q in (rows[3], rng.normal(size=dim), 1e-200 * rng.normal(size=dim)):
            for k in (1, 4, 600):
                assert_screened_exact(q, idx, k)

    @pytest.mark.parametrize(
        "big",
        [[3e38, 3e38, -3.3e38, 0, 0, 0], [1e39, 0, 0, 0, 0, 1], [1e300, -1e300, 0, 0, 0, 0]],
        ids=["partial-sum-overflows", "beyond-float32", "beyond-float32-squares"],
    )
    def test_rows_beyond_float32_range_keep_every_row(self, rng, big):
        # Row 5's float32 partial sums overflow to inf for q = (1, 1, 1, 0, 0, 0), yet row 9
        # scores higher: a screen that trusted the overflowed score would drop row 9.
        rows = rng.normal(size=(200, 6))
        rows[5], rows[9] = big, [2.9e38, 0, 0, 0, 0, 0]
        idx = EvidenceIndex(range(200), ["x"] * 200, rows)
        assert idx.slack == np.inf
        for q in (np.r_[1.0, 1.0, 1.0, 0, 0, 0], rows[5], rng.normal(size=6)):
            for k in (1, 3, 200):
                assert_screened_exact(q, idx, k)

    def test_non_finite_rows_keep_every_row(self, rng):
        rows = rng.normal(size=(50, 4))
        rows[[3, 17]] = [[np.inf, 0, 0, 0], [0, -np.inf, 0, 0]]
        rows[30] = np.nan
        idx = EvidenceIndex(range(50), ["x"] * 50, rows)
        assert idx.slack == np.inf
        for q in (rng.normal(size=4), np.zeros(4)):
            for k in (1, 2, 5, 49):
                assert_screened_exact(q, idx, k)

    def test_fortran_ordered_and_strided_rows(self, rng):
        rows = rng.normal(size=(300, 24))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        plain = EvidenceIndex(range(300), ["x"] * 300, rows)
        q = rng.normal(size=24)
        for layout in (np.asfortranarray(rows), np.repeat(rows, 2, axis=1)[:, ::2]):
            idx = EvidenceIndex(range(300), ["x"] * 300, layout)
            assert not idx.matrix.flags.c_contiguous
            assert cosine_scores(q, idx.matrix).tobytes() == cosine_scores(q, rows).tobytes()
            for k in (1, 10, 300):
                assert top_k(q, idx, k) == top_k(q, plain, k)
                assert_screened_exact(q, idx, k)

    def test_screen_is_a_read_only_float32_copy(self, rng):
        idx, vecs = random_index(rng, 20, 4)
        assert idx.screen.dtype == np.float32 and not np.shares_memory(idx.screen, vecs)
        np.testing.assert_array_equal(idx.screen, vecs.astype(np.float32))
        with pytest.raises(ValueError, match="read-only"):
            idx.screen[0, 0] = 0.0

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 300),
        dim=st.integers(1, 12),
        k=st.integers(1, 310),
        n_distinct=st.integers(1, 5),
        jitter=st.sampled_from([0.0, 1e-9, 1e-7, 1e-5]),
        scale=st.sampled_from(["unit", "mixed", "tiny", "huge"]),
        seed=st.integers(0, 2**32 - 1),
        query=st.sampled_from(["row", "random", "zero"]),
    )
    def test_equals_exhaustive_property(self, n, dim, k, n_distinct, jitter, scale, seed, query):
        rng = np.random.default_rng(seed)
        base = rng.normal(size=(n_distinct, dim))
        rows = base[rng.integers(0, n_distinct, size=n)] + jitter * rng.normal(size=(n, dim))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        rows *= {
            "unit": 1.0,
            "mixed": 10.0 ** rng.uniform(-3, 3, size=(n, 1)),
            "tiny": 1e-42,
            "huge": 1e37,
        }[scale]
        ids = rng.choice(10 * n + 10, size=n, replace=False)
        idx = EvidenceIndex(ids, [f"c{i}" for i in ids], rows)
        q = {"row": base[0], "random": rng.normal(size=dim), "zero": np.zeros(dim)}[query]
        assert_screened_exact(q, idx, k)


class TestScoreParity:
    """Scores moved from a BLAS matrix-vector product to one einsum, which sums in
    another order; the two agree within 1e-13."""

    @pytest.mark.parametrize("n,dim", [(1, 1), (7, 3), (30, 64), (48, 64), (1000, 64), (333, 100)])
    def test_einsum_scores_match_blas_within_tolerance(self, rng, n, dim):
        rows = rng.normal(size=(n, dim))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        qs = rng.normal(size=(5, dim))
        units = qs / np.linalg.norm(qs, axis=1, keepdims=True)
        blas = (rows @ units.T).T
        stacked = (np.broadcast_to(rows, (5, n, dim)) @ units[..., None])[..., 0]
        np.testing.assert_allclose(cosine_scores(qs, np.broadcast_to(rows, (5, n, dim))), stacked, rtol=0, atol=1e-13)
        idx = EvidenceIndex(range(n), ["x"] * n, rows)
        for q, want in zip(qs, blas):
            np.testing.assert_allclose(cosine_scores(q, rows), want, rtol=0, atol=1e-13)
            got = top_k(q, idx, n)
            np.testing.assert_allclose([r.score for r in got], want[[r.chunk_id for r in got]], rtol=0, atol=1e-13)


class TestBatchedRanking:
    """score_samples + select_evidence rank many samples, each against its own chunk
    rows, with the positions and score bits of the per-sample rule."""

    @staticmethod
    def samples(rng, sizes, dim=8):
        # Rows drawn from a few vectors, so every sample has exact tie blocks; one
        # question row is zero, which scores 0 everywhere.
        pool = rng.normal(size=(5, dim))
        pool /= np.linalg.norm(pool, axis=1, keepdims=True)
        rows, slots = [], []
        for b, n in enumerate(sizes):
            question = np.zeros(dim) if b == 2 else rng.normal(size=dim)
            start = len(rows)
            rows += [question, *pool[rng.integers(len(pool), size=n)]]
            slots.append(np.arange(start, start + 1 + n))
        return np.array(rows), slots

    @pytest.mark.parametrize("k", [1, 3, 5, 8, 12, 20, None])
    @pytest.mark.parametrize("tau", [-1.0, 0.0, 0.3])
    def test_matches_per_sample_ranking(self, rng, k, tau):
        sizes = [9, 4, 9, 1, 13, 4, 9]
        rows, slots = self.samples(rng, sizes)
        kept = select_evidence(score_samples(rows, slots), k, tau)
        for at, (positions, scores) in zip(slots, kept, strict=True):
            index = EvidenceIndex(range(len(at) - 1), ["x"] * (len(at) - 1), rows[at[1:]])
            want = [(c, s) for c, s in ref.rank(rows[at[0]], index, k or len(index)) if s >= tau]
            assert list(zip(positions, scores)) == want
        assert any(not positions for positions, _ in kept) == (tau == 0.3)

    def test_zero_norm_question_keeps_the_first_k_positions(self, rng):
        rows, slots = self.samples(rng, [6, 6, 6])
        positions, scores = select_evidence(score_samples(rows, slots), 4, -1.0)[2]
        assert positions == [0, 1, 2, 3] and scores == [0.0] * 4

    def test_top_k_matches_per_sample_ranking(self, rng):
        rows, slots = self.samples(rng, [30])
        idx = EvidenceIndex(range(30), ["x"] * 30, rows[1:])
        for k in (1, 4, 30, 31):
            got = [(r.chunk_id, r.score) for r in top_k(rows[0], idx, k)]
            assert got == ref.rank(rows[0], idx, k)

    def test_nan_scores_rank_last(self):
        # A NaN query scores NaN everywhere; a NaN row scores NaN against any query.
        idx = EvidenceIndex(range(3), list("abc"), np.eye(3))
        got = top_k(np.array([np.nan, 0.0, 0.0]), idx, 2)
        assert [r.chunk_id for r in got] == [0, 1] and np.isnan([r.score for r in got]).all()
        nan_row = np.eye(3)
        nan_row[0] = np.nan
        idx = EvidenceIndex(range(3), list("abc"), nan_row)
        got = top_k(np.array([0.0, 1.0, 0.0]), idx, 3)
        assert [r.chunk_id for r in got] == [1, 2, 0] and np.isnan(got[2].score)
        # The same two samples ranked at once; tau keeps no NaN score.
        rows = np.vstack([[np.nan, 0.0, 0.0], np.eye(3), [0.0, 1.0, 0.0], nan_row])
        scored = score_samples(rows, [np.arange(4), np.arange(4, 8)])
        assert select_evidence(scored, 2, -1.0) == [([], []), ([1, 2], [1.0, 0.0])]
        assert select_evidence(scored, 3, -1.0) == [([], []), ([1, 2], [1.0, 0.0])]

    def test_query_whose_squares_overflow_ranks_by_its_direction(self):
        # (1e300, -1e300, 0) is finite, but its squared norm overflows float64.
        rows = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.6, -0.8, 0.0]])
        idx = EvidenceIndex(range(3), list("abc"), rows)
        huge, plain = np.array([1e300, -1e300, 0.0]), np.array([1.0, -1.0, 0.0])
        ranked = {}
        for name, q in (("huge", huge), ("plain", plain)):
            got = [(r.chunk_id, r.score) for r in top_k(q, idx, 3)]
            [batched] = select_evidence(score_samples(np.vstack([q, rows]), [np.arange(4)]), 3, -1.0)
            assert list(zip(*batched)) == got
            ranked[name] = got
        assert [c for c, _ in ranked["huge"]] == [c for c, _ in ranked["plain"]] == [2, 0, 1]
        np.testing.assert_allclose([s for _, s in ranked["huge"]], [s for _, s in ranked["plain"]], rtol=1e-15)

    def test_bad_k_rejected(self, rng):
        rows, slots = self.samples(rng, [3])
        with pytest.raises(ValueError):
            select_evidence(score_samples(rows, slots), 0, -1.0)


class TestThreshold:
    def test_keeps_scores_at_or_above_tau(self, rng):
        idx, _ = random_index(rng, 20, 4)
        q = rng.normal(size=4)
        results = top_k(q, idx, 20)
        kept = filter_by_threshold(results, 0.1)
        assert all(r.score >= 0.1 for r in kept)
        assert kept == [r for r in results if r.score >= 0.1]

    def test_boundary_inclusive(self):
        r = [RetrievalResult(chunk_id=0, score=0.5)]
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

    def test_loaded_matrix_is_a_contiguous_aligned_view(self, tmp_path, index, tiny_vocab, tiny_encoder):
        path = tmp_path / "idx.bin"
        save_index(path, index, tiny_vocab, tiny_encoder)
        loaded, _, _ = load_index(path)
        assert loaded.matrix.flags.c_contiguous and loaded.matrix.flags.aligned

    def test_resave_is_byte_identical(self, tmp_path, index, tiny_vocab, tiny_encoder):
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_index(p1, index, tiny_vocab, tiny_encoder)
        loaded, vocab2, params2 = load_index(p1)
        save_index(p2, loaded, vocab2, params2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_with_encoder_fingerprint_loads(self, tmp_path, index, tiny_vocab, tiny_encoder):
        # Files written before the header dropped this informational field still load.
        from alignrag.serialization import read_container, write_container

        path = tmp_path / "idx.bin"
        save_index(path, index, tiny_vocab, tiny_encoder)
        header, arrays = read_container(path, "index")
        assert "encoder_fingerprint" not in header
        header = {k: v for k, v in header.items() if k not in ("kind", "arrays")}
        write_container(path, "index", {**header, "encoder_fingerprint": "0123abcd"}, arrays)
        loaded, _, params = load_index(path)
        np.testing.assert_array_equal(loaded.matrix, index.matrix)
        np.testing.assert_array_equal(params.embedding, tiny_encoder.embedding)

    def test_saved_bytes_are_pinned(self, tmp_path, tiny_vocab):
        # The float32 screen is never written: the file holds the header, vectors and
        # embedding only, with the bytes every earlier version wrote.
        rows = np.array([[0.6, 0.8], [1.0, 0.0], [0.0, -1.0]])
        idx = EvidenceIndex([7, 2, 5], ["seven", "two", "five"], rows)
        embedding = np.arange(2 * tiny_vocab.size).reshape(-1, 2) / 8.0
        path = tmp_path / "idx.bin"
        save_index(path, idx, tiny_vocab, EncoderParams(embedding=embedding))
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "a8b6943f48c7228cf676b79e6e6540bb0ce4b948a426c09563973ab4b3152fa1"

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
            lambda h, a: h["entries"][1].update(id=2**63),
        ],
        ids=["non-unit-norm", "non-finite", "duplicate-id", "non-integer-id", "entry-count",
             "id-outside-int64"],
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
