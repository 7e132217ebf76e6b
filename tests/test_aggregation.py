import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alignrag.aggregation import _blocks, _weighted_sum, aggregate, normalize_weights, weigh
from alignrag.errors import EmptyScores, NonFiniteBeta, UnknownChunkId
from alignrag.index import EvidenceIndex
import reference as ref

score_lists = st.lists(
    st.floats(min_value=-1.0, max_value=1.0, allow_nan=False), min_size=1, max_size=12
)
betas = st.floats(min_value=0.0, max_value=16.0, allow_nan=False)


def scored(values):
    return list(enumerate(values))


class TestSimplex:
    @given(values=score_lists, beta=betas)
    @settings(max_examples=300)
    def test_weights_form_a_simplex(self, values, beta):
        w = normalize_weights(scored(values), beta)
        alphas = [a for _, a in w.entries]
        assert all(a >= 0.0 for a in alphas)
        assert abs(sum(alphas) - 1.0) < 1e-9

    @given(values=score_lists, beta=betas, shift=st.floats(-5.0, 5.0, allow_nan=False))
    @settings(max_examples=200)
    def test_shift_invariance(self, values, beta, shift):
        base = normalize_weights(scored(values), beta)
        shifted = normalize_weights(scored([v + shift for v in values]), beta)
        for (_, a), (_, b) in zip(base.entries, shifted.entries):
            assert abs(a - b) < 1e-9

    @given(values=score_lists)
    @settings(max_examples=100)
    def test_beta_zero_exactly_uniform(self, values):
        w = normalize_weights(scored(values), 0.0)
        assert all(a == 1.0 / len(values) for _, a in w.entries)

    @given(beta=betas.filter(lambda b: b > 0))
    @settings(max_examples=100)
    def test_higher_score_never_lower_weight(self, beta):
        w = normalize_weights(scored([0.9, 0.3, 0.3, -0.5]), beta)
        alphas = [a for _, a in w.entries]
        assert alphas[0] >= alphas[1]
        assert alphas[1] == pytest.approx(alphas[2])
        assert alphas[2] >= alphas[3]


class TestNormalizeWeights:
    def test_matches_manual_softmax(self):
        values = [0.8, 0.1, -0.4]
        beta = 2.5
        exps = [math.exp(beta * v) for v in values]
        expected = [e / sum(exps) for e in exps]
        w = normalize_weights(scored(values), beta)
        for (_, got), want in zip(w.entries, expected):
            assert got == pytest.approx(want, abs=1e-12)

    def test_sharpening_with_large_beta(self):
        w = normalize_weights(scored([1.0, 0.5, 0.0]), 50.0)
        assert w.entries[0][1] > 0.999

    def test_preserves_chunk_ids_and_order(self):
        w = normalize_weights([(7, 0.2), (3, 0.9)], 1.0)
        assert [cid for cid, _ in w.entries] == [7, 3]
        assert w.beta == 1.0

    def test_empty_scores(self):
        with pytest.raises(EmptyScores):
            normalize_weights([], 1.0)

    @pytest.mark.parametrize("beta", [float("nan"), float("inf"), -float("inf"), -0.5])
    def test_bad_beta(self, beta):
        with pytest.raises(NonFiniteBeta):
            normalize_weights(scored([0.1]), beta)

    def test_no_overflow_at_extreme_scores(self):
        w = normalize_weights(scored([400.0, -400.0]), 10.0)
        assert all(math.isfinite(a) for _, a in w.entries)
        assert abs(sum(a for _, a in w.entries) - 1.0) < 1e-9


class TestAggregate:
    @pytest.fixture
    def index(self, rng):
        vecs = rng.normal(size=(4, 3))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        self.vecs = vecs
        return EvidenceIndex(range(4), [f"c{i}" for i in range(4)], vecs)

    def test_matches_manual_weighted_sum(self, index):
        w = normalize_weights([(0, 0.9), (2, 0.4), (3, -0.1)], 1.5)
        agg = aggregate(w, index)
        expected = sum(a * self.vecs[cid] for cid, a in w.entries)
        np.testing.assert_allclose(agg.vector.values, expected, atol=1e-12)
        assert agg.source_weights is w

    def test_single_chunk_recovers_its_vector(self, index):
        w = normalize_weights([(1, 0.5)], 2.0)
        agg = aggregate(w, index)
        np.testing.assert_allclose(agg.vector.values, self.vecs[1], atol=1e-12)

    def test_aggregate_is_not_marked_normalized(self, index):
        w = normalize_weights([(0, 0.9), (1, 0.1)], 1.0)
        assert not aggregate(w, index).vector.normalized

    def test_unknown_chunk_id(self, index):
        w = normalize_weights([(0, 0.9), (42, 0.1)], 1.0)
        with pytest.raises(UnknownChunkId):
            aggregate(w, index)


class TestWeigh:
    """weigh weights many segments at once with the bits of one softmax and one
    term-by-term sum per segment."""

    @pytest.mark.parametrize("beta", [0.0, 0.5, 2.0, 4.0, 8.0])
    def test_matches_per_segment_weighting(self, rng, beta):
        counts = [1, 3, 5, 8, 12, 20, 3, 12, 1, 20, 5, 8]
        scores = rng.uniform(-1.0, 1.0, size=sum(counts))
        rows = rng.normal(size=(sum(counts), 6))
        alphas, e = weigh(scores, counts, beta, rows)
        start = 0
        for s, n in enumerate(counts):
            want_alphas, want_e = ref.weigh(scores[start : start + n], rows[start : start + n], beta)
            assert alphas[start : start + n].tolist() == want_alphas
            assert e[s].tobytes() == want_e.tobytes()
            start += n

    @given(
        counts=st.lists(st.integers(min_value=1, max_value=20), min_size=1, max_size=8),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_weighted_sum_adds_in_rank_order(self, counts, seed):
        rng = np.random.default_rng(seed)
        alphas = rng.uniform(size=sum(counts))
        rows = rng.normal(size=(sum(counts), 5))
        e = _weighted_sum(alphas, rows, _blocks(np.array(counts)))
        start = 0
        for s, n in enumerate(counts):
            want = alphas[start] * rows[start]
            for j in range(start + 1, start + n):
                want = want + alphas[j] * rows[j]
            assert e[s].tobytes() == want.tobytes(), s
            start += n

    def test_normalize_weights_and_aggregate_share_its_bits(self, rng):
        vecs = rng.normal(size=(12, 4))
        index = EvidenceIndex(range(12), [f"c{i}" for i in range(12)], vecs)
        scores = rng.uniform(-1.0, 1.0, size=12)
        w = normalize_weights(list(enumerate(scores)), 2.0)
        alphas, e = weigh(scores, [12], 2.0, vecs)
        assert [a for _, a in w.entries] == alphas.tolist()
        assert aggregate(w, index).vector.values.tobytes() == e[0].tobytes()

    def test_empty_segment_rejected(self):
        with pytest.raises(EmptyScores):
            weigh([0.5, 0.2], [2, 0], 1.0)
