import numpy as np
import pytest

from alignrag.encoder import (
    EncoderParams,
    SemanticVector,
    encode,
    encode_rows,
    init_encoder_params,
)
from alignrag.errors import DegenerateNorm, EmptyInput


class TestSemanticVector:
    def test_must_be_one_dimensional(self):
        with pytest.raises(ValueError):
            SemanticVector(np.zeros((2, 2)))

    def test_must_be_finite(self):
        with pytest.raises(ValueError):
            SemanticVector(np.array([1.0, np.nan]))

    def test_normalized_flag_checked(self):
        with pytest.raises(ValueError):
            SemanticVector(np.array([2.0, 0.0]), normalized=True)
        SemanticVector(np.array([1.0, 0.0]), normalized=True)  # unit: fine


class TestInit:
    def test_deterministic_from_seed(self):
        a = init_encoder_params(10, dim=4, seed=7)
        b = init_encoder_params(10, dim=4, seed=7)
        assert np.array_equal(a.embedding, b.embedding)
        c = init_encoder_params(10, dim=4, seed=8)
        assert not np.array_equal(a.embedding, c.embedding)

    def test_shape_and_scale(self):
        p = init_encoder_params(10, dim=4, seed=0)
        assert p.embedding.shape == (10, 4)
        assert np.all(np.abs(p.embedding) <= 0.08)

    def test_fingerprint_tracks_values(self):
        a = init_encoder_params(10, dim=4, seed=0)
        b = init_encoder_params(10, dim=4, seed=1)
        assert a.fingerprint() != b.fingerprint()
        assert a.fingerprint() == EncoderParams(a.embedding.copy()).fingerprint()


class TestEncode:
    def test_mean_pool_then_normalize_oracle(self, rng):
        # Independent oracle: explicit mean + norm with plain numpy.
        table = rng.normal(size=(9, 5))
        ids = [2, 5, 5, 7]
        expected = table[ids].mean(axis=0)
        norm = np.linalg.norm(expected)
        got, norms = encode_rows(table, ids, [len(ids)])
        np.testing.assert_allclose(got[0], expected / norm, rtol=0, atol=1e-12)
        np.testing.assert_allclose(norms, [[norm]], rtol=1e-12, atol=0)

    def test_segments_of_gathered_rows(self, rng):
        table = rng.normal(size=(5, 3))
        ids = [2, 0, 2, 4, 2, 1, 3]  # row 2 repeats within and across segments
        lengths = [1, 3, 1, 2]  # two one-token segments
        got, norms = encode_rows(table, ids, lengths)
        bounds = np.cumsum([0] + lengths)
        pooled = np.array([table[ids[a:b]].mean(axis=0) for a, b in zip(bounds, bounds[1:])])
        np.testing.assert_allclose(got * norms, pooled, rtol=0, atol=1e-15)
        np.testing.assert_allclose(np.linalg.norm(got, axis=1), 1.0, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("lengths", [[2, 0, 2], [2, 1], [2, 3], []])
    def test_segments_must_cover_the_ids(self, lengths):
        with pytest.raises(ValueError):
            encode_rows(np.ones((4, 2)), [0, 1, 2, 3], lengths)

    def test_output_is_unit_norm(self, tiny_vocab, tiny_encoder):
        v = encode("alpha bravo charlie", tiny_vocab, tiny_encoder)
        assert v.normalized
        assert abs(np.linalg.norm(v.values) - 1.0) < 1e-12

    def test_same_text_same_vector(self, tiny_vocab, tiny_encoder):
        a = encode("alpha bravo", tiny_vocab, tiny_encoder)
        b = encode("alpha bravo", tiny_vocab, tiny_encoder)
        assert np.array_equal(a.values, b.values)

    def test_empty_text_rejected(self, tiny_vocab, tiny_encoder):
        with pytest.raises(EmptyInput):
            encode("...", tiny_vocab, tiny_encoder)

    def test_degenerate_norm_detected(self):
        params = EncoderParams(embedding=np.zeros((4, 3)))
        with pytest.raises(DegenerateNorm):
            encode_rows(params.embedding, [0, 1], [2])

    def test_cancelling_rows_are_degenerate(self):
        table = np.zeros((2, 3))
        table[0] = [1.0, -2.0, 0.5]
        table[1] = -table[0]
        with pytest.raises(DegenerateNorm):
            encode_rows(table, [0, 1], [2])
