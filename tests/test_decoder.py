import numpy as np
import pytest

from alignrag.aggregation import EvidenceAggregate, EvidenceWeights
from alignrag.decoder import (
    decode_greedy,
    decoder_shapes,
    fuse,
    init_decoder_params,
    initial_state,
    pooled_generation_repr,
    step,
)
from alignrag.encoder import SemanticVector, encode
from alignrag.errors import DimMismatch, EmptyTrace, InvalidTokenId
from alignrag.vocab import EOS_ID

DIM = 6  # matches the tiny_encoder fixture dimension
HID = 3


@pytest.fixture
def params(tiny_vocab):
    return init_decoder_params(tiny_vocab.size, dim=DIM, hidden=HID, seed=3)


def make_evidence(vec):
    vec = np.asarray(vec, dtype=np.float64)
    return EvidenceAggregate(
        vector=SemanticVector(vec, normalized=False),
        source_weights=EvidenceWeights(entries=[(0, 1.0)], beta=1.0),
    )


class TestInit:
    def test_shapes(self, tiny_vocab, params):
        shapes = decoder_shapes(tiny_vocab.size, DIM, HID)
        assert set(params) == set(shapes)
        for name, shape in shapes.items():
            assert params[name].shape == shape
        assert params["w_z"].shape == (HID, DIM)
        assert params["w_out"].shape[0] == tiny_vocab.size

    def test_deterministic_and_biases_zero(self, tiny_vocab, params):
        again = init_decoder_params(tiny_vocab.size, dim=DIM, hidden=HID, seed=3)
        for name in params:
            assert np.array_equal(params[name], again[name])
        for name in ("b_z", "b_r", "b_h", "b_out"):
            assert np.all(params[name] == 0.0)


class TestStepOracles:
    def test_fuse_matches_manual_projection(self, params, rng):
        h, e = rng.normal(size=HID), rng.normal(size=DIM)
        expected = params["w_out"] @ np.concatenate([h, e]) + params["b_out"]
        np.testing.assert_allclose(fuse(h, e, params), expected, atol=1e-12)

    def test_fuse_dim_checked(self, params, rng):
        with pytest.raises(DimMismatch):
            fuse(rng.normal(size=HID + 1), rng.normal(size=DIM), params)

    def test_step_matches_hand_rolled_cell(self, params, rng):
        # Independent re-derivation of the gated update with plain numpy.
        h_prev, e = rng.normal(size=HID), rng.normal(size=DIM)
        tok = 4
        p = params
        x = p["embed"][tok]
        sig = lambda v: 1.0 / (1.0 + np.exp(-v))
        z = sig(p["w_z"] @ x + p["u_z"] @ h_prev + p["b_z"])
        r = sig(p["w_r"] @ x + p["u_r"] @ h_prev + p["b_r"])
        cand = np.tanh(p["w_h"] @ x + p["u_h"] @ (r * h_prev) + p["b_h"])
        h_expect = (1 - z) * h_prev + z * cand
        logits = p["w_out"] @ np.concatenate([h_expect, e]) + p["b_out"]
        dist_expect = np.exp(logits - logits.max())
        dist_expect /= dist_expect.sum()
        dist, h = step(tok, h_prev, e, params)
        np.testing.assert_allclose(h, h_expect, atol=1e-12)
        np.testing.assert_allclose(dist, dist_expect, atol=1e-12)
        assert abs(dist.sum() - 1.0) < 1e-12

    def test_step_rejects_bad_token(self, params, rng):
        h, e = rng.normal(size=HID), rng.normal(size=DIM)
        with pytest.raises(InvalidTokenId):
            step(-1, h, e, params)
        with pytest.raises(InvalidTokenId):
            step(params["w_out"].shape[0], h, e, params)

    def test_initial_state_oracle(self, params, rng):
        q = rng.normal(size=DIM)
        np.testing.assert_allclose(
            initial_state(q, params), np.tanh(params["w_init"] @ q), atol=1e-12
        )

    def test_pooled_repr_oracle(self, params, rng):
        states = [rng.normal(size=HID) for _ in range(3)]
        expected = params["w_pool"] @ np.mean(states, axis=0)
        expected /= np.linalg.norm(expected)
        got = pooled_generation_repr(states, params)
        assert got.normalized
        np.testing.assert_allclose(got.values, expected, atol=1e-12)

    def test_pooled_repr_empty(self, params):
        with pytest.raises(EmptyTrace):
            pooled_generation_repr([], params)


class TestGreedyDecode:
    def test_deterministic(self, tiny_vocab, tiny_encoder, params, rng):
        ev = make_evidence(rng.normal(size=DIM))
        a = decode_greedy(encode("alpha bravo", tiny_vocab, tiny_encoder), ev, params)
        b = decode_greedy(encode("alpha bravo", tiny_vocab, tiny_encoder), ev, params)
        assert a.tokens == b.tokens
        np.testing.assert_array_equal(a.h_gen.values, b.h_gen.values)

    def test_respects_max_len(self, tiny_vocab, tiny_encoder, params, rng):
        ev = make_evidence(rng.normal(size=DIM))
        trace = decode_greedy(encode("alpha", tiny_vocab, tiny_encoder), ev, params, max_len=3)
        assert 1 <= len(trace.tokens) <= 3
        assert len(trace.step_states) == len(trace.tokens)
        assert len(trace.step_distributions) == len(trace.tokens)

    def test_stops_at_eos(self, tiny_vocab, tiny_encoder, rng):
        # Bias the output layer so EOS dominates: decoding must stop at step 1.
        params = init_decoder_params(tiny_vocab.size, dim=DIM, hidden=HID, seed=3)
        params["b_out"] = np.zeros(tiny_vocab.size)
        params["b_out"][EOS_ID] = 50.0
        ev = make_evidence(rng.normal(size=DIM))
        trace = decode_greedy(encode("alpha", tiny_vocab, tiny_encoder), ev, params, max_len=10)
        assert trace.tokens == [EOS_ID]

    def test_argmax_tie_goes_to_lowest_id(self, tiny_vocab, tiny_encoder, rng):
        # Zero output weights make every logit equal: the tie must resolve
        # to token id 0 at every step.
        params = init_decoder_params(tiny_vocab.size, dim=DIM, hidden=HID, seed=3)
        params["w_out"] = np.zeros_like(params["w_out"])
        ev = make_evidence(rng.normal(size=DIM))
        trace = decode_greedy(encode("alpha", tiny_vocab, tiny_encoder), ev, params, max_len=4)
        assert trace.tokens == [0, 0, 0, 0]

    def test_max_len_validated(self, tiny_vocab, tiny_encoder, params, rng):
        ev = make_evidence(rng.normal(size=DIM))
        with pytest.raises(ValueError):
            decode_greedy(encode("alpha", tiny_vocab, tiny_encoder), ev, params, max_len=0)

    def test_evidence_changes_output_distribution(
        self, tiny_vocab, tiny_encoder, params
    ):
        # The evidence vector enters every step's projection, so different
        # evidence must shift the first-step distribution.
        q = encode("alpha", tiny_vocab, tiny_encoder)
        t1 = decode_greedy(q, make_evidence([1.0, 0, 0, 0, 0, 0]), params)
        t2 = decode_greedy(q, make_evidence([-9.0, 5, 2, -7, 3, 1]), params)
        assert not np.allclose(t1.step_distributions[0], t2.step_distributions[0])
