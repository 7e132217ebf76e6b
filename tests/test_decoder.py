import numpy as np
import pytest

from alignrag.aggregation import EvidenceAggregate, EvidenceWeights
from alignrag import decoder
from alignrag.decoder import (
    decode_greedy,
    decode_rows,
    decoder_shapes,
    fused_gates,
    generation_repr,
    gru_cell,
    init_decoder_params,
    initial_state,
    output_logits,
)
from alignrag.encoder import SemanticVector, encode
from alignrag.errors import DegenerateNorm, DimMismatch, InvalidTokenId
from alignrag.vocab import EOS_ID
import reference as ref

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
    """Each stage on (B, ·) rows against a per-row numpy oracle."""

    def test_fuse_matches_manual_projection(self, params, rng):
        h, e = rng.normal(size=(3, HID)), rng.normal(size=(3, DIM))
        logits, fused = output_logits(h, e, params)
        for b in range(3):
            expected = params["w_out"] @ np.concatenate([h[b], e[b]]) + params["b_out"]
            np.testing.assert_allclose(logits[b], expected, atol=1e-12)
        np.testing.assert_array_equal(fused, np.concatenate([h, e], axis=1))

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
        logits_expect = p["w_out"] @ np.concatenate([h_expect, e]) + p["b_out"]
        w_x, b_x, u_zr = fused_gates(params)
        h, *_ = gru_cell(x[None, :] @ w_x.T, h_prev[None, :], b_x, u_zr, p["u_h"])
        logits, _ = output_logits(h, e[None, :], params)
        np.testing.assert_allclose(h[0], h_expect, atol=1e-12)
        np.testing.assert_allclose(logits[0], logits_expect, atol=1e-12)

    def test_initial_state_oracle(self, params, rng):
        q = rng.normal(size=(3, DIM))
        got = initial_state(q, params)
        for b in range(3):
            np.testing.assert_allclose(got[b], np.tanh(params["w_init"] @ q[b]), atol=1e-12)

    def test_pooled_repr_oracle(self, params, rng):
        means = rng.normal(size=(3, HID))
        got, inv_norm = generation_repr(means, params)
        for b in range(3):
            pooled = params["w_pool"] @ means[b]
            np.testing.assert_allclose(got[b], pooled / np.linalg.norm(pooled), atol=1e-12)
            assert inv_norm[b] == pytest.approx(1 / np.linalg.norm(pooled), rel=1e-12)


class TestGreedyDecode:
    def test_deterministic(self, tiny_vocab, tiny_encoder, params, rng):
        ev = make_evidence(rng.normal(size=DIM))
        a = decode_greedy(encode("alpha bravo", tiny_vocab, tiny_encoder), ev, params)
        b = decode_greedy(encode("alpha bravo", tiny_vocab, tiny_encoder), ev, params)
        assert a.tokens == b.tokens
        np.testing.assert_array_equal(a.h_gen, b.h_gen)

    def test_respects_max_len(self, tiny_vocab, tiny_encoder, params, rng):
        ev = make_evidence(rng.normal(size=DIM))
        trace = decode_greedy(encode("alpha", tiny_vocab, tiny_encoder), ev, params, max_len=3)
        assert 1 <= len(trace.tokens) <= 3

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

    def test_evidence_width_checked(self, tiny_vocab, tiny_encoder, params):
        q = encode("alpha", tiny_vocab, tiny_encoder)
        with pytest.raises(DimMismatch):
            decode_greedy(q, make_evidence(np.ones(DIM + 1)), params)

    @pytest.mark.parametrize(
        "scale, error", [(0.0, DegenerateNorm), (np.nan, ValueError)], ids=["zero", "nan"]
    )
    def test_pooled_state_checked(self, tiny_vocab, tiny_encoder, rng, scale, error):
        params = init_decoder_params(tiny_vocab.size, dim=DIM, hidden=HID, seed=3)
        params["w_pool"] = params["w_pool"] * scale
        ev = make_evidence(rng.normal(size=DIM))
        with pytest.raises(error):
            decode_greedy(encode("alpha", tiny_vocab, tiny_encoder), ev, params)

    def test_output_layer_without_bos_rejected(self, tiny_vocab, tiny_encoder, params, rng):
        params = {**params, "w_out": params["w_out"][:1], "b_out": params["b_out"][:1]}
        ev = make_evidence(rng.normal(size=DIM))
        with pytest.raises(InvalidTokenId):
            decode_greedy(encode("alpha", tiny_vocab, tiny_encoder), ev, params)

    def test_evidence_changes_the_generation(self, tiny_vocab, tiny_encoder, params):
        # The evidence vector enters every step's output layer, so different
        # evidence changes the greedy path and with it the pooled states.
        q = encode("alpha", tiny_vocab, tiny_encoder)
        t1 = decode_greedy(q, make_evidence([1.0, 0, 0, 0, 0, 0]), params)
        t2 = decode_greedy(q, make_evidence([-9.0, 5, 2, -7, 3, 1]), params)
        assert t1.tokens != t2.tokens
        assert not np.allclose(t1.h_gen, t2.h_gen)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_vector_reference(self, tiny_vocab, tiny_encoder, seed):
        rng = np.random.default_rng(seed)
        params = init_decoder_params(tiny_vocab.size, dim=DIM, hidden=HID, seed=seed)
        params = {name: arr * 20 for name, arr in params.items()}  # varied argmax paths
        q = encode("alpha bravo charlie", tiny_vocab, tiny_encoder)
        for _ in range(5):
            e = rng.normal(size=DIM)
            trace = decode_greedy(q, make_evidence(e), params, max_len=12)
            tokens, h_gen = ref.decode_greedy(q.values, e, params, max_len=12)
            assert trace.tokens == tokens
            assert np.max(np.abs(trace.h_gen - h_gen)) <= 1e-12


class TestBatchedDecode:
    """decode_rows on a batch gives every row the bits of decoding it alone."""

    MAX_LEN = 12

    @staticmethod
    @pytest.fixture
    def batch(tiny_vocab):
        params = init_decoder_params(tiny_vocab.size, dim=DIM, hidden=HID, seed=5)
        params = {name: arr * 20 for name, arr in params.items()}  # varied argmax paths
        # e[0] drives the EOS logit: strongly positive rows stop at step 1,
        # strongly negative ones never emit EOS and run to max_len.
        params["w_out"][:, HID] = 0.0
        params["w_out"][EOS_ID, HID] = 40.0
        rng = np.random.default_rng(11)
        q = rng.normal(size=(40, DIM))
        e = rng.normal(size=(40, DIM))
        e[:, 0] = np.linspace(-3.0, 3.0, 40)
        return q, e, params

    def test_rows_match_one_row_decoding_bit_for_bit(self, batch):
        q, e, params = batch
        tokens, h_gen = decode_rows(q, e, params, self.MAX_LEN)
        lengths = {len(t) for t in tokens}
        assert 1 in lengths and self.MAX_LEN in lengths
        assert lengths - {1, self.MAX_LEN}, "no row stopped mid-run"
        for b in range(len(q)):
            want_tokens, want_h = ref.decode_row(q[b], e[b], params, self.MAX_LEN)
            assert tokens[b] == want_tokens
            np.testing.assert_array_equal(h_gen[b], want_h)
            # The per-vector softmax decoder agrees on the path.
            assert ref.decode_greedy(q[b], e[b], params, self.MAX_LEN)[0] == want_tokens

    @pytest.mark.parametrize("block", [1, 3])
    def test_block_size_changes_no_byte(self, batch, monkeypatch, block):
        q, e, params = batch
        tokens, h_gen = decode_rows(q, e, params, self.MAX_LEN)
        monkeypatch.setattr(decoder, "_DECODE_BLOCK", block)
        got_tokens, got_h = decode_rows(q, e, params, self.MAX_LEN)
        assert got_tokens == tokens
        assert got_h.tobytes() == h_gen.tobytes()

    def test_decode_greedy_is_one_row(self, batch):
        q, e, params = batch
        trace = decode_greedy(q[7], make_evidence(e[7]), params, max_len=self.MAX_LEN)
        tokens, h_gen = decode_rows(q[7:8], e[7:8], params, self.MAX_LEN)
        assert trace.tokens == tokens[0]
        np.testing.assert_array_equal(trace.h_gen, h_gen[0])

    @pytest.mark.parametrize("block", [1, 64])
    def test_first_degenerate_row_decides_the_error(self, batch, monkeypatch, block):
        q, e, params = batch
        monkeypatch.setattr(decoder, "_DECODE_BLOCK", block)
        zeroed = {**params, "w_pool": np.zeros_like(params["w_pool"])}
        with pytest.raises(DegenerateNorm):
            decode_rows(q, e, zeroed, self.MAX_LEN)
        # A NaN row before any near-zero one raises ValueError, as decoding it alone does.
        nan_first = q.copy()
        nan_first[0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            decode_rows(nan_first, e, zeroed, self.MAX_LEN)

    def test_max_len_sizes_no_buffer(self, batch):
        # Rows that stop at step 1 decode under a max_len no (B, max_len) buffer could hold.
        q, e, params = batch
        tokens, _ = decode_rows(q[-3:], e[-3:], params, max_len=10**15)
        assert tokens == [[EOS_ID]] * 3

    def test_empty_batch(self, batch):
        q, e, params = batch
        tokens, h_gen = decode_rows(q[:0], e[:0], params, self.MAX_LEN)
        assert tokens == [] and h_gen.shape == (0, DIM)
