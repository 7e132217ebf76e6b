import dataclasses
import math

import numpy as np
import pytest

from alignrag import autodiff as ad
from alignrag import training
from alignrag.data import QASample, SyntheticSpec, evidence_texts, generate_synthetic
from alignrag.decoder import decode_greedy
from alignrag.encoder import encode
from alignrag.errors import DimMismatch, EmptyInput, EmptyScores, InvalidTokenId, LengthMismatch
from alignrag.evaluation import retrieve
from alignrag.index import build_index
from alignrag.serialization import write_container
from alignrag.training import (
    Checkpoint,
    LossBreakdown,
    TrainConfig,
    init_params,
    joint_loss,
    joint_loss_and_grads,
    load_checkpoint,
    sample_chunks,
    save_checkpoint,
    train,
)
from alignrag.vocab import BOS_ID, EOS_ID, PAD_ID, Vocabulary
import reference as ref


def tiny_sample():
    return QASample(
        id="s0",
        question="what colour is the brick",
        answer="red brick",
        context=[
            ("brick", ["the brick is red", "bricks are heavy"]),
            ("sky", ["the sky is blue"]),
            ("grass", ["the grass is green"]),
        ],
        supporting_facts=[("brick", 0)],
    )


def tiny_training_setup(config):
    sample = tiny_sample()
    vocab = Vocabulary.from_texts(
        [sample.question, sample.answer] + [" ".join(s) for _, s in sample.context],
        hash_buckets=4,
    )
    params = init_params(vocab.size, config.dim, config.hidden, seed=config.seed)
    return sample, vocab, params


class TestNllLoss:
    def test_uniform_distribution_gives_log_v(self):
        v = 10
        dists = [np.full(v, 1.0 / v)] * 3
        assert ref.nll_loss(dists, [4, 5, 6]) == pytest.approx(math.log(v))

    def test_manual_two_step_oracle(self):
        d1 = np.array([0.1, 0.2, 0.3, 0.4])
        d2 = np.array([0.25, 0.25, 0.4, 0.1])
        expected = (-math.log(0.3) - math.log(0.25)) / 2
        assert ref.nll_loss([d1, d2], [2, 1]) == pytest.approx(expected)

    def test_pad_positions_excluded(self):
        d = np.array([0.5, 0.25, 0.25])
        with_pad = ref.nll_loss([d, d, d], [1, PAD_ID, 2])
        assert with_pad == pytest.approx((-math.log(0.25) - math.log(0.25)) / 2)

    def test_all_pad_returns_zero(self):
        d = np.array([0.5, 0.5])
        assert ref.nll_loss([d], [PAD_ID]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            ref.nll_loss([np.ones(2)], [0, 1])

    def test_invalid_target(self):
        with pytest.raises(InvalidTokenId):
            ref.nll_loss([np.array([0.5, 0.5])], [5])


class TestConsistencyLoss:
    def test_unit_displacement(self):
        h = np.array([1.0, 0.0, 0.0])
        e = np.array([0.0, 0.0, 0.0])
        assert ref.consistency_loss(h, e) == pytest.approx(1.0, abs=1e-6)

    def test_zero_at_coincidence(self):
        v = np.array([0.3, -0.2])
        assert ref.consistency_loss(v, v) == pytest.approx(0.0, abs=1e-12)

    def test_matches_euclidean_norm(self, rng):
        h, e = rng.normal(size=5), rng.normal(size=5)
        assert ref.consistency_loss(h, e) == pytest.approx(np.linalg.norm(h - e), abs=1e-6)

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            ref.consistency_loss(np.ones(3), np.ones(4))

    def test_eps_validated(self):
        with pytest.raises(ValueError):
            ref.consistency_loss(np.ones(2), np.zeros(2), eps=0.0)


class TestLossBreakdown:
    def test_joint_combines_components(self):
        b = LossBreakdown(l_nll=2.0, l_cons=0.5, lambda_=0.2)
        assert b.l_joint == pytest.approx(2.1)
        assert b.as_dict()["l_joint"] == pytest.approx(2.1)


class TestConfig:
    def test_validate_rejects_bad_values(self):
        for bad in (
            {"epochs": -1},
            {"batch_size": 0},
            {"top_k": 0},
            {"max_len": 0},
            {"learning_rate": 0.0},
            {"lambda_": -0.1},
            {"beta": -1.0},
        ):
            with pytest.raises(ValueError):
                TrainConfig(**bad).validate()

    def test_round_trips_through_dict(self):
        cfg = TrainConfig(seed=3, dim=16, lambda_=0.7, freeze_encoder=True)
        assert TrainConfig.from_dict(cfg.as_dict()) == cfg


PARITY_CASES = pytest.mark.parametrize(
    "overrides, n_kept",
    [
        ({}, 3),
        ({"tau": 0.9}, 2),
        ({"oracle_evidence": True}, 2),
        ({"oracle_evidence": True, "tau": 0.9}, 1),
    ],
    ids=["top_k", "tau-cuts-top_k", "oracle", "oracle-tau"],
)


def multi_hop_setup(overrides):
    samples, _ = generate_synthetic(
        SyntheticSpec(seed=4, n_samples=2, n_gold_evidence=2, n_distractors=6)
    )
    sample = samples[0]
    config = TrainConfig(dim=16, hidden=12, lambda_=1.0, beta=2.0, top_k=3, **overrides)
    all_chunks = evidence_texts(sample, include_title=config.include_title)
    assert config.top_k < len(all_chunks)
    vocab = Vocabulary.from_texts(
        [sample.question, sample.answer] + [text for _, text in all_chunks], hash_buckets=8
    )
    params = init_params(vocab.size, config.dim, config.hidden, seed=5)
    return sample, config, vocab, params


def batched_evidence(prepared, embed, config):
    """The training tape's (q, e) of a minibatch, each (B, D), from its one evidence node."""
    qe = training._evidence(prepared, embed, config)
    return ref.row(qe, 0), ref.row(qe, 1)


def minibatch_setup(overrides):
    """multi_hop_setup's sample, one with two of its chunks and one that asks a chunk's text.

    Under tau the samples keep different numbers of chunks.
    """
    sample, config, vocab, params = multi_hop_setup(overrides)
    gold = sample.supporting_facts[0][0]
    short = dataclasses.replace(
        sample,
        id="short",
        context=[c for c in sample.context if c[0] in (gold, "echo0")],
        supporting_facts=sample.supporting_facts[:1],
    )
    echo = dataclasses.replace(sample, id="echo", question=" ".join(sample.context[2][1]))
    return [sample, short, echo], config, vocab, params


def inference_retrieve(sample, config, vocab, params):
    """The inference path's query vector, kept results and evidence aggregate for a sample."""
    encoder = Checkpoint(config=config, vocab=vocab, params=params).encoder
    chunks = sample_chunks(sample, config)
    index = build_index(list(enumerate(text for _, text in chunks)), vocab, encoder)
    q = encode(sample.question, vocab, encoder)
    k = len(chunks) if config.oracle_evidence else config.top_k
    return (q, *retrieve(q, index, k, config.tau, config.beta))


class TestPreparedTable:
    """_prepare_samples tokenizes each distinct text once and gives each distinct question
    or chunk text one row, in first-use order; take lays a minibatch out as a fresh call would."""

    @pytest.mark.parametrize("include_title", [True, False])
    def test_taken_batch_equals_fresh_preparation(self, include_title):
        samples, config, vocab, _ = minibatch_setup({"include_title": include_title})
        others, _ = generate_synthetic(
            SyntheticSpec(seed=4, n_samples=4, n_gold_evidence=2, n_distractors=6)
        )
        dataset = samples + others
        table = training._prepare_samples(dataset, vocab, config)
        # Without titles, echo asks the text of one of the first sample's chunks.
        assert (table.slots[2][0] in table.slots[0][1:]) == (not include_title)
        first_use = list(dict.fromkeys(r for at in table.slots for r in at))
        assert first_use == list(range(len(table.token_ids)))
        for at in ([5, 2, 0], [2, 0, 2, 6], [3], list(range(len(dataset)))[::-1]):
            taken = table.take(at)
            fresh = training._prepare_samples([dataset[i] for i in at], vocab, config)
            assert taken.samples == fresh.samples
            assert taken.slots == fresh.slots
            assert taken.titles == fresh.titles
            assert taken.answer_ids == fresh.answer_ids
            assert len(taken.token_ids) == len(fresh.token_ids)
            for got, want in zip(taken.token_ids, fresh.token_ids):
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("answer", [True, False])
    def test_each_distinct_text_is_tokenized_once(self, monkeypatch, answer):
        samples, config, vocab, _ = minibatch_setup({"include_title": False})
        dataset = samples + samples[::-1]
        calls = {}
        encode_text = Vocabulary.encode

        def counting(self, text):
            calls[text] = calls.get(text, 0) + 1
            return encode_text(self, text)

        monkeypatch.setattr(Vocabulary, "encode", counting)
        training._prepare_samples(dataset, vocab, config, answer=answer)
        texts = {t for s in dataset for t in (s.question, *(c for _, c in sample_chunks(s, config)))}
        texts |= {s.answer for s in dataset} if answer else set()
        assert calls == dict.fromkeys(texts, 1)


class TestTapeInferenceParity:
    """The training tape, the inference path and the per-vector numpy decoder agree."""

    @PARITY_CASES
    def test_multi_hop_sample_matches(self, overrides, n_kept):
        sample, config, vocab, params = multi_hop_setup(overrides)

        # Inference: retrieve, then teacher-forced steps of the per-vector reference decoder.
        q, results, agg = inference_retrieve(sample, config, vocab, params)
        assert len(results) == n_kept  # tau=0.9 cuts the top 3 to 2, and the 2 gold chunks to 1
        answer_ids = vocab.encode(sample.answer)
        h = ref.initial_state(q.values, params)
        dists, states = [], []
        for tok in [BOS_ID] + answer_ids:
            dist, h = ref.step(tok, h, agg.vector.values, params)
            dists.append(dist)
            states.append(h)
        l_nll = ref.nll_loss(dists, answer_ids + [EOS_ID])
        l_cons = ref.consistency_loss(ref.pooled_generation_repr(states, params), agg.vector)

        tape = joint_loss(sample, vocab, params, config)
        tensors = training._wrap_params(params)
        prepared = training._prepare_samples([sample], vocab, config)
        _, e_tape = batched_evidence(prepared, tensors["enc_embed"], config)
        assert abs(tape.l_nll - l_nll) <= 1e-12
        assert abs(tape.l_cons - l_cons) <= 1e-12
        assert np.array_equal(e_tape.value[0], agg.vector.values)

    @PARITY_CASES
    def test_frozen_evidence_matches_retrieve(self, overrides, n_kept):
        # The three samples share chunk texts, so they share rows of the one layout.
        samples, config, vocab, params = minibatch_setup({**overrides, "freeze_encoder": True})
        prepared = training._prepare_dataset(samples, vocab, params, config)
        for b, sample in enumerate(samples):
            q, _, agg = inference_retrieve(sample, config, vocab, params)
            assert np.array_equal(prepared.frozen[0, b], q.values), sample.id
            assert np.array_equal(prepared.frozen[1, b], agg.vector.values), sample.id

    @PARITY_CASES
    def test_greedy_decode_matches_per_vector_reference(self, overrides, n_kept):
        sample, config, vocab, params = multi_hop_setup(overrides)
        q, _, agg = inference_retrieve(sample, config, vocab, params)
        trace = decode_greedy(q, agg, params, max_len=config.max_len)
        tokens, h_gen = ref.decode_greedy(q.values, agg.vector.values, params, config.max_len)
        assert trace.tokens == tokens
        assert np.max(np.abs(trace.h_gen - h_gen)) <= 1e-12

    @PARITY_CASES
    def test_batched_evidence_matches_per_chunk_tape(self, overrides, n_kept):
        sample, config, vocab, params = multi_hop_setup(overrides)
        rng = np.random.default_rng(0)
        u, v = ad.const(rng.normal(size=config.dim)), ad.const(rng.normal(size=config.dim))
        prepared = training._prepare_samples([sample], vocab, config)
        got, want = {}, {}
        for out, evidence in (
            (got, lambda embed: (ref.row(t, 0) for t in batched_evidence(prepared, embed, config))),
            (want, lambda embed: ref.per_chunk_evidence(sample, vocab, embed, config)),
        ):
            embed = ad.param(params["enc_embed"])
            q, e = evidence(embed)
            ad.backward(ref.add(ref.dot(q, u), ref.dot(e, v)))
            out.update(q=q.value, e=e.value, grad=embed.grad)
        for name in ("q", "e", "grad"):
            assert np.max(np.abs(got[name] - want[name])) <= 1e-12, name

    @PARITY_CASES
    @pytest.mark.parametrize("differentiable", [False, True])
    def test_minibatch_evidence_matches_per_sample_tapes(self, overrides, n_kept, differentiable):
        samples, config, vocab, params = minibatch_setup(
            {**overrides, "differentiable_weights": differentiable}
        )
        counts = [len(inference_retrieve(s, config, vocab, params)[1]) for s in samples]
        assert counts[0] == n_kept
        if "tau" in overrides and not config.oracle_evidence:
            assert counts == [2, 2, 1]
        rng = np.random.default_rng(0)
        u, v = rng.normal(size=(2, len(samples), config.dim))
        prepared = training._prepare_samples(samples, vocab, config)
        embed = ad.param(params["enc_embed"])
        q, e = batched_evidence(prepared, embed, config)
        ad.backward(
            ref.add(ref.sum_all(ref.mul(q, ad.const(u))), ref.sum_all(ref.mul(e, ad.const(v))))
        )
        want_grad = np.zeros_like(params["enc_embed"])
        for b, sample in enumerate(samples):
            embed_b = ad.param(params["enc_embed"])
            q_b, e_b = ref.evidence_tape(sample, vocab, embed_b, config)
            ad.backward(ref.add(ref.dot(q_b, ad.const(u[b])), ref.dot(e_b, ad.const(v[b]))))
            assert np.max(np.abs(q.value[b] - q_b.value)) <= 1e-12, b
            assert np.max(np.abs(e.value[b] - e_b.value)) <= 1e-12, b
            want_grad += embed_b.grad
        assert np.max(np.abs(embed.grad - want_grad)) <= 1e-12

    def test_empty_selection_names_a_later_sample(self):
        [sample, _, echo], config, vocab, params = minibatch_setup(
            {"oracle_evidence": True, "tau": 0.9}
        )
        # Asking the text of a distractor, no gold chunk scores 0.9.
        echo = dataclasses.replace(echo, question=" ".join(sample.context[3][1]))
        with pytest.raises(EmptyScores, match="sample echo: threshold 0.9"):
            joint_loss([sample, echo], vocab, params, config)
        frozen = dataclasses.replace(config, freeze_encoder=True)
        with pytest.raises(EmptyScores, match="sample echo: threshold 0.9"):
            training._prepare_dataset([sample, echo], vocab, params, frozen)


class TestBatchedDecoder:
    """A minibatch through the one decoder op equals the per-sample tapes it replaced."""

    # Answers of 1, 2, 4 and 3 tokens, so the batch is padded and masked.
    ANSWERS = ["wa1", "wa2 wb3", "wa3 wb4 wb5 wb6", "the wb7 end"]

    @pytest.mark.parametrize(
        "overrides",
        [
            {"freeze_encoder": True},
            {},
            {"differentiable_weights": True},
            {"oracle_evidence": True},
        ],
        ids=["frozen", "joint", "differentiable_weights", "oracle_evidence"],
    )
    @pytest.mark.parametrize("component", ["nll", "cons", "joint"])
    def test_batch_matches_mean_of_per_sample_tapes(self, overrides, component):
        samples, _ = generate_synthetic(
            SyntheticSpec(seed=4, n_samples=4, n_gold_evidence=2, n_distractors=6)
        )
        samples = [dataclasses.replace(s, answer=a) for s, a in zip(samples, self.ANSWERS)]
        config = TrainConfig(dim=16, hidden=12, lambda_=0.7, beta=2.0, top_k=3, **overrides)
        vocab = Vocabulary.from_texts(training._dataset_texts(samples), hash_buckets=8)
        assert sorted(len(vocab.encode(s.answer)) for s in samples) == [1, 2, 3, 4]
        params = init_params(vocab.size, config.dim, config.hidden, seed=5)

        batch = training._prepare_dataset(samples, vocab, params, config)
        assert (batch.frozen is not None) == config.freeze_encoder
        breakdowns, grads = joint_loss_and_grads(batch, vocab, params, config, component)

        want_grads = {name: np.zeros_like(arr) for name, arr in params.items()}
        for sample, got in zip(samples, breakdowns):
            tensors = training._wrap_params(params)
            l_nll, l_cons, l_joint = ref.per_sample_loss_tape(sample, vocab, tensors, config)
            assert abs(got.l_nll - float(l_nll.value)) <= 1e-12
            assert abs(got.l_cons - float(l_cons.value)) <= 1e-12
            ad.backward({"nll": l_nll, "cons": l_cons, "joint": l_joint}[component])
            for name, t in tensors.items():
                if t.grad is not None:
                    want_grads[name] += t.grad / len(samples)
        if config.freeze_encoder:
            assert "enc_embed" not in grads
            del want_grads["enc_embed"]
        assert sorted(grads) == sorted(want_grads)
        for name, want in want_grads.items():
            assert np.max(np.abs(grads[name] - want)) <= 1e-12, name

    def test_single_sample_is_a_batch_of_one(self):
        sample, config, vocab, params = multi_hop_setup({})
        single, single_grads = joint_loss_and_grads(sample, vocab, params, config)
        [batched], batched_grads = joint_loss_and_grads([sample], vocab, params, config)
        assert single == batched == joint_loss(sample, vocab, params, config)
        assert joint_loss([sample], vocab, params, config) == [single]
        for name in params:
            assert np.array_equal(single_grads[name], batched_grads[name]), name


class TestTapeContract:
    """A training step's tape: one gradient per parent from each node's one backward."""

    @pytest.mark.parametrize(
        "overrides, n_nodes",
        [({}, 17), ({"freeze_encoder": True}, 16), ({"differentiable_weights": True}, 17)],
        ids=["joint", "frozen", "differentiable_weights"],
    )
    def test_backward_gives_each_parent_its_shape_once_per_pass(self, overrides, n_nodes):
        samples, config, vocab, params = minibatch_setup(overrides)
        prepared = training._prepare_dataset(samples, vocab, params, config)
        tensors = training._wrap_params(params, config.freeze_encoder)
        root = training._loss_tape(prepared, tensors, config)
        nodes, stack = {}, [root]
        while stack:
            node = stack.pop()
            if id(node) not in nodes:
                nodes[id(node)] = node
                stack.extend(node.parents)
        assert len(nodes) == n_nodes
        rng = np.random.default_rng(0)
        calls = {}

        def counted(key, fn):
            def backward(g):
                calls[key] = calls.get(key, 0) + 1
                return fn(g)

            return backward

        inner = [node for node in nodes.values() if node.parents]
        assert any(len(node.parents) > 1 for node in inner)
        for node in inner:
            grads = node.backward(rng.normal(size=node.value.shape))
            assert len(grads) == len(node.parents)
            assert [np.shape(g) for g in grads] == [p.value.shape for p in node.parents]
            node.backward = counted(id(node), node.backward)
        ad.backward(root, rng.normal(size=root.value.shape))
        assert calls == {id(node): 1 for node in inner}


class TestAdam:
    @staticmethod
    def reference_update(state, params, grads, lr, b1=0.9, b2=0.999, eps=1e-8):
        """The allocating Adam formula the in-place update must reproduce bit for bit."""
        state["t"] += 1
        for name in sorted(grads):
            g = grads[name]
            m = state["m"].get(name, np.zeros_like(g))
            v = state["v"].get(name, np.zeros_like(g))
            state["m"][name] = m = b1 * m + (1 - b1) * g
            state["v"][name] = v = b2 * v + (1 - b2) * g * g
            m_hat = m / (1 - b1 ** state["t"])
            v_hat = v / (1 - b2 ** state["t"])
            params[name] -= lr * m_hat / (np.sqrt(v_hat) + eps)

    def test_in_place_update_is_bit_identical(self, rng):
        shapes = {"a": (5, 3), "b": (7,), "c": ()}
        got = {name: rng.normal(size=shape) for name, shape in shapes.items()}
        want = {name: arr.copy() for name, arr in got.items()}
        opt, state = training.Adam(lr=0.03), {"t": 0, "m": {}, "v": {}}
        for i in range(6):
            # "c" gets a gradient only from the third step on.
            grads = {name: rng.normal(size=s) * 10.0 ** (i - 3) for name, s in shapes.items()}
            if i < 2:
                del grads["c"]
            opt.update(got, grads)
            self.reference_update(state, want, grads, lr=0.03)
            for name in shapes:
                assert np.array_equal(got[name], want[name]), (i, name)


class TestInitParams:
    def test_deterministic_and_includes_encoder(self):
        a = init_params(20, dim=4, hidden=3, seed=9)
        b = init_params(20, dim=4, hidden=3, seed=9)
        assert set(a) == set(b)
        assert "enc_embed" in a
        for name in a:
            assert np.array_equal(a[name], b[name])
        c = init_params(20, dim=4, hidden=3, seed=10)
        assert not np.array_equal(a["enc_embed"], c["enc_embed"])


class TestGradientChecks:
    """Spot finite-difference checks on the end-to-end loss graph.

    The exhaustive 100-coordinate-per-component run lives in the
    acceptance suite; these keep the unit suite fast.
    """

    @pytest.mark.parametrize("component", ["nll", "cons", "joint"])
    def test_detached_weight_flow(self, component, rng):
        config = TrainConfig(dim=6, hidden=5, lambda_=0.5, beta=1.5, top_k=2)
        sample, vocab, params = tiny_training_setup(config)
        self._check(sample, vocab, params, config, component, rng)

    def test_differentiable_weight_flow(self, rng):
        config = TrainConfig(
            dim=6, hidden=5, lambda_=0.5, beta=1.5, top_k=2, differentiable_weights=True
        )
        sample, vocab, params = tiny_training_setup(config)
        self._check(sample, vocab, params, config, "joint", rng)

    @staticmethod
    def _check(sample, vocab, params, config, component, rng, n_coords=20):
        _, grads = joint_loss_and_grads(sample, vocab, params, config, component=component)

        def loss_fn(p):
            b = joint_loss(sample, vocab, p, config)
            return {"nll": b.l_nll, "cons": b.l_cons, "joint": b.l_joint}[component]

        names = sorted(params)
        for _ in range(n_coords):
            name = names[int(rng.integers(len(names)))]
            flat = int(rng.integers(params[name].size))
            index = np.unravel_index(flat, params[name].shape)
            numeric = ref.numerical_gradient(loss_fn, params, name, index)
            analytic = grads[name][index]
            # Near-zero gradients sit below finite-difference resolution, so
            # allow a tiny absolute escape alongside the relative bound.
            ok = ref.relative_error(analytic, numeric) < 1e-4 or abs(analytic - numeric) < 1e-9
            assert ok, (name, index, analytic, numeric)


class TestFrozenEncoder:
    def test_cached_evidence_matches_uncached_loss_and_grads(self):
        samples, _ = generate_synthetic(
            SyntheticSpec(seed=4, n_samples=4, n_gold_evidence=2, n_distractors=6)
        )
        config = TrainConfig(
            dim=16, hidden=12, lambda_=1.0, beta=2.0, top_k=3, freeze_encoder=True
        )
        vocab = Vocabulary.from_texts(training._dataset_texts(samples), hash_buckets=8)
        params = init_params(vocab.size, config.dim, config.hidden, seed=5)
        prepared = training._prepare_dataset(samples, vocab, params, config)
        assert prepared.frozen is not None
        for b, sample in enumerate(samples):
            [cached], cached_grads = joint_loss_and_grads(prepared.take([b]), vocab, params, config)
            uncached, grads = joint_loss_and_grads(sample, vocab, params, config)
            assert cached == uncached
            assert sorted(cached_grads) == sorted(grads)
            for name in grads:
                assert np.array_equal(cached_grads[name], grads[name]), name

    def test_take_keeps_only_what_a_frozen_step_reads(self):
        samples, _ = generate_synthetic(
            SyntheticSpec(seed=4, n_samples=4, n_gold_evidence=2, n_distractors=6)
        )
        config = TrainConfig(dim=16, hidden=12, top_k=3, freeze_encoder=True)
        vocab = Vocabulary.from_texts(training._dataset_texts(samples), hash_buckets=8)
        params = init_params(vocab.size, config.dim, config.hidden, seed=5)
        prepared = training._prepare_dataset(samples, vocab, params, config)
        taken = prepared.take([2, 0, 2])
        assert taken.samples == [samples[2], samples[0], samples[2]]
        assert taken.answer_ids == [prepared.answer_ids[i] for i in (2, 0, 2)]
        assert np.array_equal(taken.frozen, prepared.frozen[:, [2, 0, 2]])
        assert taken.token_ids == taken.slots == taken.titles == []

    def test_frozen_embedding_never_reaches_the_optimiser(self, monkeypatch):
        samples, _ = generate_synthetic(
            SyntheticSpec(seed=11, n_samples=4, n_gold_evidence=1, n_distractors=4)
        )
        stepped = set()
        update = training.Adam.update

        def spy(self, params, grads):
            stepped.update(grads)
            return update(self, params, grads)

        monkeypatch.setattr(training.Adam, "update", spy)
        config = TrainConfig(seed=1, dim=12, hidden=10, epochs=2, batch_size=2)
        train(samples, dataclasses.replace(config, freeze_encoder=True))
        assert "w_out" in stepped and "enc_embed" not in stepped
        stepped.clear()
        train(samples, config)
        assert "enc_embed" in stepped


class TestTrain:
    @staticmethod
    @pytest.fixture(scope="class")
    def run():
        samples, _ = generate_synthetic(
            SyntheticSpec(seed=11, n_samples=4, n_gold_evidence=1, n_distractors=4)
        )
        config = TrainConfig(
            seed=1, dim=12, hidden=10, learning_rate=0.02, epochs=10, batch_size=2, lambda_=0.1
        )
        return samples, config, train(samples, config)

    def test_log_starts_at_initialization(self, run):
        samples, config, ckpt = run
        assert len(ckpt.log) == config.epochs + 1
        init_losses = [
            joint_loss(s, ckpt.vocab, init_params(ckpt.vocab.size, 12, 10, 1), config)
            for s in samples
        ]
        expected = float(np.mean([b.l_joint for b in init_losses]))
        assert ckpt.log[0].l_joint == pytest.approx(expected)

    def test_loss_decreases(self, run):
        _, _, ckpt = run
        assert ckpt.log[-1].l_joint < ckpt.log[0].l_joint

    def test_training_is_deterministic(self, run):
        samples, config, ckpt = run
        again = train(samples, config)
        for name in ckpt.params:
            assert np.array_equal(ckpt.params[name], again.params[name])
        assert [b.as_dict() for b in ckpt.log] == [b.as_dict() for b in again.log]

    def test_checkpoint_round_trip_is_forward_exact(self, run, tmp_path):
        samples, config, ckpt = run
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, ckpt)
        loaded = load_checkpoint(path)
        assert isinstance(loaded, Checkpoint)
        assert loaded.config == config
        assert loaded.vocab.tokens == ckpt.vocab.tokens
        assert [b.as_dict() for b in loaded.log] == [b.as_dict() for b in ckpt.log]
        for s in samples:
            before = joint_loss(s, ckpt.vocab, ckpt.params, config)
            after = joint_loss(s, loaded.vocab, loaded.params, loaded.config)
            assert before.l_joint == after.l_joint

    def test_checkpoint_with_removed_grad_check_key_loads(self, run, tmp_path):
        _, config, ckpt = run
        header = {
            "format_version": training.CHECKPOINT_FORMAT_VERSION,
            "config": {**config.as_dict(), "grad_check": True},
            "vocab": {"tokens": ckpt.vocab.tokens, "hash_buckets": ckpt.vocab.hash_buckets},
            "log": [b.as_dict() for b in ckpt.log],
        }
        path = tmp_path / "old.ckpt"
        write_container(path, "checkpoint", header, ckpt.params)
        assert load_checkpoint(path).config == config

    def test_freeze_encoder_leaves_embedding_untouched(self):
        samples, _ = generate_synthetic(
            SyntheticSpec(seed=11, n_samples=4, n_gold_evidence=1, n_distractors=4)
        )
        config = TrainConfig(
            seed=1, dim=12, hidden=10, epochs=3, batch_size=2, freeze_encoder=True
        )
        ckpt = train(samples, config)
        initial = init_params(ckpt.vocab.size, config.dim, config.hidden, config.seed)
        assert np.array_equal(ckpt.params["enc_embed"], initial["enc_embed"])
        assert not np.array_equal(ckpt.params["w_out"], initial["w_out"])

    def test_explicit_vocab_is_used(self):
        samples, corpus = generate_synthetic(
            SyntheticSpec(seed=11, n_samples=4, n_gold_evidence=1, n_distractors=4)
        )
        texts = [s.question for s in samples] + [s.answer for s in samples]
        texts += [text for _, text in corpus]
        vocab = Vocabulary.from_texts(texts, hash_buckets=16)
        config = TrainConfig(seed=1, dim=8, hidden=6, epochs=1, batch_size=4)
        ckpt = train(samples, config, vocab=vocab)
        assert ckpt.vocab is vocab
        assert ckpt.params["enc_embed"].shape[0] == vocab.size

    def test_each_distinct_text_tokenized_once(self, monkeypatch):
        samples, _ = generate_synthetic(
            SyntheticSpec(seed=11, n_samples=6, n_gold_evidence=2, n_distractors=4)
        )
        config = TrainConfig(seed=1, dim=8, hidden=6, epochs=2, batch_size=4, freeze_encoder=True)
        vocab = Vocabulary.from_texts(training._dataset_texts(samples), hash_buckets=8)
        seen = []
        encode_text = Vocabulary.encode
        monkeypatch.setattr(Vocabulary, "encode", lambda self, text: seen.append(text) or encode_text(self, text))
        train(samples, config, vocab=vocab)
        texts = [t for s in samples for t in (s.question, s.answer)]
        texts += [text for s in samples for _, text in sample_chunks(s, config)]
        assert len(set(texts)) < len(texts)  # the samples share texts
        assert sorted(seen) == sorted(set(texts))

    def test_shared_chunk_cache_still_names_the_sample(self):
        context = [("T1", ["alpha bravo"]), ("T2", ["charlie delta"])]
        first = QASample("first", "alpha question", "bravo", context, [("T1", 0)])
        second = QASample("second", "charlie question", "delta", context + [("T3", ["?!"])], [("T2", 0)])
        config = TrainConfig(dim=8, hidden=6, epochs=1, include_title=False)
        with pytest.raises(EmptyInput, match="sample second: chunk 'T3'"):
            train([first, second], config)

    def test_empty_dataset_rejected(self):
        from alignrag.errors import EmptyScores

        with pytest.raises(EmptyScores):
            train([], TrainConfig())
