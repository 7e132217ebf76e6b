import dataclasses
import math

import numpy as np
import pytest

from alignrag import autodiff as ad
from alignrag import training
from alignrag.data import QASample, SyntheticSpec, evidence_texts, generate_synthetic
from alignrag.decoder import initial_state, pooled_generation_repr, step
from alignrag.encoder import encode
from alignrag.errors import DimMismatch, InvalidTokenId, LengthMismatch
from alignrag.evaluation import retrieve
from alignrag.index import EvidenceIndex, build_index, filter_by_threshold, top_k
from alignrag.serialization import write_container
from alignrag.training import (
    Checkpoint,
    LossBreakdown,
    TrainConfig,
    consistency_loss,
    init_params,
    joint_loss,
    joint_loss_and_grads,
    load_checkpoint,
    nll_loss,
    numerical_gradient,
    relative_error,
    sample_chunks,
    save_checkpoint,
    train,
)
from alignrag.vocab import BOS_ID, EOS_ID, PAD_ID, Vocabulary


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
        assert nll_loss(dists, [4, 5, 6]) == pytest.approx(math.log(v))

    def test_manual_two_step_oracle(self):
        d1 = np.array([0.1, 0.2, 0.3, 0.4])
        d2 = np.array([0.25, 0.25, 0.4, 0.1])
        expected = (-math.log(0.3) - math.log(0.25)) / 2
        assert nll_loss([d1, d2], [2, 1]) == pytest.approx(expected)

    def test_pad_positions_excluded(self):
        d = np.array([0.5, 0.25, 0.25])
        with_pad = nll_loss([d, d, d], [1, PAD_ID, 2])
        assert with_pad == pytest.approx((-math.log(0.25) - math.log(0.25)) / 2)

    def test_all_pad_returns_zero(self):
        d = np.array([0.5, 0.5])
        assert nll_loss([d], [PAD_ID]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            nll_loss([np.ones(2)], [0, 1])

    def test_invalid_target(self):
        with pytest.raises(InvalidTokenId):
            nll_loss([np.array([0.5, 0.5])], [5])


class TestConsistencyLoss:
    def test_unit_displacement(self):
        h = np.array([1.0, 0.0, 0.0])
        e = np.array([0.0, 0.0, 0.0])
        assert consistency_loss(h, e) == pytest.approx(1.0, abs=1e-6)

    def test_zero_at_coincidence(self):
        v = np.array([0.3, -0.2])
        assert consistency_loss(v, v) == pytest.approx(0.0, abs=1e-12)

    def test_matches_euclidean_norm(self, rng):
        h, e = rng.normal(size=5), rng.normal(size=5)
        assert consistency_loss(h, e) == pytest.approx(np.linalg.norm(h - e), abs=1e-6)

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            consistency_loss(np.ones(3), np.ones(4))

    def test_eps_validated(self):
        with pytest.raises(ValueError):
            consistency_loss(np.ones(2), np.zeros(2), eps=0.0)


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


def per_chunk_evidence(sample, vocab, embed, config):
    """Reference for the batched _evidence_tape: one tape subgraph per chunk, summed one by one."""

    def encode(text):
        ids = vocab.encode(text)
        rows = ad.gather_rows(embed, ids)
        pooled = ad.scale(ad.vecmat(ad.const(np.ones(len(ids))), rows), 1.0 / len(ids))
        return ad.l2_normalize(pooled)

    q = encode(sample.question)
    chunks = sample_chunks(sample, config)
    encoded = [encode(text) for _, text in chunks]
    texts = [text for _, text in chunks]
    index = EvidenceIndex(range(len(chunks)), texts, np.stack([d.value for d in encoded]))
    k = len(chunks) if config.oracle_evidence else config.top_k
    picked = [r.chunk_id for r in filter_by_threshold(top_k(q.value, index, k), config.tau)]
    scores = [ad.dot(q, encoded[i]) for i in picked]
    m = max(s.item() for s in scores)
    weights = [ad.exp(ad.scale(ad.sub(s, ad.const(m)), config.beta)) for s in scores]
    total = weights[0]
    for w in weights[1:]:
        total = ad.add(total, w)
    alphas = [ad.mul(w, ad.reciprocal(total)) for w in weights]
    if not config.differentiable_weights:
        alphas = [ad.detach(a) for a in alphas]
    e = ad.mul(alphas[0], encoded[picked[0]])
    for a, i in zip(alphas[1:], picked[1:]):
        e = ad.add(e, ad.mul(a, encoded[i]))
    return q, e


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


class TestTapeInferenceParity:
    """The training tape and the inference path compute the same forward."""

    @PARITY_CASES
    def test_multi_hop_sample_matches(self, overrides, n_kept):
        sample, config, vocab, params = multi_hop_setup(overrides)
        ckpt = Checkpoint(config=config, vocab=vocab, params=params)

        # Inference: retrieve, then teacher-forced decoder steps.
        chunks = sample_chunks(sample, config)
        index = build_index(list(enumerate(text for _, text in chunks)), vocab, ckpt.encoder)
        q = encode(sample.question, vocab, ckpt.encoder)
        k = len(chunks) if config.oracle_evidence else config.top_k
        results, agg = retrieve(q, index, k, config.tau, config.beta)
        assert len(results) == n_kept  # tau=0.9 cuts the top 3 to 2, and the 2 gold chunks to 1
        answer_ids = vocab.encode(sample.answer)
        h = initial_state(q.values, params)
        dists, states = [], []
        for tok in [BOS_ID] + answer_ids:
            dist, h = step(tok, h, agg.vector.values, params)
            dists.append(dist)
            states.append(h)
        l_nll = nll_loss(dists, answer_ids + [EOS_ID])
        l_cons = consistency_loss(pooled_generation_repr(states, params), agg.vector)

        tape = joint_loss(sample, vocab, params, config)
        tensors = training._wrap_params(params)
        prep = training._prepare(sample, vocab, config)
        _, e_tape = training._evidence_tape(prep, tensors["enc_embed"], config)
        assert abs(tape.l_nll - l_nll) <= 1e-12
        assert abs(tape.l_cons - l_cons) <= 1e-12
        assert np.max(np.abs(e_tape.value - agg.vector.values)) <= 1e-12

    @PARITY_CASES
    def test_batched_evidence_matches_per_chunk_tape(self, overrides, n_kept):
        sample, config, vocab, params = multi_hop_setup(overrides)
        rng = np.random.default_rng(0)
        u, v = ad.const(rng.normal(size=config.dim)), ad.const(rng.normal(size=config.dim))
        prep = training._prepare(sample, vocab, config)
        got, want = {}, {}
        for out, evidence in (
            (got, lambda embed: training._evidence_tape(prep, embed, config)),
            (want, lambda embed: per_chunk_evidence(sample, vocab, embed, config)),
        ):
            embed = ad.param(params["enc_embed"])
            q, e = evidence(embed)
            ad.backward(ad.add(ad.dot(q, u), ad.dot(e, v)))
            out.update(q=q.value, e=e.value, grad=embed.grad)
        for name in ("q", "e", "grad"):
            assert np.max(np.abs(got[name] - want[name])) <= 1e-12, name


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
            numeric = numerical_gradient(loss_fn, params, name, index)
            analytic = grads[name][index]
            # Near-zero gradients sit below finite-difference resolution, so
            # allow a tiny absolute escape alongside the relative bound.
            ok = relative_error(analytic, numeric) < 1e-4 or abs(analytic - numeric) < 1e-9
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
        for sample, prep in zip(samples, prepared):
            assert prep.frozen is not None
            cached, cached_grads = joint_loss_and_grads(prep, vocab, params, config)
            uncached, grads = joint_loss_and_grads(sample, vocab, params, config)
            assert cached == uncached
            assert sorted(cached_grads) == sorted(grads)
            for name in grads:
                assert np.array_equal(cached_grads[name], grads[name]), name

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

    def test_empty_dataset_rejected(self):
        from alignrag.errors import EmptyScores

        with pytest.raises(EmptyScores):
            train([], TrainConfig())
