import dataclasses
import hashlib

import numpy as np
import pytest

from alignrag import evaluation
from alignrag.data import QASample, SyntheticSpec, generate_synthetic, load_hotpotqa, save_samples
from alignrag.decoder import decode_greedy
from alignrag.encoder import encode
from alignrag.errors import DegenerateNorm, EmptyInput, EmptyScores, InvalidGrid
from alignrag.evaluation import (
    SweepResult,
    _support_rate,
    checkpoint_fingerprint,
    evaluate,
    report_to_json,
    retrieve,
    sweep_alignment_weight,
    sweep_to_csv,
    sweep_to_json,
    sweep_to_svg,
    sweep_top_k,
)
from alignrag.index import build_index
from alignrag.metrics import exact_match, sample_scores
from alignrag.training import TrainConfig, sample_chunks, train
from alignrag.vocab import EOS_ID, N_RESERVED, Vocabulary
import reference as ref

BETA_GRID = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0]
K_GRID = [1, 2, 3, 5, 8, 12]


@pytest.fixture(scope="module")
def trained():
    samples, _ = generate_synthetic(
        SyntheticSpec(seed=21, n_samples=4, n_gold_evidence=1, n_distractors=4)
    )
    config = TrainConfig(
        seed=0, dim=12, hidden=10, learning_rate=0.02, epochs=15, batch_size=4, top_k=3
    )
    return samples, train(samples, config)


@pytest.fixture(scope="module")
def multi_hop():
    """A briefly trained frozen-encoder checkpoint and held-out multi-hop pairs."""
    samples, _ = generate_synthetic(
        SyntheticSpec(seed=5, n_samples=24, n_gold_evidence=2, n_distractors=12)
    )
    config = TrainConfig(
        seed=0, dim=24, hidden=16, learning_rate=0.02, epochs=150, batch_size=4, lambda_=1.0,
        beta=2.0, top_k=5, freeze_encoder=True, include_title=False,
    )
    texts = [t for s in samples for t in (s.question, s.answer)]
    texts += [f"{title} {' '.join(sents)}" for s in samples for title, sents in s.context]
    vocab = Vocabulary.from_texts(texts, hash_buckets=16)
    return samples[16:], train(samples[:16], config, vocab=vocab)


def per_sample_evaluate(dataset, ckpt, config):
    """Reference for evaluate's preparation: the per-sample build_index + encode path it
    replaced, one chunk at a time. Returns the per-sample records."""
    vocab, enc = ckpt.vocab, ckpt.encoder
    records = []
    for sample in dataset:
        chunks = sample_chunks(sample, config)
        index = build_index(list(enumerate(text for _, text in chunks)), vocab, enc)
        q = encode(sample.question, vocab, enc)
        k = len(index) if config.oracle_evidence else config.top_k
        results, agg = retrieve(q, index, k, config.tau, config.beta)
        pred, retrieved, consistency, rate = "", [], None, None
        if agg is not None:
            trace = decode_greedy(q, agg, ckpt.params, max_len=config.max_len)
            pred = vocab.decode(trace.tokens)
            consistency = float(np.linalg.norm(trace.h_gen - agg.vector.values))
            rate = _support_rate(
                trace.tokens, vocab.n_content, [vocab.encode(index.text(r.chunk_id)) for r in results]
            )
            alphas = dict(agg.source_weights.entries)
            retrieved = [
                {"chunk_id": r.chunk_id, "title": chunks[r.chunk_id][0], "score": r.score,
                 "alpha": alphas[r.chunk_id]}
                for r in results
            ]
        records.append(
            {"id": sample.id, "retrieved": retrieved, "generated": pred,
             "em": exact_match(pred, sample.answer), "consistency": consistency,
             "support_rate": rate}
        )
    return records


class TestEvaluate:
    def test_report_structure_and_attribution(self, trained):
        samples, ckpt = trained
        report = evaluate(samples, ckpt)
        assert report.metrics.n_samples == len(samples)
        assert report.checkpoint_fingerprint == checkpoint_fingerprint(ckpt)
        assert report.config == ckpt.config.as_dict()
        assert report.n_failures == 0
        for rec in report.samples:
            assert not rec["retrieval_failure"]
            assert 1 <= len(rec["retrieved"]) <= ckpt.config.top_k
            alpha_sum = sum(r["alpha"] for r in rec["retrieved"])
            assert alpha_sum == pytest.approx(1.0, abs=1e-9)
            ranks_scores = [r["score"] for r in rec["retrieved"]]
            assert ranks_scores == sorted(ranks_scores, reverse=True)
            assert rec["consistency"] >= 0.0

    def test_deterministic_output(self, trained):
        samples, ckpt = trained
        a = report_to_json(evaluate(samples, ckpt))
        b = report_to_json(evaluate(samples, ckpt))
        assert a == b

    def test_fingerprint_tracks_parameters(self, trained):
        samples, ckpt = trained
        fp = checkpoint_fingerprint(ckpt)
        mutated = dataclasses.replace(ckpt, params={**ckpt.params})
        mutated.params["b_out"] = ckpt.params["b_out"] + 1.0
        assert checkpoint_fingerprint(mutated) != fp

    def test_fingerprint_hashes_the_parameter_bytes(self, trained):
        _, ckpt = trained
        h = hashlib.sha256()
        for name in sorted(ckpt.params):
            h.update(name.encode())
            h.update(ckpt.params[name].tobytes())
        assert checkpoint_fingerprint(ckpt) == h.hexdigest()[:16]

    def test_retrieval_failure_path(self, trained):
        samples, ckpt = trained
        config = dataclasses.replace(ckpt.config, tau=2.0)  # cosine can't reach 2
        report = evaluate(samples, ckpt, config)
        assert report.n_failures == len(samples)
        assert report.metrics.em == 0.0
        assert report.mean_consistency is None
        for rec in report.samples:
            assert rec["retrieval_failure"]
            assert rec["generated"] == ""

    def test_failure_record_scored_like_corpus(self, trained):
        # "The" normalises to an empty answer, which the empty prediction matches.
        samples, ckpt = trained
        sample = dataclasses.replace(samples[0], answer="The")
        report = evaluate([sample], ckpt, dataclasses.replace(ckpt.config, tau=2.0))
        rec = report.samples[0]
        assert rec["retrieval_failure"]
        assert (rec["em"], rec["f1"]) == (1, 1.0)
        m = report.metrics
        assert [100 * rec[k] for k in ("em", "f1", "bleu", "rouge_l")] == [m.em, m.f1, m.bleu, m.rouge_l]

    def test_empty_dataset_rejected(self, trained):
        _, ckpt = trained
        with pytest.raises(EmptyScores):
            evaluate([], ckpt)

    @pytest.mark.parametrize(
        "overrides",
        [{}, {"beta": 8.0, "top_k": 12}, {"tau": 0.8}, {"oracle_evidence": True},
         {"include_title": True, "top_k": 2}],
        ids=["checkpoint", "sharp-deep", "tau", "oracle", "titled"],
    )
    def test_matches_per_sample_encode(self, multi_hop, overrides):
        # evaluate encodes each distinct text once for all samples, the reference
        # one sample at a time; both run encoder.encode_rows, and the measured gap
        # is 0.0. Scores, alphas and consistency may still move in the last bits if
        # a summation order changes; nothing else may move.
        samples, ckpt = multi_hop
        config = dataclasses.replace(ckpt.config, **overrides)
        got = evaluate(samples, ckpt, config).samples
        want = per_sample_evaluate(samples, ckpt, config)
        for g, w in zip(got, want, strict=True):
            for key in ("id", "generated", "em"):
                assert g[key] == w[key], key
            assert len(g["retrieved"]) == len(w["retrieved"])
            for gr, wr in zip(g["retrieved"], w["retrieved"]):
                assert (gr["chunk_id"], gr["title"]) == (wr["chunk_id"], wr["title"])
                assert abs(gr["score"] - wr["score"]) <= 1e-12
                assert abs(gr["alpha"] - wr["alpha"]) <= 1e-12
            for key in ("consistency", "support_rate"):
                if w[key] is None:
                    assert g[key] is None, key
                else:
                    assert abs(g[key] - w[key]) <= 1e-12, key

    def test_each_distinct_text_tokenized_once(self, multi_hop, monkeypatch):
        samples, ckpt = multi_hop
        seen = []
        encode_text = Vocabulary.encode
        monkeypatch.setattr(Vocabulary, "encode", lambda self, text: seen.append(text) or encode_text(self, text))
        evaluate(samples, ckpt)
        texts = [s.question for s in samples]
        texts += [text for s in samples for _, text in sample_chunks(s, ckpt.config)]
        assert len(set(texts)) < len(texts)  # the samples share texts
        assert sorted(seen) == sorted(set(texts))

    def test_degenerate_encoding_rejected(self, trained):
        samples, ckpt = trained
        zeroed = dataclasses.replace(
            ckpt, params={**ckpt.params, "enc_embed": np.zeros_like(ckpt.params["enc_embed"])}
        )
        with pytest.raises(DegenerateNorm):
            evaluate(samples, zeroed)

    def test_shared_chunk_cache_still_names_the_sample(self, trained):
        _, ckpt = trained
        config = dataclasses.replace(ckpt.config, include_title=False)
        context = [("T1", ["alpha bravo"]), ("T2", ["charlie delta"])]
        first = QASample("first", "alpha question", "bravo", context, [("T1", 0)])
        second = QASample("second", "charlie question", "delta", context + [("T3", ["?!"])], [("T2", 0)])
        with pytest.raises(EmptyInput, match="sample second: chunk 'T3'"):
            evaluate([first, second], ckpt, config)
        with pytest.raises(EmptyInput, match="sample second: chunk 'T3'"):
            sweep_top_k([first, second], ckpt, [1, 2], config)

    def test_samples_that_share_an_id_each_get_a_record(self, trained, tmp_path):
        samples, ckpt = trained
        twin = dataclasses.replace(samples[1], id=samples[0].id)
        save_samples(tmp_path / "data.json", [samples[0], twin, samples[2]])
        dataset = load_hotpotqa(tmp_path / "data.json")
        assert [s.question for s in dataset] == [samples[0].question, twin.question, samples[2].question]
        report = evaluate(dataset, ckpt)
        assert [r["id"] for r in report.samples] == [samples[0].id, samples[0].id, samples[2].id]
        for sample, record in zip(dataset, report.samples):
            assert record == evaluate([sample], ckpt).samples[0]

    def test_config_override_is_used(self, trained):
        samples, ckpt = trained
        override = dataclasses.replace(ckpt.config, beta=0.0, top_k=1)
        report = evaluate(samples, ckpt, override)
        assert report.config["beta"] == 0.0
        for rec in report.samples:
            assert len(rec["retrieved"]) == 1
            assert rec["retrieved"][0]["alpha"] == pytest.approx(1.0)


class TestSupportRate:
    def test_hash_bucket_ids_are_not_content(self):
        vocab = Vocabulary(["alpha", "bravo"], hash_buckets=4)
        bucket, alpha = vocab.token_id("zulu"), vocab.token_id("alpha")
        assert bucket >= N_RESERVED + vocab.n_content
        chunks = [np.array(vocab.encode("alpha zulu")), np.array(vocab.encode("charlie"))]
        assert _support_rate([bucket, alpha, EOS_ID], vocab.n_content, chunks) == 1.0
        assert _support_rate([alpha, vocab.token_id("bravo")], vocab.n_content, chunks) == 0.5
        assert _support_rate([bucket, EOS_ID], vocab.n_content, chunks) is None

    def test_a_generation_of_bucket_ids_has_no_rate(self, trained):
        samples, ckpt = trained
        bucket = N_RESERVED + ckpt.vocab.n_content
        b_out = ckpt.params["b_out"].copy()
        b_out[bucket] = 1e3  # every greedy step emits the first bucket
        biased = dataclasses.replace(ckpt, params={**ckpt.params, "b_out": b_out})
        report = evaluate(samples[:2], biased, dataclasses.replace(ckpt.config, max_len=3))
        assert [r["generated"] for r in report.samples] == ["<unk0> <unk0> <unk0>"] * 2
        assert [r["support_rate"] for r in report.samples] == [None, None]
        assert report.mean_support_rate is None


class TestBatchedParity:
    """evaluate ranks, weights and decodes all samples at once; every report byte must
    equal the per-sample loop's (reference.evaluate)."""

    @staticmethod
    @pytest.fixture(scope="class")
    def ragged(multi_hop):
        # Held-out multi-hop samples (20 chunks), single-hop ones (5 chunks), and a
        # sample whose gold paragraph appears four times, so its chunks tie exactly.
        held_out, ckpt = multi_hop
        single, _ = generate_synthetic(
            SyntheticSpec(seed=8, n_samples=3, n_gold_evidence=1, n_distractors=4)
        )
        base = held_out[0]
        gold = base.context[1][1]  # the first gold paragraph, second by score after the echo
        tied = dataclasses.replace(
            base, id="tied", context=base.context[:6] + [(f"dup{i}", gold) for i in range(3)]
        )
        samples = [held_out[0], *single[:2], tied, *held_out[1:4], single[2]]
        assert len({len(sample_chunks(s, ckpt.config)) for s in samples}) == 3
        return samples, ckpt

    @pytest.mark.parametrize(
        "overrides",
        [{}, {"top_k": 2}, {"top_k": 3}, {"top_k": 50}, {"oracle_evidence": True},
         {"beta": 0.0}, {"beta": 8.0, "top_k": 12}, {"include_title": True, "top_k": 4},
         {"max_len": 1}],
        ids=["checkpoint", "k2", "k3", "k-over-n", "oracle", "beta0", "beta8", "titled", "len1"],
    )
    def test_report_bytes_match_per_sample_loop(self, ragged, overrides):
        samples, ckpt = ragged
        config = dataclasses.replace(ckpt.config, **overrides)
        want = report_to_json(ref.evaluate(samples, ckpt, config))
        assert report_to_json(evaluate(samples, ckpt, config)) == want

    def test_tie_block_straddling_k_keeps_the_lowest_positions(self, ragged):
        samples, ckpt = ragged
        config = dataclasses.replace(ckpt.config, top_k=3)
        rec = next(r for r in evaluate(samples, ckpt, config).samples if r["id"] == "tied")
        scores = [r["score"] for r in rec["retrieved"]]
        titles = [r["title"] for r in rec["retrieved"]]
        # The gold paragraph and its three copies score alike; k cuts the tie block.
        assert scores[1] == scores[2] and "dup2" not in titles

    def test_mixed_retrieval_failures(self, ragged):
        samples, ckpt = ragged
        best = [r["retrieved"][0]["score"] for r in evaluate(samples, ckpt).samples]
        tau = sorted(best)[len(best) // 2]
        config = dataclasses.replace(ckpt.config, tau=tau)
        report = evaluate(samples, ckpt, config)
        assert 0 < report.n_failures < len(samples)
        assert report_to_json(report) == report_to_json(ref.evaluate(samples, ckpt, config))

    @pytest.mark.parametrize(
        "param, grid, run",
        [("beta", BETA_GRID, sweep_alignment_weight), ("top_k", [1, 2, 3, 5, 12, 50], sweep_top_k)],
        ids=["beta", "top_k"],
    )
    def test_sweep_points_match_per_sample_loop(self, ragged, param, grid, run):
        samples, ckpt = ragged
        config = dataclasses.replace(ckpt.config, tau=0.5)
        sweep = run(samples, ckpt, grid, config)
        for value, report in zip(grid, sweep.reports, strict=True):
            want = ref.evaluate(samples, ckpt, dataclasses.replace(config, **{param: value}))
            assert report_to_json(report) == report_to_json(want)


class TestSweeps:
    def test_beta_sweep_isolates_one_parameter(self, trained):
        samples, ckpt = trained
        sweep = sweep_alignment_weight(samples, ckpt, [0.0, 1.0, 4.0])
        assert sweep.param_name == "beta"
        assert sweep.grid == [0.0, 1.0, 4.0]
        for beta, report in zip(sweep.grid, sweep.reports):
            assert report.config["beta"] == beta
            rest = {k: v for k, v in report.config.items() if k != "beta"}
            base = {k: v for k, v in ckpt.config.as_dict().items() if k != "beta"}
            assert rest == base

    def test_beta_point_matches_direct_evaluate(self, trained):
        samples, ckpt = trained
        sweep = sweep_alignment_weight(samples, ckpt, [0.0, 1.0, 4.0])
        direct = evaluate(samples, ckpt, dataclasses.replace(ckpt.config, beta=1.0))
        assert report_to_json(sweep.reports[1]) == report_to_json(direct)

    @pytest.mark.parametrize(
        "param, grid, run",
        [("beta", BETA_GRID, sweep_alignment_weight), ("top_k", K_GRID, sweep_top_k)],
        ids=["beta", "top_k"],
    )
    def test_every_point_is_byte_identical_to_evaluate(self, multi_hop, param, grid, run):
        samples, ckpt = multi_hop
        sweep = run(samples, ckpt, grid)
        direct = SweepResult(
            param_name=param,
            grid=[float(v) for v in grid],
            reports=[evaluate(samples, ckpt, dataclasses.replace(ckpt.config, **{param: v})) for v in grid],
        )
        assert len({r.metrics.em for r in direct.reports}) > 1
        for got, want in zip(sweep.reports, direct.reports, strict=True):
            assert report_to_json(got) == report_to_json(want)
        assert sweep_to_json(sweep) == sweep_to_json(direct)
        assert sweep_to_csv(sweep) == sweep_to_csv(direct)
        assert sweep_to_svg(sweep) == sweep_to_svg(direct)

    def test_each_distinct_pair_is_scored_once_per_call(self, multi_hop, monkeypatch):
        samples, ckpt = multi_hop
        calls = []

        def counted(pred, gold):
            calls.append((pred, gold))
            return sample_scores(pred, gold)

        monkeypatch.setattr(evaluation, "sample_scores", counted)
        sweep = sweep_top_k(samples, ckpt, K_GRID)
        answers = {s.id: s.answer for s in samples}
        records = [r for rep in sweep.reports for r in rep.samples]
        pairs = [(r["generated"], answers[r["id"]]) for r in records]
        assert len(set(pairs)) < len(pairs)  # the grid repeats pairs, so the memo is exercised
        assert sorted(calls) == sorted(set(pairs))
        # Records that share a pair still hold dicts of their own.
        first, again = [r for r, pair in zip(records, pairs) if pair == pairs[0]][:2]
        em = again["em"]
        first["em"] = -1
        assert again["em"] == em

    def test_k_sweep_isolates_one_parameter(self, trained):
        samples, ckpt = trained
        sweep = sweep_top_k(samples, ckpt, [1, 2, 4])
        assert sweep.param_name == "top_k"
        for k, report in zip(sweep.grid, sweep.reports):
            assert report.config["top_k"] == k

    def test_grid_validation(self, trained):
        samples, ckpt = trained
        with pytest.raises(ValueError):
            sweep_alignment_weight(samples, ckpt, [0.0, 2.0, 1.0])
        with pytest.raises(ValueError):
            sweep_alignment_weight(samples, ckpt, [0.5, 1.0, 2.0])  # must start at 0
        with pytest.raises(ValueError):
            sweep_alignment_weight(samples, ckpt, [0.0, 1.0])  # too short
        with pytest.raises(ValueError):
            sweep_top_k(samples, ckpt, [0, 1, 2])  # k must be >= 1
        with pytest.raises(ValueError):
            sweep_top_k(samples, ckpt, [2, 2, 3])  # strictly increasing
        with pytest.raises(InvalidGrid):
            sweep_alignment_weight(samples, ckpt, [])
        with pytest.raises(InvalidGrid):
            sweep_top_k(samples, ckpt, [])


class TestSerialization:
    @staticmethod
    @pytest.fixture(scope="class")
    def sweep(trained):
        samples, ckpt = trained
        return sweep_alignment_weight(samples, ckpt, [0.0, 1.0, 4.0])

    def test_json_deterministic(self, sweep):
        assert sweep_to_json(sweep) == sweep_to_json(sweep)
        assert sweep_to_json(sweep).endswith("\n")

    def test_csv_shape(self, sweep):
        lines = sweep_to_csv(sweep).strip().split("\n")
        assert lines[0] == "beta,em,f1,bleu,rouge_l,mean_consistency"
        assert len(lines) == 1 + len(sweep.grid)
        for line in lines[1:]:
            assert len(line.split(",")) == 6

    def test_svg_well_formed(self, sweep):
        svg = sweep_to_svg(sweep)
        assert svg.startswith("<svg ") and svg.endswith("</svg>\n")
        assert "polyline" in svg
        assert sweep_to_svg(sweep) == svg  # deterministic
