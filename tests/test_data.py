import json

import pytest

from alignrag.data import (
    QASample,
    SyntheticSpec,
    evidence_texts,
    generate_synthetic,
    load_hotpotqa,
    read_corpus,
    save_samples,
    write_corpus,
)
from alignrag.errors import (
    DanglingSupportingFact,
    InvalidSpec,
    ParseError,
    SchemaError,
)


class TestQASample:
    def test_dangling_supporting_fact(self):
        with pytest.raises(DanglingSupportingFact):
            QASample(
                id="x",
                question="q",
                answer="a",
                context=[("title", ["sentence"])],
                supporting_facts=[("missing", 0)],
            )

    def test_empty_question_or_answer(self):
        with pytest.raises(SchemaError):
            QASample(id="x", question="  ", answer="a", context=[], supporting_facts=[])
        with pytest.raises(SchemaError):
            QASample(id="x", question="q", answer="", context=[], supporting_facts=[])


class TestLoadHotpotqa:
    def test_loads_fixture(self, hotpot_mini_path):
        samples = load_hotpotqa(hotpot_mini_path)
        assert [s.id for s in samples] == ["mini0", "mini1", "mini2"]
        s = samples[0]
        assert s.answer == "Brightwater"
        assert ("Harbor Museum", 0) in s.supporting_facts
        assert s.context[0][0] == "Ada Lovett"
        assert len(s.context[0][1]) == 2

    def test_parse_error_carries_offset(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('[{"_id": "x", }]')
        with pytest.raises(ParseError) as exc:
            load_hotpotqa(bad)
        assert exc.value.offset == 14
        assert "byte offset 14" in str(exc.value)

    def test_missing_field_names_record(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps([{"_id": "r7", "question": "q", "answer": "a"}]))
        with pytest.raises(SchemaError, match="r7"):
            load_hotpotqa(bad)

    def test_non_array_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"_id": "x"}')
        with pytest.raises(SchemaError):
            load_hotpotqa(bad)

    def test_malformed_context_entry(self, tmp_path):
        bad = tmp_path / "bad.json"
        record = {
            "_id": "r0",
            "question": "q",
            "answer": "a",
            "supporting_facts": [],
            "context": [["only-title"]],
        }
        bad.write_text(json.dumps([record]))
        with pytest.raises(SchemaError, match="context"):
            load_hotpotqa(bad)

    @pytest.mark.parametrize("field", ["supporting_facts", "context"])
    def test_non_array_field_rejected(self, tmp_path, field):
        bad = tmp_path / "bad.json"
        record = {"_id": "r0", "question": "q", "answer": "a", "supporting_facts": [], "context": []}
        record[field] = 5
        bad.write_text(json.dumps([record]))
        with pytest.raises(SchemaError, match=field):
            load_hotpotqa(bad)

    def test_save_round_trip(self, tmp_path, hotpot_mini_path):
        samples = load_hotpotqa(hotpot_mini_path)
        out = tmp_path / "again.json"
        save_samples(out, samples)
        again = load_hotpotqa(out)
        assert again == samples

    def test_save_is_deterministic(self, tmp_path, hotpot_mini_path):
        samples = load_hotpotqa(hotpot_mini_path)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_samples(p1, samples)
        save_samples(p2, samples)
        assert p1.read_bytes() == p2.read_bytes()


class TestEvidenceTexts:
    @pytest.fixture
    def sample(self):
        return QASample(
            id="x",
            question="q",
            answer="a",
            context=[("T1", ["s one", "s two"]), ("T2", ["s three"])],
            supporting_facts=[("T1", 0)],
        )

    def test_paragraph_with_title(self, sample):
        assert evidence_texts(sample) == [("T1", "T1 s one s two"), ("T2", "T2 s three")]

    def test_paragraph_without_title(self, sample):
        assert evidence_texts(sample, include_title=False) == [
            ("T1", "s one s two"),
            ("T2", "s three"),
        ]


class TestCorpusIO:
    def test_round_trip(self, tmp_path):
        corpus = [(0, "alpha bravo"), (3, "charlie")]
        path = tmp_path / "corpus.jsonl"
        write_corpus(path, corpus)
        assert read_corpus(path) == corpus

    def test_bad_line_reports_location(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": 0, "text": "ok"}\n{nope}\n')
        with pytest.raises(ParseError, match=":2"):
            read_corpus(path)

    def test_missing_keys(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": 0}\n')
        with pytest.raises(SchemaError):
            read_corpus(path)

    def test_id_outside_int64_rejected(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": 9223372036854775807, "text": "ok"}\n{"id": 9223372036854775808, "text": "x"}\n')
        with pytest.raises(SchemaError, match=":2:"):
            read_corpus(path)


class TestSyntheticSpec:
    def test_validation(self):
        with pytest.raises(InvalidSpec):
            SyntheticSpec(seed=0, n_samples=0).validate()
        with pytest.raises(InvalidSpec):
            SyntheticSpec(seed=0, n_samples=2, n_gold_evidence=3).validate()
        with pytest.raises(InvalidSpec):
            SyntheticSpec(seed=0, n_samples=2, distractor_similarity=1.5).validate()
        with pytest.raises(InvalidSpec):
            SyntheticSpec(seed=0, n_samples=3, n_gold_evidence=2).validate()
        SyntheticSpec(seed=0, n_samples=3, n_gold_evidence=1).validate()


class TestGenerateSynthetic:
    def test_deterministic(self):
        spec = SyntheticSpec(seed=4, n_samples=4)
        a_samples, a_corpus = generate_synthetic(spec)
        b_samples, b_corpus = generate_synthetic(SyntheticSpec(seed=4, n_samples=4))
        assert a_samples == b_samples
        assert a_corpus == b_corpus
        c_samples, _ = generate_synthetic(SyntheticSpec(seed=5, n_samples=4))
        assert c_samples != a_samples

    def test_single_hop_gold_contains_answer(self):
        samples, _ = generate_synthetic(
            SyntheticSpec(seed=1, n_samples=3, n_gold_evidence=1, n_distractors=4)
        )
        for s in samples:
            assert len(s.supporting_facts) == 1
            gold_title = s.supporting_facts[0][0]
            gold_text = dict(evidence_texts(s, include_title=False))[gold_title]
            for tok in s.answer.split():
                assert tok in gold_text.split()

    def test_multi_hop_answer_split_across_golds(self):
        samples, _ = generate_synthetic(SyntheticSpec(seed=2, n_samples=4))
        for s in samples:
            assert len(s.supporting_facts) == 2
            texts = dict(evidence_texts(s, include_title=False))
            a_tok, b_tok = s.answer.split()
            g1 = texts[s.supporting_facts[0][0]].split()
            g2 = texts[s.supporting_facts[1][0]].split()
            assert a_tok in g1 and a_tok not in g2
            assert b_tok in g2 and b_tok not in g1

    def test_multi_hop_pair_shares_question_but_not_answer(self):
        samples, _ = generate_synthetic(SyntheticSpec(seed=2, n_samples=4))
        assert samples[0].question == samples[1].question
        assert samples[0].answer != samples[1].answer
        # The antagonist chunk holds the partner's second answer token.
        for side, partner in ((0, 1), (1, 0)):
            texts = dict(evidence_texts(samples[side], include_title=False))
            ant = texts[f"ant0s{side}"].split()
            partner_b = samples[partner].answer.split()[1]
            assert partner_b in ant

    def test_echo_chunk_has_no_answer_tokens(self):
        samples, _ = generate_synthetic(SyntheticSpec(seed=2, n_samples=4))
        for s in samples:
            texts = dict(evidence_texts(s, include_title=False))
            echo = texts[[t for t in texts if t.startswith("echo")][0]].split()
            for tok in s.answer.split():
                assert tok not in echo

    def test_zero_similarity_distractors_share_nothing(self):
        spec = SyntheticSpec(seed=3, n_samples=4, distractor_similarity=0.0)
        samples, _ = generate_synthetic(spec)
        s = samples[0]
        gold_tokens = set()
        texts = dict(evidence_texts(s, include_title=False))
        for title, _ in s.supporting_facts:
            gold_tokens |= set(texts[title].split())
        for title, text in texts.items():
            if title.startswith(("noise", "jit")):
                assert not set(text.split()) & gold_tokens, title

    def test_distractor_count(self):
        spec = SyntheticSpec(seed=3, n_samples=2, n_distractors=7)
        samples, _ = generate_synthetic(spec)
        titles = [t for t, _ in samples[0].context]
        assert sum(t.startswith("noise") for t in titles) == 7

    def test_corpus_pools_unique_texts(self):
        samples, corpus = generate_synthetic(SyntheticSpec(seed=2, n_samples=4))
        texts = [text for _, text in corpus]
        assert len(texts) == len(set(texts))
        ids = [cid for cid, _ in corpus]
        assert ids == list(range(len(ids)))
        pooled = set(texts)
        for s in samples:
            for _, text in evidence_texts(s):
                assert text in pooled
