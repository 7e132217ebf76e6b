"""Dataset ingestion: HotpotQA-format files and controlled synthetic tasks.

The synthetic generator builds desk-scale corpora whose retrieval
behavior is engineered and therefore testable:

  * single-hop samples have one gold chunk holding every answer token;
  * multi-hop samples come in pairs sharing one global question; a pair
    member's answer is split across its two gold chunks, so it is
    recoverable only when retrieval surfaces the right evidence. Answer
    tokens come from small global pools, so a model trained on a subset
    of pairs can be evaluated on held-out pairs (given a shared
    vocabulary) and must genuinely read the weighted evidence aggregate
    to answer;
  * every corpus contains an "echo" chunk (a restatement of the
    question, maximal cosine score, zero answer content), an
    "antagonist" chunk carrying the paired sample's answer token at a
    low score, and lexically similar distractors.

This gives the sweep experiments their characteristic shapes: with too
little evidence (small k) or overly sharp weighting (large beta) the
aggregate collapses onto answer-free chunks, while flat weighting
(beta = 0) gives the antagonist the same weight as the true second gold.
"""
from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import (
    DanglingSupportingFact,
    InvalidSpec,
    ParseError,
    SchemaError,
)

# Multi-hop construction constants: token counts controlling the cosine
# score ladder echo > gold1 > gold2 > antagonist > distractor. Long
# topics keep the designed gaps well above the random cross-correlation
# noise of the embedding table. The second gold and the antagonist have
# the same length, so under uniform weighting their answer-token
# coefficients in the aggregate nearly cancel.
MH_TOPIC = 32
MH_G1_OVERLAP = 20
MH_G2_OVERLAP = 16
MH_ANT_OVERLAP = 12
MH_ANT_FILLERS = 4
# Multi-hop answers are drawn from small global pools shared across
# pairs, so a model trained on some pairs can answer held-out pairs by
# reading the evidence aggregate instead of memorizing pair identities.
MH_ANSWER_POOL = 4
# Each pair also gets a few fresh "jitter" distractors scoring just
# below the antagonist. On held-out pairs they are unseen noise: under
# uniform weighting (beta = 0) they swamp what little side information
# survives the gold/antagonist cancellation, while sharp weighting
# keeps their influence small.
MH_JITTER = 4
MH_JITTER_BASE = 14  # overlap = round(similarity * base); 10 at 0.7
MH_JITTER_FILLERS = 5
# Single-hop construction constants.
SH_TOPIC = 6
SH_GOLD_OVERLAP = 4


@dataclass
class QASample:
    """Question, answer, per-question evidence context, supporting facts."""

    id: str
    question: str
    answer: str
    context: list[tuple[str, list[str]]]  # (title, sentences)
    supporting_facts: list[tuple[str, int]]  # (title, sentence index)

    def __post_init__(self):
        if not self.question.strip():
            raise SchemaError(f"sample {self.id}: empty question")
        if not self.answer.strip():
            raise SchemaError(f"sample {self.id}: empty answer")
        titles = {t for t, _ in self.context}
        for title, _ in self.supporting_facts:
            if title not in titles:
                raise DanglingSupportingFact(
                    f"sample {self.id}: supporting fact title {title!r} not in context"
                )


@dataclass
class SyntheticSpec:
    seed: int
    n_samples: int
    vocab_size: int = 200
    n_gold_evidence: int = 2
    n_distractors: int = 8
    distractor_similarity: float = 0.7

    def validate(self) -> None:
        if self.n_samples < 1 or self.vocab_size < 1 or self.n_distractors < 0:
            raise InvalidSpec("counts must be positive")
        if self.n_gold_evidence not in (1, 2):
            raise InvalidSpec("n_gold_evidence must be 1 or 2")
        if not 0.0 <= self.distractor_similarity <= 1.0:
            raise InvalidSpec("distractor_similarity must be in [0, 1]")
        if self.n_gold_evidence == 2 and self.n_samples % 2 != 0:
            raise InvalidSpec("multi-hop generation pairs samples; n_samples must be even")


@contextmanager
def open_utf8(path):
    """Open path as UTF-8 text; bytes that are not UTF-8 raise a ParseError naming path."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as err:
            raise ParseError(f"{path}: not valid UTF-8 ({err.reason})") from err


def load_hotpotqa(path) -> list[QASample]:
    """Parse a HotpotQA-format JSON array into QASamples."""
    with open_utf8(path) as fh:
        text = fh.read()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError(f"{path}: {err.msg} at byte offset {err.pos}", offset=err.pos) from err
    if not isinstance(raw, list):
        raise SchemaError(f"{path}: expected a JSON array of records")
    samples = []
    for i, record in enumerate(raw):
        rid = record.get("_id", f"<record {i}>") if isinstance(record, dict) else f"<record {i}>"
        if not isinstance(record, dict):
            raise SchemaError(f"{path}: record {i} is not an object")
        for field in ("_id", "question", "answer", "supporting_facts", "context"):
            if field not in record:
                raise SchemaError(f"{path}: record {rid} missing field {field!r}")
        for field in ("_id", "question", "answer"):
            _check_string(record[field], f"{path}: record {rid} field {field!r}")
        for field in ("supporting_facts", "context"):
            if not isinstance(record[field], list):
                raise SchemaError(f"{path}: record {rid} field {field!r} is not an array")
        context = []
        for entry in record["context"]:
            if not (isinstance(entry, (list, tuple)) and len(entry) == 2):
                raise SchemaError(f"{path}: record {rid} has a malformed context entry")
            title, sentences = entry
            _check_string(title, f"{path}: record {rid} context title")
            if not isinstance(sentences, list):
                raise SchemaError(f"{path}: record {rid} context {title!r}: sentences not a list")
            for sentence in sentences:
                _check_string(sentence, f"{path}: record {rid} context {title!r} sentence")
            context.append((title, list(sentences)))
        facts = []
        for entry in record["supporting_facts"]:
            if not (isinstance(entry, (list, tuple)) and len(entry) == 2 and type(entry[1]) is int):
                raise SchemaError(f"{path}: record {rid} has a malformed supporting fact")
            _check_string(entry[0], f"{path}: record {rid} supporting fact title")
            facts.append((entry[0], entry[1]))
        samples.append(
            QASample(
                id=record["_id"],
                question=record["question"],
                answer=record["answer"],
                context=context,
                supporting_facts=facts,
            )
        )
    return samples


def _check_string(value, where: str) -> None:
    if not isinstance(value, str):
        raise SchemaError(f"{where}: {value!r} is not a string")


def save_samples(path, samples: list[QASample]) -> None:
    """Serialize back to the HotpotQA schema (round-trips with load_hotpotqa)."""
    records = [
        {
            "_id": s.id,
            "question": s.question,
            "answer": s.answer,
            "supporting_facts": [[t, i] for t, i in s.supporting_facts],
            "context": [[t, list(sents)] for t, sents in s.context],
        }
        for s in samples
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(records, fh, ensure_ascii=False, sort_keys=True, indent=1)
        fh.write("\n")


def evidence_texts(sample: QASample, include_title: bool = True) -> list[tuple[str, str]]:
    """Flatten a sample's context into (title, paragraph text) pairs."""
    out = []
    for title, sentences in sample.context:
        body = " ".join(sentences)
        out.append((title, f"{title} {body}" if include_title else body))
    return out


def write_corpus(path, corpus: list[tuple[int, str]]) -> None:
    """JSON-lines corpus: one {"id": int, "text": str} per line, LF-terminated."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for chunk_id, text in corpus:
            fh.write(json.dumps({"id": chunk_id, "text": text}, ensure_ascii=False, sort_keys=True))
            fh.write("\n")


def read_corpus(path) -> list[tuple[int, str]]:
    corpus = []
    with open_utf8(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as err:
                raise ParseError(f"{path}:{lineno}: {err.msg}", offset=err.pos) from err
            if not isinstance(obj, dict) or "id" not in obj or "text" not in obj:
                raise SchemaError(f"{path}:{lineno}: corpus line needs 'id' and 'text'")
            if type(obj["id"]) is not int or not -(2**63) <= obj["id"] < 2**63:
                raise SchemaError(f"{path}:{lineno}: corpus id {obj['id']!r} is not a 64-bit integer")
            _check_string(obj["text"], f"{path}:{lineno}: corpus text")
            corpus.append((obj["id"], obj["text"]))
    return corpus


def _fillers(rng, pool_size: int, count: int, avoid: set[str]) -> list[str]:
    out = []
    while len(out) < count:
        tok = f"f{int(rng.integers(pool_size))}"
        if tok not in avoid:
            out.append(tok)
    return out


def _distractors(rng, spec, gold_topic, answer_tokens, pair_tag) -> list[tuple[str, list[str]]]:
    shared_n = round(spec.distractor_similarity * len(gold_topic))
    chunks = []
    for d in range(spec.n_distractors):
        shared = list(gold_topic[:shared_n])
        fillers = _fillers(rng, spec.vocab_size, 2 * shared_n + 2, avoid=set(answer_tokens))
        chunks.append((f"noise{pair_tag}x{d}", shared + fillers))
    return chunks


def generate_synthetic(spec: SyntheticSpec) -> tuple[list[QASample], list[tuple[int, str]]]:
    """Deterministic synthetic dataset plus a pooled evidence corpus."""
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    samples: list[QASample] = []
    if spec.n_gold_evidence == 1:
        for i in range(spec.n_samples):
            topic = [f"t{i}x{j}" for j in range(SH_TOPIC)]
            answer_tokens = [f"ya{i}", f"yb{i}"]
            gold = topic[:SH_GOLD_OVERLAP] + answer_tokens
            context = [(f"gold{i}", [" ".join(gold)])]
            context += [
                (title, [" ".join(toks)])
                for title, toks in _distractors(rng, spec, topic[:SH_GOLD_OVERLAP], answer_tokens, str(i))
            ]
            samples.append(
                QASample(
                    id=f"syn{i}",
                    question=" ".join(topic),
                    answer=" ".join(answer_tokens),
                    context=context,
                    supporting_facts=[(f"gold{i}", 0)],
                )
            )
    else:
        # The topic, the distractor set, and the antagonist fillers are
        # global: every pair shares them, so two samples differ only in
        # which pooled answer tokens their second gold and antagonist
        # carry. The question gives the decoder no sample identity; the
        # weighted evidence aggregate is the only discriminative input.
        topic = [f"t{j}" for j in range(MH_TOPIC)]
        question = " ".join(topic)
        echo = list(topic)
        answer_pool = [f"wa{m}" for m in range(MH_ANSWER_POOL)] + [
            f"wb{m}" for m in range(MH_ANSWER_POOL)
        ]
        ant_fill = _fillers(rng, spec.vocab_size, MH_ANT_FILLERS, avoid=set(answer_pool))
        noise = _distractors(rng, spec, topic[:MH_G1_OVERLAP], answer_pool, "g")
        for p in range(spec.n_samples // 2):
            a_tok = f"wa{int(rng.integers(MH_ANSWER_POOL))}"
            b_pick = rng.choice(MH_ANSWER_POOL, size=2, replace=False)
            b_toks = (f"wb{int(b_pick[0])}", f"wb{int(b_pick[1])}")
            g1 = topic[:MH_G1_OVERLAP] + [a_tok]
            jitter_overlap = round(spec.distractor_similarity * MH_JITTER_BASE)
            jitter = [
                (
                    f"jit{p}x{d}",
                    topic[:jitter_overlap]
                    + _fillers(rng, spec.vocab_size, MH_JITTER_FILLERS, avoid=set(answer_pool)),
                )
                for d in range(MH_JITTER)
            ]
            for side in (0, 1):
                b_mine, b_other = b_toks[side], b_toks[1 - side]
                g2 = topic[:MH_G2_OVERLAP] + [b_mine]
                ant = topic[:MH_ANT_OVERLAP] + [b_other] + ant_fill
                context = [
                    (f"echo{p}", [" ".join(echo)]),
                    (f"golda{p}", [" ".join(g1)]),
                    (f"goldb{p}s{side}", [" ".join(g2)]),
                    (f"ant{p}s{side}", [" ".join(ant)]),
                ]
                context += [(title, [" ".join(toks)]) for title, toks in jitter]
                context += [(title, [" ".join(toks)]) for title, toks in noise]
                samples.append(
                    QASample(
                        id=f"syn{2 * p + side}",
                        question=question,
                        answer=f"{a_tok} {b_mine}",
                        context=context,
                        supporting_facts=[(f"golda{p}", 0), (f"goldb{p}s{side}", 0)],
                    )
                )
    corpus: list[tuple[int, str]] = []
    seen: set[str] = set()
    next_id = 0
    for sample in samples:
        for _, text in evidence_texts(sample):
            if text not in seen:
                seen.add(text)
                corpus.append((next_id, text))
                next_id += 1
    return samples, corpus
