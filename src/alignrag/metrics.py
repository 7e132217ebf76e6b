"""Answer-quality metrics: EM, token F1, BLEU-4, ROUGE-L.

Pinned variants so reported numbers are reproducible:
  * EM and F1 use SQuAD-style normalization (lowercase, strip
    punctuation, drop the articles a/an/the, collapse whitespace).
  * BLEU and ROUGE-L normalize text the same way but KEEP articles.
  * bleu() pools n-gram counts over the pairs it is given, with fixed 1/4
    weights, add-one smoothing for n >= 2 when the clipped match count
    is zero, and orders with no candidate n-grams contributing a factor
    of 1. Reports (score_corpus, evaluate) give the average per-sample
    BLEU-4: bleu() of each pair alone, averaged over samples.
  * ROUGE-L is the LCS F-measure with beta = 1, averaged over samples.
"""
from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import asdict, dataclass

from .errors import EmptyCorpus, LengthMismatch

_ARTICLES = {"a", "an", "the"}
_PUNCT_RE = re.compile(r"[^\w\s]|_")


@dataclass
class MetricReport:
    """Corpus metric values on the conventional 0..100 scale."""

    em: float
    f1: float
    bleu: float
    rouge_l: float
    n_samples: int

    def as_dict(self) -> dict:
        return asdict(self)


def normalize_text(text: str) -> str:
    """Lowercase, strip punctuation, collapse whitespace. Articles kept."""
    text = _PUNCT_RE.sub(" ", text.lower())
    return " ".join(text.split())


def normalize_answer(text: str) -> str:
    """normalize_text plus removal of the articles a/an/the."""
    tokens = [t for t in normalize_text(text).split() if t not in _ARTICLES]
    return " ".join(tokens)


def exact_match(pred: str, gold: str) -> int:
    return int(normalize_answer(pred) == normalize_answer(gold))


def token_f1(pred: str, gold: str) -> float:
    """Harmonic mean of precision/recall over the multiset token overlap."""
    pred_tokens = normalize_answer(pred).split()
    gold_tokens = normalize_answer(gold).split()
    if not pred_tokens and not gold_tokens:
        return 1.0
    if not pred_tokens or not gold_tokens:
        return 0.0
    overlap = sum((Counter(pred_tokens) & Counter(gold_tokens)).values())
    if overlap == 0:
        return 0.0
    precision = overlap / len(pred_tokens)
    recall = overlap / len(gold_tokens)
    return 2 * precision * recall / (precision + recall)


def _ngrams(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def bleu(preds: list[str], refs: list[str]) -> float:
    """BLEU-4 of the pairs' pooled n-gram counts, with add-one smoothing for higher orders."""
    if len(preds) != len(refs):
        raise LengthMismatch(f"{len(preds)} predictions vs {len(refs)} references")
    if not preds:
        raise EmptyCorpus("bleu needs at least one prediction")
    matches = [0] * 5
    totals = [0] * 5
    cand_len = 0
    ref_len = 0
    for pred, ref in zip(preds, refs):
        pt = normalize_text(pred).split()
        rt = normalize_text(ref).split()
        cand_len += len(pt)
        ref_len += len(rt)
        for n in range(1, 5):
            cand = _ngrams(pt, n)
            refc = _ngrams(rt, n)
            matches[n] += sum((cand & refc).values())
            totals[n] += sum(cand.values())
    if cand_len == 0:
        return 0.0
    log_prec = 0.0
    for n in range(1, 5):
        if totals[n] == 0:
            continue  # no candidate n-grams of this order: neutral factor
        m, t = matches[n], totals[n]
        if m == 0:
            if n == 1:
                return 0.0
            m, t = m + 1, t + 1  # add-one smoothing
        log_prec += 0.25 * math.log(m / t)
    bp = 1.0 if cand_len >= ref_len else math.exp(1.0 - ref_len / cand_len)
    return bp * math.exp(log_prec)


def lcs_length(a: list[str], b: list[str]) -> int:
    """Longest common subsequence length via iterative dynamic programming."""
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        curr = [0] * (len(b) + 1)
        for j, y in enumerate(b, start=1):
            if x == y:
                curr[j] = prev[j - 1] + 1
            else:
                curr[j] = max(prev[j], curr[j - 1])
        prev = curr
    return prev[-1]


def rouge_l(pred: str, gold: str) -> float:
    """LCS F-measure (beta = 1) over normalized tokens (articles kept)."""
    pt = normalize_text(pred).split()
    gt = normalize_text(gold).split()
    if not pt and not gt:
        return 1.0
    if not pt or not gt:
        return 0.0
    lcs = lcs_length(pt, gt)
    if lcs == 0:
        return 0.0
    precision = lcs / len(pt)
    recall = lcs / len(gt)
    return 2 * precision * recall / (precision + recall)


def sample_scores(pred: str, gold: str) -> dict:
    """The per-sample scores a corpus report averages, in MetricReport's field order."""
    return {"em": exact_match(pred, gold), "f1": token_f1(pred, gold),
            "bleu": bleu([pred], [gold]), "rouge_l": rouge_l(pred, gold)}


def mean_report(scores: list[dict]) -> MetricReport:
    """The corpus report of sample_scores dicts: each score summed in sample order, / n, x 100."""
    n, keys = len(scores), ("em", "f1", "bleu", "rouge_l")
    return MetricReport(*(100 * (sum(s[k] for s in scores) / n) for k in keys), n_samples=n)


def score_corpus(preds: list[str], golds: list[str]) -> MetricReport:
    """Corpus report; EM/F1/ROUGE-L (and BLEU) are means of per-sample values."""
    if len(preds) != len(golds):
        raise LengthMismatch(f"{len(preds)} predictions vs {len(golds)} references")
    if not preds:
        raise EmptyCorpus("cannot score an empty corpus")
    return mean_report([sample_scores(p, g) for p, g in zip(preds, golds)])
