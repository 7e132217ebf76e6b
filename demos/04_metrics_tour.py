"""Tour of the answer-quality metrics and their pinned conventions.

Shows where EM, token F1, BLEU-4, and ROUGE-L agree and disagree,
and the normalization rules that make the numbers reproducible. Run:
python3 demos/04_metrics_tour.py
"""
from alignrag.metrics import (
    bleu,
    exact_match,
    normalize_answer,
    normalize_text,
    rouge_l,
    score_corpus,
    token_f1,
)

PAIRS = [
    ("brightwater", "Brightwater", "case and punctuation are normalized away"),
    ("the cello", "cello", "articles are dropped for EM/F1 but KEPT for BLEU/ROUGE-L"),
    ("new york city", "york city", "partial overlap: F1 rewards it, EM does not"),
    ("city new york", "new york city", "word order: F1 ignores it, ROUGE-L penalizes it"),
    ("a b c d", "a b c d e", "near miss: BLEU's brevity penalty kicks in"),
    ("completely wrong", "cello", "no overlap at all"),
]


def main() -> None:
    print("== Normalization ==")
    raw = "The  Cat, sat!"
    print(f"  raw:              {raw!r}")
    print(f"  normalize_text:   {normalize_text(raw)!r}   (BLEU / ROUGE-L view)")
    print(f"  normalize_answer: {normalize_answer(raw)!r}       (EM / F1 view, articles dropped)")

    print("\n== Per-pair metric values ==")
    header = f"  {'prediction':<18} {'gold':<16} {'EM':>3} {'F1':>6} {'BLEU':>6} {'R-L':>6}"
    print(header)
    for pred, gold, note in PAIRS:
        em = exact_match(pred, gold)
        f1 = token_f1(pred, gold)
        bl = bleu([pred], [gold])
        rl = rouge_l(pred, gold)
        print(f"  {pred:<18} {gold:<16} {em:>3} {f1:>6.3f} {bl:>6.3f} {rl:>6.3f}   <- {note}")

    print("\n== Pinned BLEU-4 conventions ==")
    print("  * uniform 1/4 weights over 1..4-gram precisions; a report averages")
    print("    the per-sample BLEU-4 of its pairs")
    print("  * orders with no candidate n-grams contribute a neutral factor")
    print("    (so short answers are not zeroed out):")
    print(f"      bleu(['x'], ['x']) = {bleu(['x'], ['x']):.3f}")
    print("  * add-one smoothing when a higher order has zero matches:")
    print(f"      bleu(['a b c d'], ['a b x d']) = {bleu(['a b c d'], ['a b x d']):.6f}")
    print("  * brevity penalty exp(1 - r/c) for short candidates:")
    print(f"      bleu(['a b c d'], ['a b c d e']) = {bleu(['a b c d'], ['a b c d e']):.6f}")

    print("\n== Corpus report: means of per-sample values (0..100 scale) ==")
    preds = [p for p, _, _ in PAIRS]
    golds = [g for _, g, _ in PAIRS]
    m = score_corpus(preds, golds)
    print(
        f"  EM={m.em:.1f}  F1={m.f1:.1f}  BLEU={m.bleu:.1f}  ROUGE-L={m.rouge_l:.1f}  "
        f"over n={m.n_samples} samples"
    )


if __name__ == "__main__":
    main()
