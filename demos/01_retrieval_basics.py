"""Tour of the retrieval core: tokenize, encode, index, rank, weight.

Everything here is exact and deterministic: the encoder is a mean-pooled
embedding table projected onto the unit sphere, retrieval is a full
cosine scan, and the softmax weighting is a closed-form function of the
scores. Run with:  python3 demos/01_retrieval_basics.py
"""
import numpy as np

from alignrag.aggregation import aggregate, normalize_weights
from alignrag.encoder import encode, init_encoder_params
from alignrag.index import build_index, filter_by_threshold, top_k
from alignrag.vocab import Vocabulary, tokenize

CORPUS = [
    (0, "the harbor museum is located in brightwater"),
    (1, "ada lovett founded the harbor museum in 1901"),
    (2, "brightwater is a coastal town known for its lighthouse"),
    (3, "stonefield is an inland farming village"),
    (4, "the city orchestra was founded in 1890"),
]
QUESTION = "which town hosts the harbor museum"


def main() -> None:
    print("== 1. Tokenization ==")
    print(f"  {QUESTION!r} -> {tokenize(QUESTION)}")

    print("\n== 2. Vocabulary and encoder ==")
    vocab = Vocabulary.from_texts([text for _, text in CORPUS] + [QUESTION], hash_buckets=16)
    print(f"  {vocab.n_content} content tokens, {vocab.size} total ids (incl. specials and OOV buckets)")
    params = init_encoder_params(vocab.size, dim=16, seed=0)
    q = encode(QUESTION, vocab, params)
    print(f"  question vector: dim={q.dim}, ||q||={np.linalg.norm(q.values):.6f} (always unit norm)")

    print("\n== 3. Exact cosine retrieval ==")
    index = build_index(CORPUS, vocab, params)
    results = top_k(q, index, k=3)
    for rank, r in enumerate(results, start=1):
        print(f"  rank {rank}: score={r.score:+.4f}  {index.text(r.chunk_id)!r}")

    print("\n== 4. Threshold filtering ==")
    tau = results[1].score  # keep everything scoring at least as well as rank 2
    kept = filter_by_threshold(results, tau)
    print(f"  tau={tau:.4f} keeps {len(kept)} of {len(results)} results (boundary is inclusive)")

    print("\n== 5. Softmax weighting at different sharpness ==")
    scored = [(r.chunk_id, r.score) for r in results]
    for beta in (0.0, 1.0, 8.0):
        weights = normalize_weights(scored, beta)
        rendered = ", ".join(f"chunk {cid}: {a:.3f}" for cid, a in weights.entries)
        print(f"  beta={beta:>3g} -> {rendered}")
    print("  beta=0 is exactly uniform; large beta concentrates on the best-aligned chunk.")

    print("\n== 6. Evidence aggregate ==")
    agg = aggregate(normalize_weights(scored, beta=2.0), index)
    print(f"  e = sum(alpha_i * d_i), dim={agg.vector.dim}, ||e||={np.linalg.norm(agg.vector.values):.4f}")
    print("  This single vector is what conditions every decoding step.")


if __name__ == "__main__":
    main()
