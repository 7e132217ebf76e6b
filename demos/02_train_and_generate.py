"""Train the joint model on a small synthetic task and generate answers.

The synthetic single-hop task puts every answer token into one gold
chunk per question and surrounds it with lexically similar distractors,
so a correctly wired retrieve-weight-aggregate-decode pipeline can drive
the training loss to zero. Takes a few seconds. Run with:
python3 demos/02_train_and_generate.py
"""
from alignrag.data import SyntheticSpec, generate_synthetic
from alignrag.decoder import decode_greedy
from alignrag.encoder import encode
from alignrag.evaluation import evaluate, retrieve
from alignrag.index import build_index
from alignrag.training import TrainConfig, sample_chunks, train


def main() -> None:
    samples, _ = generate_synthetic(
        SyntheticSpec(seed=2, n_samples=8, n_gold_evidence=1, n_distractors=8)
    )
    print(f"== Dataset: {len(samples)} synthetic single-hop samples ==")
    s = samples[0]
    print(f"  question: {s.question!r}")
    print(f"  answer:   {s.answer!r}")
    print(f"  context:  {len(s.context)} chunks, gold = {s.supporting_facts[0][0]!r}")

    config = TrainConfig(
        seed=0,
        dim=32,
        hidden=32,
        learning_rate=0.03,
        epochs=150,
        batch_size=8,
        lambda_=0.5,
        beta=2.0,
        top_k=3,
    )
    print(f"\n== Training: {config.epochs} epochs, lambda={config.lambda_}, beta={config.beta} ==")
    ckpt = train(samples, config)
    for epoch in (0, 25, 75, config.epochs):
        b = ckpt.log[epoch]
        print(
            f"  epoch {epoch:>3}: l_nll={b.l_nll:.4f}  l_cons={b.l_cons:.4f}  l_joint={b.l_joint:.4f}"
        )
    print("  (entry 0 is the loss at initialization, before any update)")

    print("\n== Generation, step by step for one sample ==")
    chunks = sample_chunks(s, config)
    index = build_index(list(enumerate(text for _, text in chunks)), ckpt.vocab, ckpt.encoder)
    q = encode(s.question, ckpt.vocab, ckpt.encoder)
    results, agg = retrieve(q, index, config.top_k, config.tau, config.beta)
    for rank, r in enumerate(results, start=1):
        print(f"  retrieved rank {rank}: {chunks[r.chunk_id][0]!r} (score {r.score:.3f})")
    trace = decode_greedy(q, agg, ckpt.params)
    print(f"  generated: {ckpt.vocab.decode(trace.tokens)!r}   (gold: {s.answer!r})")

    print("\n== Full evaluation ==")
    report = evaluate(samples, ckpt)
    m = report.metrics
    print(f"  EM={m.em:.1f}  F1={m.f1:.1f}  BLEU={m.bleu:.1f}  ROUGE-L={m.rouge_l:.1f}")
    print(f"  mean ||h_gen - e|| = {report.mean_consistency:.4f}")
    print(f"  mean evidence support rate = {report.mean_support_rate:.2f}")


if __name__ == "__main__":
    main()
