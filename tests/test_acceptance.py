"""Acceptance criteria for the full system.

Each test prints exactly one PASS/FAIL line. The multi-hop sensitivity
criteria (7 and 8) share one set of five trained checkpoints, so this
module takes several minutes; everything else is fast.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
"""
import dataclasses
import json
import time

import numpy as np
import pytest

from alignrag import cli
from alignrag.aggregation import normalize_weights
from alignrag.data import SyntheticSpec, evidence_texts, generate_synthetic, save_samples, write_corpus
from alignrag.evaluation import evaluate, sweep_alignment_weight, sweep_top_k
from alignrag.index import EvidenceIndex, top_k
from alignrag.metrics import bleu, exact_match, rouge_l, token_f1
from alignrag.training import (
    TrainConfig,
    init_params,
    joint_loss,
    joint_loss_and_grads,
    train,
)
from alignrag.vocab import Vocabulary
from reference import numerical_gradient, relative_error


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# Criterion 1: exact retrieval equivalence against a brute-force oracle.
# ---------------------------------------------------------------------------


def test_criterion_1_retrieval_oracle_equivalence():
    rng = np.random.default_rng(0)
    n, dim = 1000, 64
    vecs = rng.normal(size=(n, dim))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    index = EvidenceIndex(range(n), [f"chunk {i}" for i in range(n)], vecs)
    start = time.perf_counter()
    mismatches = 0
    for _ in range(100):
        q = rng.normal(size=dim)
        q /= np.linalg.norm(q)
        scores = vecs @ q
        for k in (1, 5, 50):
            oracle = sorted(range(n), key=lambda i: (-scores[i], i))[:k]
            got = top_k(q, index, k)
            if [r.chunk_id for r in got] != oracle:
                mismatches += 1
            elif not np.allclose([r.score for r in got], scores[oracle], atol=1e-12):
                mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 5.0
    report(
        "criterion 1 (retrieval oracle equivalence)",
        ok,
        f"100 queries x 1000 vectors, k in (1, 5, 50): {mismatches} mismatches, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# Criterion 2: alignment weights form a simplex, shift-invariant, beta=0 uniform.
# ---------------------------------------------------------------------------


def test_criterion_2_weight_simplex_suite():
    rng = np.random.default_rng(1)
    n_draws = 10_000
    worst_sum = 0.0
    worst_shift = 0.0
    negatives = 0
    nonuniform = 0
    for _ in range(n_draws):
        size = int(rng.integers(1, 13))
        scores = list(enumerate(rng.uniform(-1.0, 1.0, size=size)))
        beta = float(rng.uniform(0.0, 8.0))
        alphas = np.array([a for _, a in normalize_weights(scores, beta).entries])
        worst_sum = max(worst_sum, abs(alphas.sum() - 1.0))
        negatives += int((alphas < 0).any())
        shift = float(rng.uniform(-5.0, 5.0))
        shifted = np.array(
            [a for _, a in normalize_weights([(i, s + shift) for i, s in scores], beta).entries]
        )
        worst_shift = max(worst_shift, float(np.max(np.abs(alphas - shifted))))
        uniform = np.array([a for _, a in normalize_weights(scores, 0.0).entries])
        nonuniform += int(any(a != 1.0 / size for a in uniform))
    ok = worst_sum < 1e-9 and negatives == 0 and worst_shift < 1e-9 and nonuniform == 0
    report(
        "criterion 2 (weight simplex suite)",
        ok,
        f"{n_draws} draws: max |sum-1|={worst_sum:.2e}, negatives={negatives}, "
        f"max shift drift={worst_shift:.2e}, non-uniform beta=0 cases={nonuniform}",
    )


# ---------------------------------------------------------------------------
# Criterion 3: analytic gradients match central finite differences.
# ---------------------------------------------------------------------------


def test_criterion_3_gradient_checks():
    start = time.perf_counter()
    samples, _ = generate_synthetic(
        SyntheticSpec(seed=33, n_samples=2, n_gold_evidence=1, n_distractors=2, vocab_size=12)
    )
    sample = samples[0]
    texts = [sample.question, sample.answer] + [t for _, t in evidence_texts(sample)]
    content = sorted({tok for text in texts for tok in text.lower().split()})
    buckets = 32 - 4 - len(content)
    assert buckets >= 1, "vocabulary too large for the pinned V=32"
    vocab = Vocabulary(content, hash_buckets=buckets)
    assert vocab.size == 32
    config = TrainConfig(
        dim=8, hidden=8, lambda_=0.7, beta=1.5, top_k=3, differentiable_weights=True
    )
    params = init_params(vocab.size, config.dim, config.hidden, seed=0)

    rng = np.random.default_rng(3)
    names = sorted(params)
    worst = {"nll": 0.0, "cons": 0.0, "joint": 0.0}
    n_checked = {"nll": 0, "cons": 0, "joint": 0}
    for component in ("nll", "cons", "joint"):
        _, grads = joint_loss_and_grads(sample, vocab, params, config, component=component)

        def loss_fn(p, component=component):
            b = joint_loss(sample, vocab, p, config)
            return {"nll": b.l_nll, "cons": b.l_cons, "joint": b.l_joint}[component]

        while n_checked[component] < 100:
            name = names[int(rng.integers(len(names)))]
            flat = int(rng.integers(params[name].size))
            index = np.unravel_index(flat, params[name].shape)
            analytic = grads[name][index]
            numeric = numerical_gradient(loss_fn, params, name, index)
            # For near-zero gradients the relative error is dominated by
            # finite-difference round-off, so a coordinate also passes when
            # the absolute discrepancy is below 1e-9 (observed FD noise on
            # this graph is ~1e-11).
            err = relative_error(analytic, numeric)
            if err >= 1e-4 and abs(analytic - numeric) < 1e-9:
                err = 0.0
            worst[component] = max(worst[component], err)
            n_checked[component] += 1
    elapsed = time.perf_counter() - start
    ok = all(w < 1e-4 for w in worst.values()) and elapsed < 60.0
    report(
        "criterion 3 (finite-difference gradient checks)",
        ok,
        "100 coords per component (D=8, H=8, V=32): max rel err "
        f"nll={worst['nll']:.2e}, cons={worst['cons']:.2e}, joint={worst['joint']:.2e}, "
        f"{elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# Criterion 4: metrics reproduce the hand-computed oracle table.
# ---------------------------------------------------------------------------


def test_criterion_4_metric_oracle_table(metric_cases):
    fns = {
        "em": lambda c: exact_match(c["pred"], c["gold"]),
        "f1": lambda c: token_f1(c["pred"], c["gold"]),
        "rouge_l": lambda c: rouge_l(c["pred"], c["gold"]),
        "bleu": lambda c: bleu(c["preds"], c["refs"]),
    }
    failures = []
    counts = {}
    for metric, fn in fns.items():
        cases = metric_cases[metric]
        counts[metric] = len(cases)
        assert len(cases) >= 10
        for case in cases:
            if abs(fn(case) - case["expected"]) > 1e-5:
                failures.append((metric, case))
    ok = not failures
    report(
        "criterion 4 (hand-computed metric oracle table)",
        ok,
        f"cases em={counts['em']} f1={counts['f1']} rouge_l={counts['rouge_l']} "
        f"bleu={counts['bleu']}, mismatches={len(failures)}",
    )


# ---------------------------------------------------------------------------
# Criterion 5: the model can overfit 8 samples with gold evidence forced.
# ---------------------------------------------------------------------------


def _overfit_run(seed: int):
    samples, _ = generate_synthetic(
        SyntheticSpec(seed=5, n_samples=8, n_gold_evidence=1, n_distractors=8)
    )
    config = TrainConfig(
        seed=seed,
        dim=32,
        hidden=32,
        learning_rate=0.03,
        epochs=300,
        batch_size=8,
        lambda_=0.1,
        oracle_evidence=True,
    )
    ckpt = train(samples, config)
    em = evaluate(samples, ckpt).metrics.em
    return ckpt.log[-1].l_nll, em


def test_criterion_5_overfit_with_oracle_evidence():
    start = time.perf_counter()
    results = [_overfit_run(seed) for seed in (0, 1, 2)]
    elapsed = time.perf_counter() - start
    ok = all(nll < 0.1 and em == 100.0 for nll, em in results) and elapsed < 120.0
    detail = ", ".join(f"seed{i}: nll={nll:.4f} EM={em:.0f}" for i, (nll, em) in enumerate(results))
    report(
        "criterion 5 (8-sample overfit, gold evidence forced, 300 <= 500 epochs)",
        ok,
        f"{detail}, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# Criterion 6: the consistency penalty actually tightens h_gen to e.
# ---------------------------------------------------------------------------


def test_criterion_6_consistency_penalty_effect():
    samples, _ = generate_synthetic(
        SyntheticSpec(seed=5, n_samples=8, n_gold_evidence=1, n_distractors=8)
    )
    rows = []
    for seed in range(5):
        pair = {}
        for lam in (0.0, 1.0):
            config = TrainConfig(
                seed=seed,
                dim=32,
                hidden=32,
                learning_rate=0.03,
                epochs=300,
                batch_size=8,
                lambda_=lam,
                beta=1.0,
                top_k=5,
            )
            rep = evaluate(samples, train(samples, config))
            pair[lam] = (rep.mean_consistency, rep.mean_support_rate)
        rows.append(pair)
    cons0 = float(np.mean([r[0.0][0] for r in rows]))
    cons1 = float(np.mean([r[1.0][0] for r in rows]))
    sup0 = float(np.mean([r[0.0][1] for r in rows]))
    sup1 = float(np.mean([r[1.0][1] for r in rows]))
    per_seed = all(r[1.0][0] < r[0.0][0] for r in rows)
    ok = cons1 < cons0 and per_seed and sup1 >= sup0
    report(
        "criterion 6 (lambda=1 tightens generation-evidence consistency)",
        ok,
        f"mean ||h_gen - e||: lambda=0 -> {cons0:.4f}, lambda=1 -> {cons1:.4f} "
        f"(lower on all 5 seeds: {per_seed}); support rate {sup0:.2f} -> {sup1:.2f}",
    )


# ---------------------------------------------------------------------------
# Criteria 7 and 8: sensitivity sweeps on held-out multi-hop pairs.
# Five checkpoints are trained once and shared by both tests.
# ---------------------------------------------------------------------------

BETA_GRID = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0]
K_GRID = [1, 2, 3, 5, 8, 12, 20]


@pytest.fixture(scope="module")
def multi_hop_sweeps():
    spec = SyntheticSpec(
        seed=7, n_samples=48, n_gold_evidence=2, n_distractors=40, distractor_similarity=0.7
    )
    samples, _ = generate_synthetic(spec)
    texts = []
    for s in samples:
        texts.append(s.question)
        texts.append(s.answer)
        texts.extend(text for _, text in evidence_texts(s))
    vocab = Vocabulary.from_texts(texts, hash_buckets=64)
    train_set, eval_set = samples[:32], samples[32:]
    beta_ems = np.zeros((5, len(BETA_GRID)))
    k_ems = np.zeros((5, len(K_GRID)))
    for seed in range(5):
        config = TrainConfig(
            seed=seed,
            dim=64,
            hidden=32,
            learning_rate=0.02,
            epochs=600,
            batch_size=4,
            lambda_=1.0,
            beta=2.0,
            top_k=5,
            freeze_encoder=True,
            include_title=False,
        )
        ckpt = train(train_set, config, vocab=vocab)
        bs = sweep_alignment_weight(eval_set, ckpt, BETA_GRID)
        ks = sweep_top_k(eval_set, ckpt, K_GRID)
        beta_ems[seed] = [r.metrics.em for r in bs.reports]
        k_ems[seed] = [r.metrics.em for r in ks.reports]
    return beta_ems.mean(axis=0), k_ems.mean(axis=0)


def test_criterion_7_top_k_sweep_shape(multi_hop_sweeps):
    _, k_ems = multi_hop_sweeps
    curve = dict(zip(K_GRID, k_ems))
    interior = {k: curve[k] for k in K_GRID[1:-1]}
    best_k = max(interior, key=interior.get)
    ok = interior[best_k] >= curve[1] + 10 and interior[best_k] >= curve[20] + 10
    points = " ".join(f"k={k}:{em:.1f}" for k, em in curve.items())
    report(
        "criterion 7 (top-k sweep peaks at an interior k)",
        ok,
        f"5-seed mean EM on 16 held-out samples: {points}; peak k*={best_k}",
    )


def test_criterion_8_beta_sweep_shape(multi_hop_sweeps):
    beta_ems, _ = multi_hop_sweeps
    curve = dict(zip(BETA_GRID, beta_ems))
    interior = {b: curve[b] for b in BETA_GRID[1:-1]}
    best_b = max(interior, key=interior.get)
    ok = interior[best_b] >= curve[0.0] + 10 and interior[best_b] >= curve[8.0] + 10
    points = " ".join(f"beta={b:g}:{em:.1f}" for b, em in curve.items())
    report(
        "criterion 8 (beta sweep peaks at an interior beta)",
        ok,
        f"5-seed mean EM on 16 held-out samples: {points}; peak beta*={best_b:g}",
    )


# ---------------------------------------------------------------------------
# Criterion 9: identical configuration produces byte-identical artifacts.
# ---------------------------------------------------------------------------


def test_criterion_9_byte_determinism(tmp_path):
    samples, corpus = generate_synthetic(
        SyntheticSpec(seed=9, n_samples=4, n_gold_evidence=1, n_distractors=4)
    )
    data = tmp_path / "data.json"
    save_samples(data, samples)
    corpus_path = tmp_path / "corpus.jsonl"
    write_corpus(corpus_path, corpus)
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "encoder": {"dim": 12, "hidden": 10, "hash_buckets": 16},
                "training": {"epochs": 8, "learning_rate": 0.02},
            }
        )
    )
    artifacts = []
    for run in ("one", "two"):
        d = tmp_path / run
        d.mkdir()
        assert cli.main(["index", str(corpus_path), "--out", str(d / "c.idx"), "--config", str(config)]) == 0
        assert cli.main(["train", str(data), "--out", str(d / "m.ckpt"), "--config", str(config)]) == 0
        assert (
            cli.main(
                ["eval", str(data), "--checkpoint", str(d / "m.ckpt"), "--out", str(d / "report.json")]
            )
            == 0
        )
        assert (
            cli.main(
                [
                    "sweep",
                    str(data),
                    "--checkpoint",
                    str(d / "m.ckpt"),
                    "--param",
                    "beta",
                    "--grid",
                    "0,1,4",
                    "--out",
                    str(d / "sweep"),
                    "--svg",
                ]
            )
            == 0
        )
        artifacts.append(
            [
                d / "c.idx",
                d / "m.ckpt",
                d / "m.ckpt.log.json",
                d / "report.json",
                d / "sweep.json",
                d / "sweep.csv",
                d / "sweep.svg",
            ]
        )
    diffs = [a.name for a, b in zip(*artifacts) if a.read_bytes() != b.read_bytes()]
    ok = not diffs
    report(
        "criterion 9 (byte-identical artifacts on identical config)",
        ok,
        f"{len(artifacts[0])} artifacts compared across two full CLI runs; differing: {diffs or 'none'}",
    )
