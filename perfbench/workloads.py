"""Workloads: seeded inputs, library set-up, the timed operation, output checks.

Every workload is a closed loop driven by one client in one process: the
next operation starts when the previous one returns. Inputs come from
``generate_synthetic`` with the benchmark's seed; the library receives only
the generated samples, corpus and questions. All library calls go through
module attributes (``training.train``, ``index.top_k``, ...) so that the
traced run's wrappers see them.
"""
from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import math
import os
import time

import numpy as np

import oracle
from alignrag import aggregation, encoder, evaluation, index, training
from alignrag.data import SyntheticSpec, generate_synthetic
from alignrag.vocab import Vocabulary

HASH_BUCKETS = 64
# Criteria 7/8 multi-hop spec and training settings (tests/test_acceptance.py).
MH_SPEC = dict(n_gold_evidence=2, n_distractors=40, distractor_similarity=0.7)
MH_TRAIN = dict(
    dim=64, hidden=32, learning_rate=0.02, batch_size=4, lambda_=1.0, beta=2.0,
    top_k=5, freeze_encoder=True, include_title=False,
)
BETA_GRID = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0]
K_GRID = [1, 2, 3, 5, 8, 12, 20]
# Relative tolerance for training losses against the stored reference:
# vectorising may reorder float sums, which moves the last digits only.
LOSS_REL_TOL = 1e-6
REFERENCE_SEED = 0


def _texts(samples) -> list[str]:
    """Every question, answer and titled chunk: the texts train() builds its vocabulary from."""
    out = []
    for s in samples:
        out += [s.question, s.answer]
        out += [_chunk_text(title, sents, True) for title, sents in s.context]
    return out


def _chunk_text(title: str, sentences, include_title: bool) -> str:
    body = " ".join(sentences)
    return f"{title} {body}" if include_title else body


def _sha(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
    return h.hexdigest()


def _file_sha(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _params_digest(params: dict) -> list[bytes]:
    return [name.encode() + np.ascontiguousarray(params[name]).tobytes() for name in sorted(params)]


class Workload:
    """One benchmark workload. Subclasses fill in the hooks below."""

    name = ""
    setup_reps = 5  # set-up repeated this often; setup_s is the median
    warmup_ops = 1  # untimed operations before timing; recorded and checked
    min_ops = 3  # timed operations run even when --seconds has elapsed
    items_per_op = 1

    def __init__(self, seed: int, smoke: bool, workdir: str):
        self.seed, self.smoke, self.workdir = seed, smoke, workdir
        self.digests: list[str] = []  # one per recorded operation
        self.setup_digests: list[str] = []  # one per set-up, of the file it wrote
        self.prepare()

    def prepare(self) -> None:
        """Generate inputs (untimed)."""

    def reset(self) -> None:
        """Release the previous set-up's state (untimed, before each set-up)."""

    def setup(self) -> None:
        """Library set-up (timed).

        Runs before the first timed operation and again between operations,
        so it must leave the same state every time.
        """

    def after_setup(self) -> None:
        """Keep what check() needs from a set-up (untimed)."""

    def warm_up(self) -> None:
        for i in range(self.warmup_ops):
            self.after_op(i, self.op(*self.op_args(i)))

    def op_args(self, i: int) -> tuple:
        """Fresh per-operation arguments (untimed)."""
        return ()

    def op(self, *args):
        """One timed operation."""
        raise NotImplementedError

    def after_op(self, i: int, result) -> None:
        """Keep what check() needs (untimed)."""

    def check(self) -> list[bool]:
        """One verdict per recorded operation."""
        raise NotImplementedError

    def digest(self) -> str:
        """sha256 of the first set-up's file and the first recorded operation's artifacts."""
        return _sha(*(d.encode() for d in self.setup_digests[:1] + self.digests[:1]))

    def named_metrics(self, durations: list[float], metrics: dict) -> list[tuple]:
        """(name, value, unit, note) rows for the workload-specific names."""
        return []

    def _setup_verdicts(self) -> list[bool]:
        """Every set-up wrote the same bytes."""
        return [d == self.setup_digests[0] for d in self.setup_digests]

    def _digest_verdicts(self, first_ok: bool) -> list[bool]:
        """The first recorded operation is fully checked; the rest must match it byte for byte."""
        return self._setup_verdicts() + [first_ok] + [d == self.digests[0] for d in self.digests[1:]]


# ---------------------------------------------------------------------------
# Training.
# ---------------------------------------------------------------------------


class TrainWorkload(Workload):
    setup_reps = 15
    spec: dict = {}
    n_train = 0
    train_kwargs: dict = {}
    epochs = 1
    # (log[0].l_joint, log[-1].l_joint) of train() at REFERENCE_SEED, as the
    # library this benchmark was written against computes them; keyed by
    # smoke mode.
    reference: dict[bool, tuple[float, float]] = {}

    def prepare(self):
        samples, _ = generate_synthetic(SyntheticSpec(seed=self.seed, **self.spec))
        self.samples = samples[: self.n_train]
        self.vocab_texts = _texts(samples)
        self.config = training.TrainConfig(seed=self.seed, epochs=self.epochs, **self.train_kwargs)
        self.items_per_op = self.epochs * len(self.samples)

    def setup(self):
        self.vocab = Vocabulary.from_texts(self.vocab_texts, hash_buckets=HASH_BUCKETS)

    def op_args(self, i):
        # Fresh objects per call, so no cache keyed on object identity
        # survives from one train() call to the next.
        vocab = Vocabulary(self.vocab.tokens, self.vocab.hash_buckets)
        return copy.deepcopy(self.samples), dataclasses.replace(self.config), vocab

    def op(self, samples, config, vocab):
        return training.train(samples, config, vocab=vocab)

    def after_op(self, i, ckpt):
        log = json.dumps([b.as_dict() for b in ckpt.log], sort_keys=True).encode()
        self.digests.append(_sha(log, *_params_digest(ckpt.params)))
        if i == 0:
            self.first = ckpt

    def _checkpoint_ok(self, ckpt) -> bool:
        finite = all(math.isfinite(b.l_nll) and math.isfinite(b.l_cons) for b in ckpt.log)
        if not finite or not ckpt.log[-1].l_joint < ckpt.log[0].l_joint:
            return False
        p, cfg = ckpt.params, self.config
        for s in self.samples:
            q = oracle.unit_rows([self.vocab.encode(s.question)], p["enc_embed"])[0]
            chunks = [_chunk_text(t, sents, cfg.include_title) for t, sents in s.context]
            vecs = oracle.unit_rows([self.vocab.encode(c) for c in chunks], p["enc_embed"])
            ref = oracle.joint_loss(p, q, vecs, self.vocab.encode(s.answer), cfg)
            got = training.joint_loss(s, self.vocab, p, cfg).l_joint
            if not abs(got - ref) <= 1e-9 * max(1.0, abs(ref)):
                return False
        return True

    def _reference_ok(self) -> bool:
        ref = type(self)(REFERENCE_SEED, self.smoke, self.workdir)
        ref.setup()
        ckpt = ref.op(*ref.op_args(0))
        got = (ckpt.log[0].l_joint, ckpt.log[-1].l_joint)
        want = self.reference[self.smoke]
        return all(abs(g - w) <= LOSS_REL_TOL * abs(w) for g, w in zip(got, want))

    def check(self):
        return self._digest_verdicts(self._checkpoint_ok(self.first)) + [self._reference_ok()]

    def named_metrics(self, durations, metrics):
        return [("train_steps_per_s", metrics["throughput_per_s"], "1/s",
                 f"epochs x samples / train() wall time, {len(durations)} train() calls")]


class TrainMultihopFrozen(TrainWorkload):
    name = "train_multihop_frozen"
    train_kwargs = MH_TRAIN
    epochs = 2

    def prepare(self):
        n = 8 if self.smoke else 48
        self.spec = dict(MH_SPEC, n_samples=n, n_distractors=8 if self.smoke else 40)
        self.n_train = 4 if self.smoke else 32
        super().prepare()

    reference = {
        False: (7.659986676223412, 2.325228193148136),
        True: (7.137897554923056, 6.206916530695413),
    }


class TrainSinglehopJoint(TrainWorkload):
    name = "train_singlehop_joint"
    spec = dict(n_samples=8, n_gold_evidence=1, n_distractors=8)
    n_train = 8
    epochs = 3
    train_kwargs = dict(dim=32, hidden=32, learning_rate=0.03, batch_size=8, lambda_=1.0,
                        beta=1.0, top_k=5)
    reference = {
        # The single-hop spec is already toy-sized, so smoke mode changes nothing.
        False: (7.1977226751351715, 6.238375817383035),
        True: (7.1977226751351715, 6.238375817383035),
    }


# ---------------------------------------------------------------------------
# Evaluation and sweeps over a briefly trained multi-hop checkpoint.
# ---------------------------------------------------------------------------


class _CheckpointWorkload(Workload):
    setup_reps = 3

    def prepare(self):
        n_train, n_eval = (4, 8) if self.smoke else (32, 96)
        spec = dict(MH_SPEC, n_distractors=8 if self.smoke else 40)
        samples, _ = generate_synthetic(SyntheticSpec(seed=self.seed, n_samples=n_train + n_eval, **spec))
        self.train_set, self.heldout = samples[:n_train], samples[n_train:]
        self.vocab_texts = _texts(samples)
        self.config = training.TrainConfig(seed=self.seed, epochs=2 if self.smoke else 4, **MH_TRAIN)
        self.path = os.path.join(self.workdir, "eval.ckpt")

    def reset(self):
        self.ckpt = None

    def setup(self):
        vocab = Vocabulary.from_texts(self.vocab_texts, hash_buckets=HASH_BUCKETS)
        trained = training.train(self.train_set, self.config, vocab=vocab)
        training.save_checkpoint(self.path, trained)
        self.ckpt = training.load_checkpoint(self.path)

    def after_setup(self):
        self.setup_digests.append(_file_sha(self.path))

    def op_args(self, i):
        return (copy.deepcopy(self.heldout),)

    def _reports_ok(self, reports, configs) -> list[bool]:
        """Check eval reports against the oracle pipeline, one verdict per report."""
        ckpt = self.ckpt
        p, vocab, table = ckpt.params, ckpt.vocab, ckpt.params["enc_embed"]
        include_title = configs[0].include_title
        qs = oracle.unit_rows([vocab.encode(s.question) for s in self.heldout], table)
        chunk_vecs = [
            oracle.unit_rows([vocab.encode(_chunk_text(t, sents, include_title)) for t, sents in s.context], table)
            for s in self.heldout
        ]
        verdicts = []
        rows = []  # (report index, sample index, aggregate)
        for r_i, (rep, cfg) in enumerate(zip(reports, configs)):
            ok = len(rep.samples) == len(self.heldout) and rep.metrics.n_samples == len(self.heldout)
            ems, f1s = [], []
            for s_i, (s, rec) in enumerate(zip(self.heldout, rep.samples)):
                scores, kept, _, _ = oracle.retrieve(qs[s_i], chunk_vecs[s_i], cfg.top_k, cfg.tau, cfg.beta)
                got = rec["retrieved"]
                ids = [g["chunk_id"] for g in got]
                ok &= rec["id"] == s.id and len(got) == len(kept)
                ok &= oracle.ranking_ok(ids, [g["score"] for g in got], scores, len(kept))
                if not ok:
                    break
                alphas = oracle.softmax_weights(scores[ids], cfg.beta)
                ok &= bool(np.all(np.abs(alphas - [g["alpha"] for g in got]) <= oracle.TOL))
                rows.append((r_i, s_i, alphas @ chunk_vecs[s_i][ids]))
                em, f1 = oracle.exact_match(rec["generated"], s.answer), oracle.token_f1(rec["generated"], s.answer)
                ok &= rec["em"] == em and abs(rec["f1"] - f1) <= 1e-12
                ems.append(em)
                f1s.append(f1)
            if ok:
                ok &= abs(rep.metrics.em - 100 * np.mean(ems)) <= 1e-9
                ok &= abs(rep.metrics.f1 - 100 * np.mean(f1s)) <= 1e-9
            verdicts.append(bool(ok))
        if not rows:
            return verdicts
        max_len = {c.max_len for c in configs}
        if len(max_len) != 1:
            raise ValueError("one decode length per check batch")
        q_rows = np.stack([qs[s_i] for _, s_i, _ in rows])
        e_rows = np.stack([e for _, _, e in rows])
        tokens, h_gen, margin = oracle.greedy_decode(p, q_rows, e_rows, max_len.pop())
        for j, (r_i, s_i, e) in enumerate(rows):
            if margin[j] < oracle.TOL:
                continue  # a numerical tie: either greedy path is valid
            rec = reports[r_i].samples[s_i]
            cons = float(np.linalg.norm(h_gen[j] - e))
            if vocab.decode(tokens[j]) != rec["generated"] or abs(cons - rec["consistency"]) > oracle.TOL:
                verdicts[r_i] = False
        return verdicts


def _report_bytes(report) -> bytes:
    return json.dumps(report.as_dict(), sort_keys=True).encode()


class EvalMultihop(_CheckpointWorkload):
    name = "eval_multihop"
    min_ops = 5

    def prepare(self):
        super().prepare()
        self.items_per_op = len(self.heldout)

    def op(self, heldout):
        return evaluation.evaluate(heldout, self.ckpt)

    def after_op(self, i, report):
        self.digests.append(_sha(_report_bytes(report)))
        if i == 0:
            self.first = report

    def check(self):
        return self._digest_verdicts(self._reports_ok([self.first], [self.ckpt.config])[0])

    def named_metrics(self, durations, metrics):
        return [("eval_samples_per_s", metrics["throughput_per_s"], "1/s",
                 f"held-out samples / evaluate() wall time, {len(durations)} calls")]


class SweepMultihop(_CheckpointWorkload):
    name = "sweep_multihop"
    warmup_ops = 0
    min_ops = 2

    def prepare(self):
        super().prepare()
        self.items_per_op = (len(BETA_GRID) + len(K_GRID)) * len(self.heldout)

    def warm_up(self):
        evaluation.evaluate(self.heldout, self.ckpt)

    def op(self, heldout):
        return (
            evaluation.sweep_alignment_weight(heldout, self.ckpt, BETA_GRID),
            evaluation.sweep_top_k(heldout, self.ckpt, K_GRID),
        )

    def after_op(self, i, sweeps):
        reports = [r for sw in sweeps for r in sw.reports]
        self.digests.append(_sha(*[_report_bytes(r) for r in reports]))
        if i == 0:
            self.first = reports

    def check(self):
        base = self.ckpt.config
        configs = [dataclasses.replace(base, beta=b) for b in BETA_GRID]
        configs += [dataclasses.replace(base, top_k=k) for k in K_GRID]
        return self._digest_verdicts(all(self._reports_ok(self.first, configs)))

    def named_metrics(self, durations, metrics):
        return [("sweep_samples_per_s", metrics["throughput_per_s"], "1/s",
                 f"grid points x samples / sweep wall time, {len(durations)} beta+top-k sweep pairs")]


# ---------------------------------------------------------------------------
# Large-corpus index: the write phase is the set-up, queries are timed.
# ---------------------------------------------------------------------------

CORPUS_DIM = 64
QUERY_K = 5
QUERY_TAU = 0.0
QUERY_BETA = 2.0
QUERIES_CHECKED = 64


class QueryCorpus(Workload):
    """`alignrag index` then `load_index` as set-up; the read phase is timed.

    Set-up is what a user pays before the first query, so work moved from
    queries into the index build shows in setup_s and index_build_s.
    """

    name = "query_corpus_100k"
    setup_reps = 3
    warmup_ops = 20
    min_ops = 200  # so that at least 10 timed queries lie beyond p95

    def prepare(self):
        # Single-hop samples own one gold and nine distractor chunks each.
        n_samples = 200 if self.smoke else 10_000
        self.samples, self.corpus = generate_synthetic(
            SyntheticSpec(seed=self.seed, n_samples=n_samples, n_gold_evidence=1, n_distractors=9)
        )
        if [cid for cid, _ in self.corpus] != list(range(len(self.corpus))):
            raise ValueError("oracle indexing assumes chunk ids 0..N-1")
        self.path = os.path.join(self.workdir, "corpus.idx")
        rng = np.random.default_rng(self.seed)
        self.questions = [self.samples[i].question for i in rng.integers(len(self.samples), size=4096)]
        self.build_times: list[float] = []
        self.load_times: list[float] = []
        self.records: list[tuple] = []

    def reset(self):
        self.loaded = None

    def setup(self):
        self.vocab = Vocabulary.from_texts([t for _, t in self.corpus], hash_buckets=HASH_BUCKETS)
        self.params = encoder.init_encoder_params(self.vocab.size, dim=CORPUS_DIM, seed=self.seed)
        t0 = time.perf_counter()
        built = index.build_index(self.corpus, self.vocab, self.params)
        index.save_index(self.path, built, self.vocab, self.params)
        del built
        t1 = time.perf_counter()
        self.loaded = index.load_index(self.path)
        self.build_times.append(t1 - t0)
        self.load_times.append(time.perf_counter() - t1)

    def after_setup(self):
        self.setup_digests.append(_file_sha(self.path))

    def op_args(self, i):
        return (self.questions[i % len(self.questions)],)

    def op(self, question):
        built, vocab, params = self.loaded
        top = index.top_k(encoder.encode(question, vocab, params), built, QUERY_K)
        kept = index.filter_by_threshold(top, QUERY_TAU)
        weights = aggregation.normalize_weights([(r.chunk_id, r.score) for r in kept], QUERY_BETA)
        return top, kept, weights, aggregation.aggregate(weights, built)

    def after_op(self, i, result):
        top, kept, weights, agg = result
        self.records.append((
            self.questions[i % len(self.questions)],
            [(r.chunk_id, r.score) for r in top],
            [r.chunk_id for r in kept],
            np.array([a for _, a in weights.entries]),
            agg.vector.values.copy(),
        ))

    def _query_ok(self, vectors, question, top, kept, alphas, agg) -> bool:
        """top: [(id, score)] from top_k; kept: ids after the threshold."""
        q = oracle.unit_rows([self.vocab.encode(question)], self.params.embedding)[0]
        scores = vectors @ q
        ids = [cid for cid, _ in top]
        if not oracle.ranking_ok(ids, [s for _, s in top], scores, QUERY_K):
            return False
        if kept != [cid for cid in ids if scores[cid] >= QUERY_TAU] or not kept:
            return False
        ref_alphas = oracle.softmax_weights(scores[kept], QUERY_BETA)
        return bool(
            np.all(np.abs(ref_alphas - alphas) <= oracle.TOL)
            and np.all(np.abs(ref_alphas @ vectors[kept] - agg) <= oracle.TOL)
        )

    def check(self):
        # The file loads back to the vocabulary and table it was built from.
        _, vocab, params = self.loaded
        loaded_ok = vocab.tokens == self.vocab.tokens and np.array_equal(params.embedding, self.params.embedding)
        verdicts = [loaded_ok and ok for ok in self._setup_verdicts()]
        vectors = oracle.unit_rows([self.vocab.encode(t) for _, t in self.corpus], self.params.embedding)
        rng = np.random.default_rng(self.seed)
        picked = set(rng.choice(len(self.records), size=min(QUERIES_CHECKED, len(self.records)), replace=False).tolist())
        # Unchecked queries count as attempted and not failed.
        return verdicts + [i not in picked or self._query_ok(vectors, *rec) for i, rec in enumerate(self.records)]

    def digest(self) -> str:
        parts = [self.setup_digests[0].encode()]
        for question, top, kept, alphas, agg in self.records[: self.warmup_ops + self.min_ops]:
            parts.append(json.dumps([question, top, kept]).encode() + alphas.tobytes() + agg.tobytes())
        return _sha(*parts)

    def named_metrics(self, durations, metrics):
        n = len(durations)
        p95 = float(np.quantile(durations, 0.95)) * 1000
        beyond = sum(d * 1000 > p95 for d in durations)
        reps = len(self.build_times)
        return [
            ("query_p50_ms", float(np.median(durations)) * 1000, "ms", f"{n} queries"),
            ("query_p95_ms", p95, "ms", f"{n} queries, {beyond} beyond p95"),
            ("queries_per_s", metrics["throughput_per_s"], "1/s", f"{n} queries"),
            ("index_build_s", float(np.median(self.build_times)), "s",
             f"median build_index + save_index of {len(self.corpus)} chunks, {reps} builds"),
            ("index_load_s", float(np.median(self.load_times)), "s", f"median of {reps} load_index calls"),
        ]


WORKLOADS = {
    w.name: w
    for w in (TrainMultihopFrozen, TrainSinglehopJoint, EvalMultihop, SweepMultihop, QueryCorpus)
}
