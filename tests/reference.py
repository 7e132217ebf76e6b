"""Test-only references: tape ops, finite differences, losses and the per-sample paths.

Nothing in alignrag calls these. They are the independent paths the
tests compare the library against: tape ops that only tests use (among
them add, scale, row and sum_all, which reduce a tape to a scalar loss
that the training tape seeds instead, and gather_rows, segment_mean and
l2_normalize_rows, the encoder ops that training's evidence node
differentiates by hand), central finite differences, the plain-array NLL
and consistency losses, the per-sample tape graphs the batched training
path replaced (the evidence of one sample at a time, and the decoder one
op per step), the per-vector numpy decoder that greedy decoding replaced (one
full softmax per step), and the per-sample evaluation that batched
evaluation replaced (one index, one ranking, one softmax and one
one-row greedy decode per sample), whose reports the batched path must
match byte for byte.
"""
import math

import numpy as np

from alignrag import autodiff as ad
from alignrag import evaluation, training
from alignrag.decoder import fused_gates, generation_repr, gru_cell, output_logits
from alignrag.decoder import initial_state as decoder_initial_state
from alignrag.encoder import encode_all, values_of
from alignrag.errors import DimMismatch, EmptyScores, InvalidTokenId, LengthMismatch
from alignrag.index import ZERO_NORM_EPS, EvidenceIndex, filter_by_threshold, top_k
from alignrag.metrics import MetricReport, bleu, exact_match, rouge_l, token_f1
from alignrag.training import sample_chunks
from alignrag.vocab import BOS_ID, EOS_ID, PAD_ID

# ---------------------------------------------------------------------------
# Tape ops that only tests use, each with one backward(g) -> a gradient per parent.
# ---------------------------------------------------------------------------


def detach(t):
    return ad.Tensor(t.value)


def _unbroadcast(grad, shape):
    """Reduce a gradient back to `shape` after scalar broadcasting."""
    if grad.shape == tuple(shape):
        return grad
    if shape == ():
        return np.sum(grad)
    raise ValueError(f"cannot reduce grad of shape {grad.shape} to {shape}")


def add(a, b):
    return ad.Tensor(
        a.value + b.value,
        parents=(a, b),
        backward=lambda g: (_unbroadcast(g, a.value.shape), _unbroadcast(g, b.value.shape)),
    )


def scale(a, c: float):
    return ad.Tensor(a.value * c, parents=(a,), backward=lambda g: (g * c,))


def sub(a, b):
    return ad.Tensor(
        a.value - b.value,
        parents=(a, b),
        backward=lambda g: (_unbroadcast(g, a.value.shape), _unbroadcast(-g, b.value.shape)),
    )


def mul(a, b):
    return ad.Tensor(
        a.value * b.value,
        parents=(a, b),
        backward=lambda g: (
            _unbroadcast(g * b.value, a.value.shape),
            _unbroadcast(g * a.value, b.value.shape),
        ),
    )


def dot(a, b):
    return ad.Tensor(
        a.value @ b.value, parents=(a, b), backward=lambda g: (g * b.value, g * a.value)
    )


def concat(a, b):
    na = a.value.shape[0]
    return ad.Tensor(
        np.concatenate([a.value, b.value]), parents=(a, b), backward=lambda g: (g[:na], g[na:])
    )


def matvec(m, v):
    """(r, c) matrix times (c,) vector."""
    return ad.Tensor(
        m.value @ v.value,
        parents=(m, v),
        backward=lambda g: (np.outer(g, v.value), m.value.T @ g),
    )


def vecmat(v, m):
    """(r,) vector times (r, c) matrix."""
    return ad.Tensor(
        v.value @ m.value,
        parents=(v, m),
        backward=lambda g: (m.value @ g, np.outer(v.value, g)),
    )


def stack(rows):
    """(B, n) matrix whose row i is the (n,) vector rows[i]."""
    return ad.Tensor(
        np.stack([r.value for r in rows]), parents=tuple(rows), backward=lambda g: tuple(g)
    )


def gather_rows(m, ids):
    """Rows ids of m; the backward scatter-adds each gradient row into its table row."""
    ids = np.asarray(ids, dtype=np.intp)

    def backward(g):
        out = np.zeros_like(m.value)
        np.add.at(out, ids, g)
        return (out,)

    return ad.Tensor(m.value[ids], parents=(m,), backward=backward)


def segment_mean(m, lengths):
    """Mean of each run of consecutive rows: segment i is the next lengths[i] rows of m."""
    lengths = np.asarray(lengths, dtype=np.intp)
    if lengths.size == 0 or lengths.min() < 1 or lengths.sum() != m.value.shape[0]:
        raise ValueError("segments must be non-empty and cover every row exactly once")
    starts = np.cumsum(lengths) - lengths
    counts = lengths[:, None].astype(np.float64)
    return ad.Tensor(
        np.add.reduceat(m.value, starts, axis=0) / counts,
        parents=(m,),
        backward=lambda g: (np.repeat(g / counts, lengths, axis=0),),
    )


def l2_normalize_rows(m):
    """Each row of a (k, n) matrix divided by its Euclidean norm."""
    norms = np.sqrt(np.einsum("ij,ij->i", m.value, m.value))[:, None]
    out = m.value / norms
    return ad.Tensor(
        out,
        parents=(m,),
        backward=lambda g: ((g - out * np.sum(g * out, axis=1, keepdims=True)) / norms,),
    )


def row(m, i: int):
    def backward(g):
        out = np.zeros_like(m.value)
        out[i] = g
        return (out,)

    return ad.Tensor(m.value[i], parents=(m,), backward=backward)


def element(v, i: int):
    def backward(g):
        out = np.zeros_like(v.value)
        out[i] = g
        return (out,)

    return ad.Tensor(v.value[i], parents=(v,), backward=backward)


def sum_all(t):
    return ad.Tensor(np.sum(t.value), parents=(t,), backward=lambda g: (g * np.ones_like(t.value),))


def tanh(t):
    out = np.tanh(t.value)
    return ad.Tensor(out, parents=(t,), backward=lambda g: (g * (1.0 - out * out),))


def sigmoid(t):
    out = 1.0 / (1.0 + np.exp(-t.value))
    return ad.Tensor(out, parents=(t,), backward=lambda g: (g * out * (1.0 - out),))


def exp(t):
    out = np.exp(t.value)
    return ad.Tensor(out, parents=(t,), backward=lambda g: (g * out,))


def log(t):
    return ad.Tensor(np.log(t.value), parents=(t,), backward=lambda g: (g / t.value,))


def sqrt(t):
    out = np.sqrt(t.value)
    return ad.Tensor(out, parents=(t,), backward=lambda g: (g / (2.0 * out),))


def reciprocal(t):
    out = 1.0 / t.value
    return ad.Tensor(out, parents=(t,), backward=lambda g: (-g * out * out,))


def l2_normalize(v):
    norm = sqrt(dot(v, v))
    return mul(v, reciprocal(norm))


def log_softmax(logits):
    # Max-subtraction for stability; the shift is a constant and cancels
    # analytically, so treating it as non-differentiable is exact.
    shifted = sub(logits, ad.const(np.max(logits.value)))
    lse = log(sum_all(exp(shifted)))
    return sub(shifted, lse)


def softmax(logits):
    return exp(log_softmax(logits))


# ---------------------------------------------------------------------------
# Finite differences.
# ---------------------------------------------------------------------------


def numerical_gradient(loss_fn, params: dict[str, np.ndarray], name: str, index, h: float = 1e-5):
    """Central finite difference of loss_fn at one parameter coordinate."""
    original = params[name][index]
    params[name][index] = original + h
    up = loss_fn(params)
    params[name][index] = original - h
    down = loss_fn(params)
    params[name][index] = original
    return (up - down) / (2 * h)


def relative_error(analytic: float, numeric: float) -> float:
    return abs(analytic - numeric) / max(1e-8, abs(analytic) + abs(numeric))


# ---------------------------------------------------------------------------
# Plain-array losses.
# ---------------------------------------------------------------------------


def nll_loss(step_distributions, target_tokens) -> float:
    """Mean -log P(target) over steps; PAD positions are excluded."""
    if len(step_distributions) != len(target_tokens):
        raise LengthMismatch(
            f"{len(step_distributions)} distributions vs {len(target_tokens)} targets"
        )
    total = 0.0
    count = 0
    for dist, tgt in zip(step_distributions, target_tokens):
        if not 0 <= tgt < len(dist):
            raise InvalidTokenId(f"target id {tgt} outside distribution of size {len(dist)}")
        if tgt == PAD_ID:
            continue
        total += -math.log(dist[tgt])
        count += 1
    return total / count if count else 0.0


def consistency_loss(h_gen, e, eps: float = training.CONS_EPS) -> float:
    """Smoothed Euclidean distance: sqrt(||h_gen - e||^2 + eps) - sqrt(eps)."""
    hv, ev = values_of(h_gen), values_of(e)
    if hv.shape != ev.shape:
        raise DimMismatch(f"dims differ: {hv.shape} vs {ev.shape}")
    if eps <= 0:
        raise ValueError("eps must be > 0")
    diff = hv - ev
    return float(np.sqrt(diff @ diff + eps) - np.sqrt(eps))


# ---------------------------------------------------------------------------
# The per-vector numpy decoder: one state vector, a full softmax per step.
# ---------------------------------------------------------------------------


def initial_state(q, params):
    return np.tanh(params["w_init"] @ q)


def step(prev_token, h_prev, e, params):
    """One gated recurrent update, then the softmax of the evidence-fused logits."""
    w_x, b_x, u_zr = fused_gates(params)
    x_proj = params["embed"][prev_token][None, :] @ w_x.T
    h, *_ = gru_cell(x_proj, h_prev[None, :], b_x, u_zr, params["u_h"])
    logits = params["w_out"] @ np.concatenate([h[0], e]) + params["b_out"]
    expd = np.exp(logits - logits.max())
    return expd / expd.sum(), h[0]


def pooled_generation_repr(states, params):
    pooled = params["w_pool"] @ np.mean(states, axis=0)
    return pooled / np.linalg.norm(pooled)


def decode_greedy(q, e, params, max_len):
    """Tokens and h_gen of greedy decoding; the first (lowest-id) max of each softmax wins."""
    h = initial_state(q, params)
    tokens, states = [], []
    prev = BOS_ID
    for _ in range(max_len):
        dist, h = step(prev, h, e, params)
        prev = int(np.argmax(dist))
        tokens.append(prev)
        states.append(h)
        if prev == EOS_ID:
            break
    return tokens, pooled_generation_repr(states, params)


# ---------------------------------------------------------------------------
# The per-sample tape graphs the batched training path replaced.
# ---------------------------------------------------------------------------


def evidence_tape(prep, embed, config):
    """Reference for the evidence node of a minibatch: one sample's graph.

    Encodes the prepared sample's question and chunks as one batch, then
    selects, weights and aggregates its evidence op by op. Returns (q, e).
    """
    ids, lengths = np.concatenate(prep.token_ids), [len(ids) for ids in prep.token_ids]
    rows = l2_normalize_rows(segment_mean(gather_rows(embed, ids), lengths))
    q = row(rows, 0)
    n = len(prep.texts)
    index = EvidenceIndex(range(n), prep.texts, rows.value[1:])
    k = n if config.oracle_evidence else config.top_k
    picked = [1 + r.chunk_id for r in filter_by_threshold(top_k(q.value, index, k), config.tau)]
    if not picked:
        raise EmptyScores(f"sample {prep.sample.id}: threshold {config.tau} retained nothing")
    d = gather_rows(rows, picked)
    alphas = softmax(scale(matvec(d, q), config.beta))
    if not config.differentiable_weights:
        alphas = detach(alphas)
    return q, vecmat(alphas, d)


def per_chunk_evidence(sample, vocab, embed, config):
    """Reference for the batched encode: one tape subgraph per chunk, summed one by one."""

    def encode(text):
        ids = vocab.encode(text)
        rows = gather_rows(embed, ids)
        pooled = scale(vecmat(ad.const(np.ones(len(ids))), rows), 1.0 / len(ids))
        return l2_normalize(pooled)

    q = encode(sample.question)
    chunks = sample_chunks(sample, config)
    encoded = [encode(text) for _, text in chunks]
    texts = [text for _, text in chunks]
    index = EvidenceIndex(range(len(chunks)), texts, np.stack([d.value for d in encoded]))
    k = len(chunks) if config.oracle_evidence else config.top_k
    picked = [r.chunk_id for r in filter_by_threshold(top_k(q.value, index, k), config.tau)]
    scores = [dot(q, encoded[i]) for i in picked]
    m = max(float(s.value) for s in scores)
    weights = [exp(scale(sub(s, ad.const(m)), config.beta)) for s in scores]
    total = weights[0]
    for w in weights[1:]:
        total = add(total, w)
    alphas = [mul(w, reciprocal(total)) for w in weights]
    if not config.differentiable_weights:
        alphas = [detach(a) for a in alphas]
    e = mul(alphas[0], encoded[picked[0]])
    for a, i in zip(alphas[1:], picked[1:]):
        e = add(e, mul(a, encoded[i]))
    return q, e


def per_sample_loss_tape(sample, vocab, tensors, config):
    """Reference for the batched decoder op: the per-sample, per-op loss graph it replaced."""

    def gru_step(x, h, t):
        z = sigmoid(add(add(matvec(t["w_z"], x), matvec(t["u_z"], h)), t["b_z"]))
        r = sigmoid(add(add(matvec(t["w_r"], x), matvec(t["u_r"], h)), t["b_r"]))
        cand = tanh(add(add(matvec(t["w_h"], x), matvec(t["u_h"], mul(r, h))), t["b_h"]))
        one = ad.const(np.ones_like(h.value))
        return add(mul(sub(one, z), h), mul(z, cand))

    embed = tensors["enc_embed"]
    if config.freeze_encoder:
        embed = detach(embed)
    q, e = evidence_tape(training._prepare(sample, vocab, config), embed, config)
    answer_ids = vocab.encode(sample.answer)
    inputs = [BOS_ID] + answer_ids
    targets = answer_ids + [EOS_ID]
    h = tanh(matvec(tensors["w_init"], q))
    nll_terms = []
    state_sum = None
    for inp, tgt in zip(inputs, targets):
        h = gru_step(row(tensors["embed"], inp), h, tensors)
        logits = add(matvec(tensors["w_out"], concat(h, e)), tensors["b_out"])
        nll_terms.append(scale(element(log_softmax(logits), tgt), -1.0))
        state_sum = h if state_sum is None else add(state_sum, h)
    l_nll = nll_terms[0]
    for term in nll_terms[1:]:
        l_nll = add(l_nll, term)
    l_nll = scale(l_nll, 1.0 / len(nll_terms))
    h_gen = l2_normalize(matvec(tensors["w_pool"], scale(state_sum, 1.0 / len(targets))))
    diff = sub(h_gen, e)
    l_cons = sub(
        sqrt(add(dot(diff, diff), ad.const(training.CONS_EPS))),
        ad.const(math.sqrt(training.CONS_EPS)),
    )
    return l_nll, l_cons, add(l_nll, scale(l_cons, config.lambda_))


# ---------------------------------------------------------------------------
# The per-sample evaluation that batched evaluation replaced: one index, one
# ranking, one softmax and one one-row greedy decode per sample.
# ---------------------------------------------------------------------------


def rank(q, index, k):
    """One query's exact top-k (chunk id, score) pairs: one einsum over every row, then
    a partition and a stable sort of the candidates at or above the k-th score."""
    qn = np.linalg.norm(q)
    scores = np.zeros(len(index)) if qn < ZERO_NORM_EPS else np.einsum("nd,d->n", index.matrix, q / qn)
    neg = -scores
    kth = min(k, len(index)) - 1
    candidates = (neg <= np.partition(neg, kth)[kth]).nonzero()[0]
    order = candidates[neg[candidates].argsort(kind="stable")][:k]
    return [(int(index.ids[i]), float(scores[i])) for i in order]


def weigh(scores, rows, beta):
    """Alphas exp(x - max) / sum of one sample's kept scores, and e summed term by term."""
    x = beta * np.array(scores, dtype=np.float64)
    expd = np.exp(x - x.max())
    alphas = (expd / expd.sum()).tolist()
    e = None
    for alpha, row in zip(alphas, rows):
        e = alpha * row if e is None else e + alpha * row
    return alphas, e


def decode_row(q, e, params, max_len):
    """Greedy decoding of one row on (1, ·) rows: the bits decode_rows must give every row."""
    w_x, b_x, u_zr = fused_gates(params)
    h = decoder_initial_state(q[None, :], params)
    tokens, states, tok = [], [], BOS_ID
    for _ in range(max_len):
        h, *_ = gru_cell(params["embed"][tok][None, :] @ w_x.T, h, b_x, u_zr, params["u_h"])
        logits, _ = output_logits(h, e[None, :], params)
        tok = int(np.argmax(logits[0]))
        tokens.append(tok)
        states.append(h[0])
        if tok == EOS_ID:
            break
    h_gen, _ = generation_repr(np.mean(states, axis=0)[None, :], params)
    return tokens, h_gen[0]


def evaluate(dataset, ckpt, config=None):
    """The per-sample evaluate loop; its report must match evaluate's byte for byte."""
    config = config if config is not None else ckpt.config
    vocab = ckpt.vocab
    preps = training._prepare_samples(dataset, vocab, config, answer=False)
    records = []
    for prep in preps:
        rows = encode_all(ckpt.params["enc_embed"], prep.token_ids)
        index = EvidenceIndex(range(len(prep.texts)), prep.texts, rows[1:])
        k = len(index) if config.oracle_evidence else config.top_k
        kept = [(c, s) for c, s in rank(rows[0], index, k) if s >= config.tau]
        pred, retrieved, consistency, rate = "", [], None, None
        if kept:
            alphas, e = weigh([s for _, s in kept], [index.matrix[c] for c, _ in kept], config.beta)
            tokens, h_gen = decode_row(rows[0], e, ckpt.params, config.max_len)
            pred = vocab.decode(tokens)
            consistency = float(np.linalg.norm(h_gen - e))
            retained = [prep.token_ids[1 + c] for c, _ in kept]
            rate = evaluation._support_rate(tokens, vocab.n_content, retained)
            retrieved = [
                {"chunk_id": c, "title": prep.titles[c], "score": s, "alpha": a}
                for (c, s), a in zip(kept, alphas)
            ]
        answer = prep.sample.answer
        records.append(
            {
                "id": prep.sample.id,
                "retrieval_failure": not kept,
                "retrieved": retrieved,
                "generated": pred,
                "em": exact_match(pred, answer),
                "f1": token_f1(pred, answer),
                "bleu": bleu([pred], [answer]),
                "rouge_l": rouge_l(pred, answer),
                "consistency": consistency,
                "support_rate": rate,
            }
        )
    n = len(records)
    means = [100 * (sum(r[key] for r in records) / n) for key in ("em", "f1", "bleu", "rouge_l")]
    consistencies = [r["consistency"] for r in records if r["consistency"] is not None]
    rates = [r["support_rate"] for r in records if r["support_rate"] is not None]
    return evaluation.EvalReport(
        metrics=MetricReport(*means, n_samples=n),
        config=config.as_dict(),
        checkpoint_fingerprint=evaluation.checkpoint_fingerprint(ckpt),
        samples=records,
        n_failures=sum(r["retrieval_failure"] for r in records),
        mean_consistency=float(np.mean(consistencies)) if consistencies else None,
        mean_support_rate=float(np.mean(rates)) if rates else None,
    )
