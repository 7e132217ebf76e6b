"""Joint training of the encoder and decoder.

The objective combines teacher-forced negative log-likelihood with the
consistency penalty ||h_gen - e||_2 (smoothed at the origin), weighted
by lambda. A minibatch's tape has two ops, each with a hand-derived
backward: the evidence node, which encodes _prepare_samples's rows with
encode_rows and then takes evaluate's steps (_select, then weigh), so the
tape's e is retrieve's e bit for bit, and decoder.decoder_losses.
Gradients are checked against central finite differences.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import autodiff as ad
from .aggregation import weigh
from .data import QASample, evidence_texts
from .decoder import decoder_losses, decoder_shapes, init_decoder_params
from .encoder import EncoderParams, encode_all, encode_rows, init_encoder_params
from .errors import CheckpointError, EmptyInput, EmptyScores, NonFiniteLoss
from .index import score_samples, select_evidence
from .serialization import read_container, write_container
from .vocab import Vocabulary

CHECKPOINT_FORMAT_VERSION = 1
CONS_EPS = 1e-12


@dataclass
class LossBreakdown:
    l_nll: float
    l_cons: float
    lambda_: float

    @property
    def l_joint(self) -> float:
        return self.l_nll + self.lambda_ * self.l_cons

    def as_dict(self) -> dict:
        return {
            "l_nll": self.l_nll,
            "l_cons": self.l_cons,
            "lambda": self.lambda_,
            "l_joint": self.l_joint,
        }


# Lower bounds of the integer fields, and of lambda_ and beta.
_MINIMUMS = {
    "seed": 0, "dim": 1, "hidden": 1, "epochs": 0, "batch_size": 1, "top_k": 1,
    "max_len": 1, "hash_buckets": 1, "lambda_": 0, "beta": 0,
}
_KINDS = {"bool": "a bool", "int": "an int", "float": "a finite number"}


def _is_finite(x) -> bool:
    try:
        return math.isfinite(x)
    except OverflowError:  # an int too large for a float
        return False


@dataclass
class TrainConfig:
    seed: int = 0
    dim: int = 64
    hidden: int = 64
    learning_rate: float = 1e-3
    epochs: int = 100
    batch_size: int = 8
    lambda_: float = 0.1
    beta: float = 1.0
    top_k: int = 5
    tau: float = -1.0
    max_len: int = 32
    hash_buckets: int = 64
    freeze_encoder: bool = False
    differentiable_weights: bool = False
    oracle_evidence: bool = False
    include_title: bool = True

    def validate(self) -> None:
        """Check the type and range of every field.

        Integer fields take an int (not a bool), float fields a finite int or
        float, boolean fields a bool; a wrong type raises TypeError and a value
        out of range ValueError, each naming the field.
        """
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "bool":
                ok = isinstance(value, bool)
            else:
                ok = isinstance(value, (int, float)) and not isinstance(value, bool)
                ok = ok and (isinstance(value, int) if f.type == "int" else _is_finite(value))
            if not ok:
                raise TypeError(f"{f.name} must be {_KINDS[f.type]}, got {value!r}")
        for name, low in _MINIMUMS.items():
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)!r}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate!r}")

    def as_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        if not isinstance(d, dict):
            raise TypeError(f"config must be a JSON object, got {d!r}")
        # Checkpoints written before the ignored grad_check flag was removed
        # still carry it in their stored config.
        return cls(**{k: v for k, v in d.items() if k != "grad_check"})


@dataclass
class Checkpoint:
    config: TrainConfig
    vocab: Vocabulary
    params: dict[str, np.ndarray]  # "enc_embed" plus decoder tensors
    log: list[LossBreakdown] = field(default_factory=list)

    @property
    def encoder(self) -> EncoderParams:
        return EncoderParams(embedding=self.params["enc_embed"])


def init_params(vocab_size: int, dim: int, hidden: int, seed: int) -> dict[str, np.ndarray]:
    """Seed-reproducible parameter set: encoder from seed, decoder from seed + 1."""
    enc = init_encoder_params(vocab_size, dim=dim, seed=seed)
    return {"enc_embed": enc.embedding, **init_decoder_params(vocab_size, dim, hidden, seed + 1)}


# ---------------------------------------------------------------------------
# Tape forward: encode -> retrieval -> weights -> aggregate -> teacher-forced decode.
# ---------------------------------------------------------------------------


def sample_chunks(sample: QASample, config: TrainConfig) -> list[tuple[str, str]]:
    """The (title, text) chunks a sample retrieves from, in training and evaluation alike.

    include_title decides the chunk text; oracle_evidence keeps only the
    gold (supporting-fact) chunks, which are then all retrieved, ranked
    and thresholded by tau like any others.
    """
    chunks = evidence_texts(sample, include_title=config.include_title)
    if config.oracle_evidence:
        gold = {t for t, _ in sample.supporting_facts}
        chunks = [(t, text) for t, text in chunks if t in gold]
    if not chunks:
        raise EmptyScores(f"sample {sample.id}: no evidence chunks to retrieve from")
    return chunks


@dataclass
class _Prepared:
    """Samples tokenized and laid out in one pass: what the tape and evaluate read of them.

    token_ids holds one read-only id array per distinct question or chunk text, in the
    order the samples first use them; slots[b] holds the rows of sample b's question,
    then of its chunks, and titles[b] those chunks' titles, in sample_chunks order.
    """

    samples: list[QASample]
    token_ids: list[np.ndarray]
    slots: list[list[int]]
    titles: list[list[str]]
    answer_ids: list[list[int]] | None  # None when prepared without the answers
    # The (2, B, D) q and e, set by _prepare_dataset when a frozen encoder fixes them.
    frozen: np.ndarray | None = None

    def take(self, at) -> "_Prepared":
        """The samples at positions at, their rows renumbered in the order they first use
        them: the layout _prepare_samples gives those samples.

        From a frozen table only the samples, answer ids and frozen columns are taken:
        a frozen step reads nothing else.
        """
        samples = [self.samples[i] for i in at]
        answer_ids = None if self.answer_ids is None else [self.answer_ids[i] for i in at]
        if self.frozen is not None:
            return _Prepared(samples, [], [], [], answer_ids, self.frozen[:, at])
        row: dict[int, int] = {}
        slots = [[row.setdefault(r, len(row)) for r in self.slots[i]] for i in at]
        return _Prepared(
            samples, [self.token_ids[r] for r in row], slots,
            [self.titles[i] for i in at], answer_ids,
        )


def _prepare_samples(samples, vocab: Vocabulary, config: TrainConfig, answer=True) -> _Prepared:
    """Tokenize each sample's question, chunks and, unless answer is False, answer, each
    distinct text once, and give each distinct question or chunk text one row.

    The id arrays are shared between samples and read-only. A _Prepared is returned as is.
    """
    if isinstance(samples, _Prepared):
        return samples
    cache: dict[str, np.ndarray] = {}
    row: dict[str, int] = {}  # a question or chunk text keeps the row it first took

    def token_ids(text: str) -> np.ndarray:
        ids = cache.get(text)
        if ids is None:
            ids = cache[text] = np.array(vocab.encode(text), dtype=np.intp)
            ids.flags.writeable = False
        return ids

    samples, slots, titles, answers = list(samples), [], [], []
    for s in samples:
        if not token_ids(s.question).size:
            raise EmptyInput(f"sample {s.id}: empty question after tokenization")
        chunks = sample_chunks(s, config)
        for title, text in chunks:
            if not token_ids(text).size:
                raise EmptyInput(f"sample {s.id}: chunk {title!r} tokenized to nothing")
        slots.append([row.setdefault(t, len(row)) for t in (s.question, *(c for _, c in chunks))])
        titles.append([title for title, _ in chunks])
        if answer:
            answers.append(token_ids(s.answer).tolist())
            if not answers[-1]:
                raise EmptyInput(f"sample {s.id}: empty answer after tokenization")
    return _Prepared(samples, [cache[t] for t in row], slots, titles, answers if answer else None)


def _select(scored, slots, config: TrainConfig):
    """select_evidence on score_samples(rows, slots) at config's depth and threshold: each
    sample's kept (positions, scores), and over the samples that kept any, for weighing:
    their question rows, kept chunk rows, counts and scores, sample after sample."""
    kept = select_evidence(scored, None if config.oracle_evidence else config.top_k, config.tau)
    live = [(at, positions, scores) for at, (positions, scores) in zip(slots, kept) if positions]
    picked = [at[1 + i] for at, positions, _ in live for i in positions]
    counts = [len(positions) for _, positions, _ in live]
    return kept, ([at[0] for at, *_ in live], picked, counts, [s for *_, ss in live for s in ss])


def _weighed(prepared: _Prepared, rows: np.ndarray, config: TrainConfig):
    """evaluate's selection and weighing of prepared's encoded rows: the positions in rows
    of each sample's question and kept chunks, each sample's kept count, the alphas and
    the aggregates e (B, D). A sample that keeps nothing raises EmptyScores."""
    slots = prepared.slots
    kept, (q_at, picked, counts, scores) = _select(score_samples(rows, slots), slots, config)
    for sample, (positions, _) in zip(prepared.samples, kept):
        if not positions:
            raise EmptyScores(f"sample {sample.id}: threshold {config.tau} retained nothing")
    alpha, e = weigh(scores, counts, config.beta, rows[picked])
    return q_at, picked, counts, alpha, e


def _evidence(prepared: _Prepared, embed: ad.Tensor, config: TrainConfig) -> ad.Tensor:
    """A minibatch's query rows q and evidence aggregates e, stacked (2, B, D), as one
    tape node whose parent is the encoder's table.

    The forward encodes each distinct question and chunk text once, then
    selects and weighs as evaluate does. The backward is derived by hand:
    e_b = sum_j alpha_j d_j back to q and the picked rows d (through alpha
    only with differentiable weights, taking the softmax's gradient once for
    both), then the row gathers, the L2 normalization, the mean pool and the
    table-row gather.
    """
    token_ids = prepared.token_ids
    ids, lengths = np.concatenate(token_ids), [len(t) for t in token_ids]
    rows, norms = encode_rows(embed.value, ids, lengths)
    q_at, picked, counts, alpha, e = _weighed(prepared, rows, config)
    q, d = rows[q_at], rows[picked]
    seg = np.repeat(np.arange(len(counts)), counts)  # the sample of each picked row
    starts = np.cumsum(counts) - counts

    def backward(g):
        g_q, g_e = g
        grad_d = alpha[:, None] * g_e[seg]
        if config.differentiable_weights:
            # beta * dL/dz of the softmax within each sample's rows.
            d_alpha = np.einsum("ij,ij->i", g_e[seg], d)
            d_alpha -= np.add.reduceat(alpha * d_alpha, starts)[seg]
            d_scores = config.beta * alpha * d_alpha
            grad_d += d_scores[:, None] * q[seg]
            g_q = g_q + np.add.reduceat(d_scores[:, None] * d, starts, axis=0)
        g_rows = _scatter_rows(rows.shape, q_at, g_q) + _scatter_rows(rows.shape, picked, grad_d)
        g_pooled = (g_rows - rows * np.sum(g_rows * rows, axis=1, keepdims=True)) / norms
        g_tokens = np.repeat(g_pooled / np.asarray(lengths, dtype=np.float64)[:, None], lengths, axis=0)
        return (_scatter_rows(embed.value.shape, ids, g_tokens),)

    return ad.Tensor(np.stack([q, e]), parents=(embed,), backward=backward)


def _scatter_rows(shape, at, g) -> np.ndarray:
    """Zeros of shape with row g[i] added into row at[i], in order: the backward of a
    row gather. np.add.at on the flattened table is several times faster than on
    rows, and adds the same terms in the same order."""
    out = np.zeros(shape)
    flat = (np.asarray(at, dtype=np.intp)[:, None] * shape[1] + np.arange(shape[1])).reshape(-1)
    np.add.at(out.reshape(-1), flat, g.reshape(-1))
    return out


def _loss_tape(prepared: _Prepared, tensors: dict[str, ad.Tensor], config) -> ad.Tensor:
    """Build the loss graph of a minibatch; its root is the decoder node's
    (2, B) per-sample [l_nll; l_cons].

    Its q and e are a constant when they are fixed, and the evidence node otherwise.
    """
    if prepared.frozen is not None:
        qe = ad.const(prepared.frozen)
    else:
        qe = _evidence(prepared, tensors["enc_embed"], config)
    return decoder_losses(tensors, qe, prepared.answer_ids, CONS_EPS)


def _wrap_params(params: dict[str, np.ndarray], freeze_encoder=False) -> dict[str, ad.Tensor]:
    """Tape leaves for the parameters; a frozen encoder's table is a constant."""
    return {
        name: ad.const(arr) if name == "enc_embed" and freeze_encoder else ad.param(arr)
        for name, arr in params.items()
    }


def _breakdowns(per_sample: ad.Tensor, lambda_: float) -> list[LossBreakdown]:
    rows = per_sample.value.T.tolist()
    return [LossBreakdown(l_nll=n, l_cons=c, lambda_=lambda_) for n, c in rows]


def joint_loss(samples, vocab: Vocabulary, params: dict[str, np.ndarray], config: TrainConfig):
    """Loss breakdown of one sample, or the list of breakdowns of a list of samples."""
    one = isinstance(samples, QASample)
    batch = _prepare_samples([samples] if one else samples, vocab, config)
    per_sample = _loss_tape(batch, _wrap_params(params, config.freeze_encoder), config)
    breakdowns = _breakdowns(per_sample, config.lambda_)
    return breakdowns[0] if one else breakdowns


def joint_loss_and_grads(
    samples,
    vocab: Vocabulary,
    params: dict[str, np.ndarray],
    config: TrainConfig,
    component: str = "joint",
):
    """Loss breakdown plus gradients of the chosen component (nll/cons/joint).

    samples is one sample, or a list of them (a minibatch): then the
    breakdowns come per sample and the gradients are those of the batch
    mean. A frozen encoder's enc_embed gets no gradient. train() passes
    minibatches taken from the samples it prepared once; any other is prepared here.
    """
    one = isinstance(samples, QASample)
    batch = _prepare_samples([samples] if one else samples, vocab, config)
    tensors = _wrap_params(params, config.freeze_encoder)
    per_sample = _loss_tape(batch, tensors, config)
    # A component is the batch mean of w . [l_nll; l_cons]: each column's seed is w / B.
    w = {"nll": (1.0, 0.0), "cons": (0.0, 1.0), "joint": (1.0, config.lambda_)}[component]
    n = len(batch.samples)
    ad.backward(per_sample, np.outer(w, np.full(n, 1.0 / n)))
    grads = {
        name: (t.grad if t.grad is not None else np.zeros_like(t.value))
        for name, t in tensors.items()
        if t.requires_grad
    }
    breakdowns = _breakdowns(per_sample, config.lambda_)
    return (breakdowns[0] if one else breakdowns), grads


# ---------------------------------------------------------------------------
# Optimization.
# ---------------------------------------------------------------------------


class Adam:
    """Adam with the conventional defaults (b1 0.9, b2 0.999).

    The update runs in place, in preallocated buffers, with the operations
    of m = b1 m + (1 - b1) g; v = b2 v + (1 - b2) g g;
    p -= lr (m / c1) / (sqrt(v / c2) + eps) in that order, so its bits are
    those of the expression.
    """

    def __init__(self, lr: float, b1: float = 0.9, b2: float = 0.999, eps: float = 1e-8):
        self.lr, self.b1, self.b2, self.eps = lr, b1, b2, eps
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self._scratch: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self.t = 0

    def update(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        """Step every parameter that has a gradient; the others are left untouched."""
        self.t += 1
        c1, c2 = 1 - self.b1**self.t, 1 - self.b2**self.t
        for name in sorted(grads):
            g = grads[name]
            if name not in self.m:
                self.m[name] = np.zeros_like(g)
                self.v[name] = np.zeros_like(g)
                self._scratch[name] = (np.empty_like(g), np.empty_like(g))
            m, v = self.m[name], self.v[name]
            step, denom = self._scratch[name]
            m *= self.b1
            m += np.multiply(1 - self.b1, g, out=step)
            np.multiply(1 - self.b2, g, out=step)
            v *= self.b2
            v += np.multiply(step, g, out=step)
            np.divide(v, c2, out=denom)
            np.sqrt(denom, out=denom)
            denom += self.eps
            np.divide(m, c1, out=step)
            step *= self.lr
            step /= denom
            params[name] -= step


def _dataset_texts(dataset: list[QASample]) -> list[str]:
    texts = []
    for s in dataset:
        texts.append(s.question)
        texts.append(s.answer)
        for title, text in evidence_texts(s):
            texts.append(text)
    return texts


def _mean_breakdown(items: list[LossBreakdown], lambda_: float) -> LossBreakdown:
    return LossBreakdown(
        l_nll=float(np.mean([b.l_nll for b in items])),
        l_cons=float(np.mean([b.l_cons for b in items])),
        lambda_=lambda_,
    )


def _prepare_dataset(dataset, vocab, params, config: TrainConfig) -> _Prepared:
    """Tokenize every sample once; with a frozen encoder, also fix its q and e.

    train() never passes a frozen enc_embed to Adam, so q and e are constants
    of each sample: each distinct text is encoded once, and the selection the
    evidence node runs records them from those rows, for every sample at once.
    """
    prepared = _prepare_samples(dataset, vocab, config)
    if config.freeze_encoder:
        rows = encode_all(params["enc_embed"], prepared.token_ids)
        q_at, _, _, _, e = _weighed(prepared, rows, config)
        prepared.frozen = np.stack([rows[q_at], e])
    return prepared


def train(
    dataset: list[QASample], config: TrainConfig, vocab: Vocabulary | None = None
) -> Checkpoint:
    """Deterministic Adam training; per-epoch mean losses are logged.

    Log entry 0 is the joint loss at initialization, before any update.
    """
    if not dataset:
        raise EmptyScores("training dataset is empty")
    config.validate()
    if vocab is None:
        vocab = Vocabulary.from_texts(_dataset_texts(dataset), hash_buckets=config.hash_buckets)
    params = init_params(vocab.size, config.dim, config.hidden, config.seed)
    opt = Adam(lr=config.learning_rate)
    rng = np.random.default_rng(config.seed)

    prepared = _prepare_dataset(dataset, vocab, params, config)
    n = len(dataset)
    batches = range(0, n, config.batch_size)
    initial, in_order = [], np.arange(n)
    for start in batches:
        batch = prepared.take(in_order[start : start + config.batch_size])
        initial += joint_loss(batch, vocab, params, config)
    log = [_mean_breakdown(initial, config.lambda_)]
    _check_finite(log[0], "initialization")

    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n)
        epoch_losses = []
        for start in batches:
            batch = prepared.take(order[start : start + config.batch_size])
            breakdowns, grads = joint_loss_and_grads(batch, vocab, params, config)
            for sample, breakdown in zip(batch.samples, breakdowns):
                _check_finite(breakdown, f"sample {sample.id} (epoch {epoch})")
            epoch_losses += breakdowns
            opt.update(params, grads)
        log.append(_mean_breakdown(epoch_losses, config.lambda_))
    return Checkpoint(config=config, vocab=vocab, params=params, log=log)


def _check_finite(breakdown: LossBreakdown, where: str) -> None:
    if not (math.isfinite(breakdown.l_nll) and math.isfinite(breakdown.l_cons)):
        raise NonFiniteLoss(f"non-finite loss at {where}: {breakdown.as_dict()}")


# ---------------------------------------------------------------------------
# Checkpoint persistence.
# ---------------------------------------------------------------------------


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    header = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "config": ckpt.config.as_dict(),
        "vocab": {"tokens": ckpt.vocab.tokens, "hash_buckets": ckpt.vocab.hash_buckets},
        "log": [b.as_dict() for b in ckpt.log],
    }
    write_container(path, "checkpoint", header, ckpt.params)


def load_checkpoint(path) -> Checkpoint:
    header, arrays = read_container(path, "checkpoint")
    try:
        config = TrainConfig.from_dict(header["config"])
        config.validate()
        vocab = Vocabulary(header["vocab"]["tokens"], header["vocab"]["hash_buckets"])
        log = [
            LossBreakdown(l_nll=b["l_nll"], l_cons=b["l_cons"], lambda_=b["lambda"])
            for b in header["log"]
        ]
    except (KeyError, TypeError, ValueError) as err:
        raise CheckpointError(f"{path}: malformed checkpoint header ({err!r})") from err
    shapes = decoder_shapes(vocab.size, config.dim, config.hidden)
    shapes["enc_embed"] = (vocab.size, config.dim)
    if {name: arr.shape for name, arr in arrays.items()} != shapes:
        raise CheckpointError(f"{path}: arrays do not fit the stored config and vocabulary")
    return Checkpoint(config=config, vocab=vocab, params=arrays, log=log)
