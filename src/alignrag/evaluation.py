"""End-to-end evaluation and sensitivity sweeps.

retrieve() is the retrieval path of one query: top-k -> threshold ->
weight -> aggregate. evaluate() runs encode -> rank -> weight -> greedy
decode -> metrics and emits a fully attributed, deterministic report.
Each call encodes every distinct text and scores every sample's chunks
once; ranking, weighting and decoding then run over all its samples at
once, with the bits of retrieve and decode_greedy on each alone, and each
distinct (prediction, answer) pair is scored once per call. The two
sweeps vary exactly one parameter (beta, or top-k) and rerun
select -> weigh -> decode -> metrics per grid point.
"""
from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .aggregation import EvidenceAggregate, aggregate, normalize_weights, weigh
from .data import QASample
from .decoder import decode_rows
from .encoder import encode_all
from .errors import EmptyScores, InvalidGrid
from .index import EvidenceIndex, RetrievalResult, filter_by_threshold, score_samples, top_k
from .metrics import MetricReport, mean_report, sample_scores
from .training import Checkpoint, TrainConfig, _layout, _prepare_samples, _select
from .vocab import N_RESERVED

REPORT_SCHEMA_VERSION = 1


@dataclass
class EvalReport:
    metrics: MetricReport
    config: dict
    checkpoint_fingerprint: str
    samples: list[dict]
    n_failures: int
    mean_consistency: float
    mean_support_rate: float

    def as_dict(self) -> dict:
        own = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}  # no copies
        return {"schema_version": REPORT_SCHEMA_VERSION, **own, "metrics": self.metrics.as_dict()}


@dataclass
class SweepResult:
    param_name: str
    grid: list[float]
    reports: list[EvalReport]


def checkpoint_fingerprint(ckpt: Checkpoint) -> str:
    h = hashlib.sha256()
    for name in sorted(ckpt.params):
        h.update(name.encode())
        h.update(np.ascontiguousarray(ckpt.params[name]))
    return h.hexdigest()[:16]


def _support_rate(token_ids: list[int], n_content: int, retained_ids) -> float | None:
    """Fraction of the generated content-token ids (neither reserved nor a hash bucket,
    so below N_RESERVED + n_content) found in the token ids of a retained chunk:
    retained_ids holds one container of ids per chunk (evaluate passes frozensets)."""
    content = [t for t in token_ids if N_RESERVED <= t < N_RESERVED + n_content]
    if not content:
        return None
    return sum(1 for t in content if any(t in ids for ids in retained_ids)) / len(content)


def retrieve(
    q, index: EvidenceIndex, k: int, tau: float, beta: float
) -> tuple[list[RetrievalResult], EvidenceAggregate | None]:
    """Top-k results kept by the threshold tau, and their beta-weighted aggregate.

    The aggregate carries the weights as source_weights. When tau keeps
    nothing, the result is ([], None).
    """
    results = filter_by_threshold(top_k(q, index, k), tau)
    if not results:
        return [], None
    weights = normalize_weights([(r.chunk_id, r.score) for r in results], beta)
    return results, aggregate(weights, index)


def _evaluate_each(dataset: list[QASample], ckpt: Checkpoint, config, overrides: list[dict]):
    """One report per override of config (default: the checkpoint's): select -> weigh ->
    greedy decode -> metrics, each over all samples at once. Each distinct text is
    tokenized and encoded, each sample's chunks scored, and each distinct (prediction,
    answer) pair's metrics computed, once for all of the reports."""
    if not dataset:
        raise EmptyScores("evaluation dataset is empty")
    base = config if config is not None else ckpt.config
    preps = _prepare_samples(dataset, ckpt.vocab, base, answer=False)
    ids, slots = _layout(preps)
    rows = encode_all(ckpt.params["enc_embed"], ids)
    scored = score_samples(rows, slots)
    # Each retained chunk's token-id set, built once per call: membership is then O(1).
    id_set = functools.cache(lambda row: frozenset(ids[row].tolist()))
    # Each distinct (prediction, answer) pair's scores, also once per call; every record
    # spreads them into a dict of its own.
    scores_of = functools.cache(sample_scores)
    fingerprint, reports = checkpoint_fingerprint(ckpt), []
    for config in (dataclasses.replace(base, **o) for o in overrides):
        kept, (q_at, picked, counts, kept_scores) = _select(scored, slots, config)
        decoded = iter(())  # (tokens, h_gen, e, alphas) of each sample tau kept evidence for
        if counts:
            alphas, e = weigh(kept_scores, counts, config.beta, rows[picked])
            tokens, h_gen = decode_rows(rows[q_at], e, ckpt.params, config.max_len)
            decoded = zip(tokens, h_gen, e, np.split(alphas, np.cumsum(counts)[:-1]))
        records = []
        for prep, at, (positions, scores) in zip(preps, slots, kept):
            # A retrieval failure generates "", which is scored like any prediction.
            pred, retrieved, consistency, rate = "", [], None, None
            if positions:
                token_ids, h, e_row, weights = next(decoded)
                pred = ckpt.vocab.decode(token_ids)
                consistency = float(np.linalg.norm(h - e_row))
                retained = [id_set(at[1 + i]) for i in positions]
                rate = _support_rate(token_ids, ckpt.vocab.n_content, retained)
                retrieved = [
                    {"chunk_id": i, "title": prep.titles[i], "score": s, "alpha": a}
                    for i, s, a in zip(positions, scores, weights.tolist())
                ]
            records.append(
                {
                    "id": prep.sample.id,
                    "retrieval_failure": not positions,
                    "retrieved": retrieved,
                    "generated": pred,
                    **scores_of(pred, prep.sample.answer),
                    "consistency": consistency,
                    "support_rate": rate,
                }
            )
        consistencies = [r["consistency"] for r in records if r["consistency"] is not None]
        rates = [r["support_rate"] for r in records if r["support_rate"] is not None]
        reports.append(
            EvalReport(
                metrics=mean_report(records),
                config=config.as_dict(),
                checkpoint_fingerprint=fingerprint,
                samples=records,
                n_failures=sum(r["retrieval_failure"] for r in records),
                mean_consistency=float(np.mean(consistencies)) if consistencies else None,
                mean_support_rate=float(np.mean(rates)) if rates else None,
            )
        )
    return reports


def evaluate(
    dataset: list[QASample], ckpt: Checkpoint, config: TrainConfig | None = None
) -> EvalReport:
    """Pure function of (checkpoint, dataset, config); reports are byte-stable."""
    return _evaluate_each(dataset, ckpt, config, [{}])[0]


def _check_grid(grid, name: str, minimum=None, integer=False) -> list[float]:
    try:
        grid = [float(v) for v in grid]
    except (TypeError, ValueError) as err:
        raise InvalidGrid(f"{name} grid holds a non-number ({err})") from err
    if not grid:
        raise InvalidGrid(f"{name} grid is empty")
    if not all(math.isfinite(v) for v in grid):
        raise InvalidGrid(f"{name} grid values must be finite")
    if integer and not all(v.is_integer() for v in grid):
        raise InvalidGrid(f"{name} grid values must be integers")
    if any(b >= a for a, b in zip(grid[1:], grid)):
        raise InvalidGrid(f"{name} grid must be strictly increasing")
    if minimum is not None and grid[0] < minimum:
        raise InvalidGrid(f"{name} grid minimum is {minimum}")
    return grid


def sweep_alignment_weight(
    dataset: list[QASample],
    ckpt: Checkpoint,
    beta_grid,
    config: TrainConfig | None = None,
) -> SweepResult:
    """evaluate() at each beta, everything else fixed; samples are prepared once."""
    grid = _check_grid(beta_grid, "beta", minimum=0.0)
    if len(grid) < 3 or grid[0] != 0.0:
        raise InvalidGrid("beta grid needs >= 3 strictly increasing values starting at 0")
    reports = _evaluate_each(dataset, ckpt, config, [{"beta": b} for b in grid])
    return SweepResult(param_name="beta", grid=grid, reports=reports)


def sweep_top_k(
    dataset: list[QASample],
    ckpt: Checkpoint,
    k_grid,
    config: TrainConfig | None = None,
) -> SweepResult:
    """evaluate() at each retrieval depth k, everything else fixed; samples are prepared once."""
    grid = _check_grid(k_grid, "top_k", minimum=1, integer=True)
    reports = _evaluate_each(dataset, ckpt, config, [{"top_k": int(k)} for k in grid])
    return SweepResult(param_name="top_k", grid=grid, reports=reports)


# ---------------------------------------------------------------------------
# Report serialization: JSON, flat CSV, and a minimal SVG line chart.
# ---------------------------------------------------------------------------


def report_to_json(report: EvalReport) -> str:
    return json.dumps(report.as_dict(), sort_keys=True, indent=2) + "\n"


def sweep_to_json(sweep: SweepResult) -> str:
    doc = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "param": sweep.param_name,
        "grid": sweep.grid,
        "reports": [r.as_dict() for r in sweep.reports],
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def sweep_to_csv(sweep: SweepResult) -> str:
    lines = [f"{sweep.param_name},em,f1,bleu,rouge_l,mean_consistency"]
    for value, report in zip(sweep.grid, sweep.reports):
        m = report.metrics
        cons = "" if report.mean_consistency is None else f"{report.mean_consistency:.6f}"
        lines.append(
            f"{value:g},{m.em:.6f},{m.f1:.6f},{m.bleu:.6f},{m.rouge_l:.6f},{cons}"
        )
    return "\n".join(lines) + "\n"


def sweep_to_svg(sweep: SweepResult, width: int = 480, height: int = 320) -> str:
    """EM versus the swept parameter as a bare SVG polyline."""
    pad = 40
    xs = sweep.grid
    ys = [r.metrics.em for r in sweep.reports]
    x_span = (xs[-1] - xs[0]) or 1.0
    points = []
    for x, y in zip(xs, ys):
        px = pad + (x - xs[0]) / x_span * (width - 2 * pad)
        py = height - pad - (y / 100.0) * (height - 2 * pad)
        points.append(f"{px:.2f},{py:.2f}")
    labels = "".join(
        f'<text x="{pad + i * (width - 2 * pad) / max(1, len(xs) - 1):.2f}" '
        f'y="{height - pad + 16}" font-size="10" text-anchor="middle">{x:g}</text>'
        for i, x in enumerate(xs)
    )
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">'
        f'<rect width="{width}" height="{height}" fill="white"/>'
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" stroke="black"/>'
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>'
        f'<polyline fill="none" stroke="steelblue" stroke-width="2" points="{" ".join(points)}"/>'
        f"{labels}"
        f'<text x="{width / 2:.0f}" y="{height - 6}" font-size="11" text-anchor="middle">'
        f"{sweep.param_name}</text>"
        f'<text x="12" y="{height / 2:.0f}" font-size="11" text-anchor="middle" '
        f'transform="rotate(-90 12 {height / 2:.0f})">EM</text>'
        "</svg>\n"
    )
