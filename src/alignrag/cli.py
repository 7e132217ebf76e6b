"""Command-line entry point.

Subcommands mirror the pipeline stages: index, query, train, generate,
eval, sweep. Resolution order for every setting is CLI flag > config
file > built-in default; generate, eval and sweep take their defaults
from the checkpoint's stored config. Each run writes its resolved
configuration next to its outputs. Stdout carries data, stderr carries
diagnostics.

Exit codes: 0 success, 2 I/O or schema error, 3 retrieval filter
emptied the result set, 4 non-finite training loss.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .data import load_hotpotqa, open_utf8, read_corpus
from .decoder import decode_greedy
from .encoder import encode, init_encoder_params
from .errors import AlignRagError, NonFiniteLoss, SchemaError
from .evaluation import (
    evaluate,
    report_to_json,
    retrieve,
    sweep_alignment_weight,
    sweep_to_csv,
    sweep_to_json,
    sweep_to_svg,
    sweep_top_k,
)
from .index import build_index, load_index, save_index
from .training import TrainConfig, load_checkpoint, save_checkpoint, train
from .vocab import Vocabulary

EXIT_OK = 0
EXIT_IO = 2
EXIT_EMPTY_FILTER = 3
EXIT_NONFINITE = 4

# Config file sections -> TrainConfig field names.
_SECTIONS = {
    "encoder": ("dim", "hidden", "hash_buckets"),
    "retrieval": ("top_k", "tau"),
    "training": (
        "seed",
        "learning_rate",
        "epochs",
        "batch_size",
        "lambda",
        "beta",
        "max_len",
        "freeze_encoder",
        "differentiable_weights",
    ),
    "eval": ("oracle_evidence", "include_title", "max_len", "beta"),
}


def resolve_config(
    config_path: str | None, overrides: dict, base: TrainConfig | None = None
) -> TrainConfig:
    """Merge defaults (or a base config), config file sections, and CLI flags."""
    values: dict = {}
    if config_path:
        with open_utf8(config_path) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise SchemaError(f"config file {config_path}: expected a JSON object")
        for section in doc:
            if section not in _SECTIONS:
                raise SchemaError(f"config file {config_path}: unknown section {section!r}")
        for section, fields in _SECTIONS.items():
            if not isinstance(doc.get(section, {}), dict):
                raise SchemaError(f"config section {section!r} is not a JSON object")
            for key, val in doc.get(section, {}).items():
                if key not in fields:
                    raise SchemaError(f"config section {section!r}: unknown key {key!r}")
                values["lambda_" if key == "lambda" else key] = val
    for key, val in overrides.items():
        if val is not None:
            values[key] = val
    defaults = dataclasses.asdict(base if base is not None else TrainConfig())
    config = TrainConfig(**{**defaults, **values})
    try:
        config.validate()
    except (TypeError, ValueError) as err:
        raise SchemaError(f"invalid settings: {err}") from err
    return config


def _write_resolved_config(out_path: str, config: TrainConfig) -> None:
    path = Path(str(out_path) + ".config.json")
    path.write_text(json.dumps(config.as_dict(), sort_keys=True, indent=2) + "\n")


def _overrides(args) -> dict:
    return {
        "seed": args.seed,
        "top_k": args.top_k,
        "beta": args.beta,
        "tau": args.tau,
        "lambda_": getattr(args, "lambda_", None),
        "max_len": args.max_len,
    }


def cmd_index(args) -> int:
    corpus = read_corpus(args.corpus)
    config = resolve_config(args.config, _overrides(args))
    vocab = Vocabulary.from_texts([t for _, t in corpus], hash_buckets=config.hash_buckets)
    params = init_encoder_params(vocab.size, dim=config.dim, seed=config.seed)
    index = build_index(corpus, vocab, params)
    save_index(args.out, index, vocab, params)
    _write_resolved_config(args.out, config)
    print(
        f"indexed {len(index)} chunks dim={index.dim} "
        f"fingerprint={params.fingerprint()}"
    )
    return EXIT_OK


def cmd_query(args) -> int:
    index, vocab, params = load_index(args.index)
    config = resolve_config(args.config, _overrides(args))
    q = encode(args.question, vocab, params)
    results, agg = retrieve(q, index, config.top_k, config.tau, config.beta)
    if agg is None:
        print(f"no results above tau={config.tau}", file=sys.stderr)
        return EXIT_EMPTY_FILTER
    alphas = dict(agg.source_weights.entries)
    if args.format == "json":
        rows = [
            {"rank": rank, "id": r.chunk_id, "score": r.score, "alpha": alphas[r.chunk_id]}
            for rank, r in enumerate(results, start=1)
        ]
        print(json.dumps(rows, sort_keys=True))
    else:
        print("rank\tid\tscore\talpha")
        for rank, r in enumerate(results, start=1):
            print(f"{rank}\t{r.chunk_id}\t{r.score:.6f}\t{alphas[r.chunk_id]:.6f}")
    return EXIT_OK


def cmd_train(args) -> int:
    dataset = load_hotpotqa(args.data)
    config = resolve_config(args.config, _overrides(args))
    ckpt = train(dataset, config)
    save_checkpoint(args.out, ckpt)
    _write_resolved_config(args.out, config)
    log_path = Path(str(args.out) + ".log.json")
    log_path.write_text(
        json.dumps([b.as_dict() for b in ckpt.log], sort_keys=True, indent=2) + "\n"
    )
    print(f"trained {config.epochs} epochs; final l_joint={ckpt.log[-1].l_joint:.6f}")
    return EXIT_OK


def cmd_generate(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    config = resolve_config(args.config, _overrides(args), base=ckpt.config)
    corpus = read_corpus(args.corpus)
    index = build_index(corpus, ckpt.vocab, ckpt.encoder)
    q = encode(args.question, ckpt.vocab, ckpt.encoder)
    results, agg = retrieve(q, index, config.top_k, config.tau, config.beta)
    if agg is None:
        print(f"no results above tau={config.tau}", file=sys.stderr)
        return EXIT_EMPTY_FILTER
    trace = decode_greedy(q, agg, ckpt.params, max_len=config.max_len)
    answer = ckpt.vocab.decode(trace.tokens)
    alphas = dict(agg.source_weights.entries)
    doc = {
        "question": args.question,
        "answer": answer,
        "evidence": [
            {"id": r.chunk_id, "score": r.score, "alpha": alphas[r.chunk_id]}
            for r in results
        ],
    }
    if args.format == "json":
        print(json.dumps(doc, sort_keys=True))
    else:
        print(answer)
        for ev in doc["evidence"]:
            print(f"  evidence {ev['id']}: score={ev['score']:.4f} alpha={ev['alpha']:.4f}")
    return EXIT_OK


def cmd_eval(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    dataset = load_hotpotqa(args.data)
    config = resolve_config(args.config, _overrides(args), base=ckpt.config)
    report = evaluate(dataset, ckpt, config)
    text = report_to_json(report)
    if args.out:
        Path(args.out).write_text(text)
        _write_resolved_config(args.out, config)
    m = report.metrics
    print(
        f"EM={m.em:.2f} F1={m.f1:.2f} BLEU={m.bleu:.2f} ROUGE-L={m.rouge_l:.2f} "
        f"n={m.n_samples} failures={report.n_failures}"
    )
    return EXIT_OK


def cmd_sweep(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    dataset = load_hotpotqa(args.data)
    config = resolve_config(args.config, _overrides(args), base=ckpt.config)
    grid = args.grid.split(",")
    if args.param == "beta":
        sweep = sweep_alignment_weight(dataset, ckpt, grid, config)
    elif args.param == "top_k":
        sweep = sweep_top_k(dataset, ckpt, grid, config)
    else:
        raise SchemaError(f"unknown sweep parameter {args.param!r}")
    out = Path(args.out)
    out.with_suffix(".json").write_text(sweep_to_json(sweep))
    out.with_suffix(".csv").write_text(sweep_to_csv(sweep))
    if args.svg:
        out.with_suffix(".svg").write_text(sweep_to_svg(sweep))
    _write_resolved_config(args.out, config)
    print(sweep_to_csv(sweep), end="")
    return EXIT_OK


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--top-k", dest="top_k", type=int, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--lambda", dest="lambda_", type=float, default=None)
    p.add_argument("--max-len", dest="max_len", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alignrag",
        description="Retrieval-augmented generation with alignment weighting and evidence constraints",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("index", help="encode a JSON-lines corpus into an index file")
    p.add_argument("corpus")
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("query", help="rank index entries against a question")
    p.add_argument("index")
    p.add_argument("question")
    _add_common(p)
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("train", help="train on a HotpotQA-format dataset")
    p.add_argument("data")
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("generate", help="answer a question against a corpus")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--question", required=True)
    _add_common(p)
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("data")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="sensitivity sweep over beta or top_k")
    p.add_argument("data")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--param", choices=("beta", "top_k"), required=True)
    p.add_argument("--grid", required=True, help="comma-separated grid values")
    p.add_argument("--out", required=True)
    p.add_argument("--svg", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NonFiniteLoss as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NONFINITE
    except (OSError, json.JSONDecodeError, AlignRagError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
