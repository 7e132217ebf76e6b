"""Retrieval-augmented generation with coordinated semantic alignment
and explicit evidence constraints, at a scale where every stage is
testable against an independent oracle."""

from .aggregation import EvidenceAggregate, EvidenceWeights, aggregate, normalize_weights
from .data import QASample, SyntheticSpec, generate_synthetic, load_hotpotqa
from .decoder import GenerationTrace, decode_greedy, init_decoder_params
from .encoder import EncoderParams, SemanticVector, encode, init_encoder_params
from .evaluation import (
    EvalReport,
    SweepResult,
    evaluate,
    retrieve,
    sweep_alignment_weight,
    sweep_top_k,
)
from .index import (
    EvidenceIndex,
    RetrievalResult,
    build_index,
    filter_by_threshold,
    load_index,
    save_index,
    top_k,
)
from .metrics import (
    MetricReport,
    bleu,
    exact_match,
    normalize_answer,
    rouge_l,
    score_corpus,
    token_f1,
)
from .training import (
    Checkpoint,
    LossBreakdown,
    TrainConfig,
    joint_loss,
    load_checkpoint,
    save_checkpoint,
    train,
)
from .vocab import Vocabulary, tokenize

__version__ = "0.1.0"

__all__ = [
    "Checkpoint",
    "EncoderParams",
    "EvalReport",
    "EvidenceAggregate",
    "EvidenceIndex",
    "EvidenceWeights",
    "GenerationTrace",
    "LossBreakdown",
    "MetricReport",
    "QASample",
    "RetrievalResult",
    "SemanticVector",
    "SweepResult",
    "SyntheticSpec",
    "TrainConfig",
    "Vocabulary",
    "aggregate",
    "bleu",
    "build_index",
    "decode_greedy",
    "encode",
    "evaluate",
    "exact_match",
    "filter_by_threshold",
    "generate_synthetic",
    "init_decoder_params",
    "init_encoder_params",
    "joint_loss",
    "load_checkpoint",
    "load_hotpotqa",
    "load_index",
    "normalize_answer",
    "normalize_weights",
    "retrieve",
    "rouge_l",
    "save_checkpoint",
    "save_index",
    "score_corpus",
    "sweep_alignment_weight",
    "sweep_top_k",
    "token_f1",
    "tokenize",
    "top_k",
    "train",
]
