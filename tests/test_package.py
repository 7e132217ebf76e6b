import alignrag

# The public API. Its size is a design measure: a name added here should
# replace more than it adds.
PUBLIC_NAMES = [
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
    "consistency_loss",
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
    "nll_loss",
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


def test_public_names_are_pinned():
    assert len(PUBLIC_NAMES) == 46
    assert sorted(alignrag.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in alignrag.__all__:
        assert getattr(alignrag, name) is not None, name
