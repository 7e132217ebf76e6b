import os
import subprocess
import sys
from pathlib import Path

import pytest

import alignrag

PACKAGE_DIR = Path(alignrag.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE_DIR.glob("*.py") if p.stem != "__init__")

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


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first_in_a_fresh_interpreter(module):
    # Whichever module is imported first must not meet a partly initialised
    # one through an import cycle.
    path = os.pathsep.join(filter(None, [str(PACKAGE_DIR.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", f"import alignrag.{module}"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
