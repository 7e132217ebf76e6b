import ast
import graphlib
import importlib
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


def test_public_names_are_pinned():
    assert len(PUBLIC_NAMES) == 44
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


def _imported(node) -> set[str]:
    """The alignrag modules an import statement names; "__init__" is the package itself."""
    if isinstance(node, ast.Import):
        paths = [a.name for a in node.names]
    elif node.module and (node.level or node.module != "alignrag"):
        paths = [("alignrag." if node.level else "") + node.module]
    else:  # from . import x or from alignrag import x: each x a module or a package name
        paths = [f"alignrag.{a.name}" for a in node.names]
    parts = [path.split(".") + [""] for path in paths]
    return {p[1] if p[1] in MODULES else "__init__" for p in parts if p[0] == "alignrag"}


def import_graph() -> dict[str, set[str]]:
    """alignrag module -> the alignrag modules it imports anywhere, function bodies included."""
    graph = {}
    for module in [*MODULES, "__init__"]:
        tree = ast.parse((PACKAGE_DIR / f"{module}.py").read_text())
        imports = [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
        graph[module] = set().union(*map(_imported, imports)) - {module}
    return graph


def test_module_imports_form_no_cycle():
    graph = import_graph()
    assert "encoder" in graph["decoder"]  # the parser sees relative imports
    try:
        list(graphlib.TopologicalSorter(graph).static_order())
    except graphlib.CycleError as err:
        pytest.fail(f"import cycle: {' imports '.join(reversed(err.args[1]))}")


def test_autodiff_imports_no_other_alignrag_module():
    assert import_graph()["autodiff"] == set()


def test_autodiff_holds_only_the_tape():
    from alignrag import autodiff

    defined = [n for n, v in vars(autodiff).items() if getattr(v, "__module__", None) == autodiff.__name__]
    assert sorted(defined) == ["Tensor", "backward", "const", "param"]


def test_encoder_is_plain_numpy():
    # The encoder's gradient is derived by hand in training's evidence node.
    assert "autodiff" not in import_graph()["encoder"]


def benchmark_layers() -> dict[str, list[str]]:
    """The benchmark's LAYERS: span name -> the "module:attribute[.method]" sites it wraps."""
    source = (Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py").read_text()
    [layers] = [
        node.value
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "LAYERS"
    ]
    return {
        ast.literal_eval(key): ast.literal_eval(value.elts[0])
        for key, value in zip(layers.keys, layers.values)
    }


def resolves(site: str) -> bool:
    module_name, path = site.split(":")
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        owner = getattr(owner, part, None)
    return callable(owner)


def test_every_benchmark_layer_wraps_a_name_that_resolves():
    # The benchmark skips a wrap target that is gone and reports its layer
    # as not measured, so a deleted or renamed library name fails here.
    layers = benchmark_layers()
    assert layers
    assert [name for name, sites in layers.items() if not any(map(resolves, sites))] == []
