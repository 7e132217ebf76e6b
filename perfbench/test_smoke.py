"""The benchmark's own tests: every workload at toy size, plain and traced.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)
with open(os.path.join(HERE, "predictions.json")) as _fh:
    PREDICTIONS = json.load(_fh)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
COUNT_UNITS = ("count", "B", "ratio")


def _run(*args, cwd=ROOT):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)


def _smoke(trace: int, seed: int = 1):
    proc = _run("--workload", "all", "--smoke", "--seed", str(seed), "--seconds", "0.3", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def plain():
    return _smoke(trace=0)


@pytest.fixture(scope="module")
def traced_twice():
    return _smoke(trace=1), _smoke(trace=1)


def test_every_end_to_end_metric_is_printed_with_its_unit(plain):
    stdout, result = plain
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= len(WORKLOADS)
    for workload in WORKLOADS:
        for metric in BENCH["end_to_end"]:
            entry = result["metrics"][f"{metric['name']}@{workload}"]
            assert entry["unit"] == metric["unit"]
            assert entry["value"] > 0
    assert stdout.count("failed_ops_ratio = 0.0 ") == len(WORKLOADS)
    for name in PREDICTIONS["names"]:
        if name != "about":
            assert f"metric {name} = " in stdout


def test_traced_run_prints_every_layer_metric_and_counts_repeat(traced_twice):
    (_, first), (stdout, second) = traced_twice
    assert first["failed"] == 0 and second["failed"] == 0
    assert stdout.count("layer trace.overhead_ratio = ") == len(WORKLOADS)
    for workload in WORKLOADS:
        for metric in BENCH["per_layer"]:
            key = f"{metric['name']}@{workload}"
            a, b = first["metrics"][key], second["metrics"][key]
            assert a["unit"] == metric["unit"]
            assert isinstance(a["value"], (int, float))
            if metric["unit"] in COUNT_UNITS and metric["name"] != "trace.overhead_ratio":
                assert a["value"] == b["value"], key


def test_missing_wrap_target_is_reported_not_measured(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "src"))
    monkeypatch.syspath_prepend(HERE)
    import alignrag.autodiff
    import tracing

    monkeypatch.delattr(alignrag.autodiff, "backward")
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    metrics = tracing.layer_metrics(tracer, timed_items=1, overhead_ratio=0.0)
    assert metrics["autodiff.backward_s"][0] == tracing.NOT_MEASURED
    assert metrics["autodiff.tape_nodes_per_step"][0] == tracing.NOT_MEASURED
    assert metrics["training.loss_and_grads_s"][0] == 0.0
    assert set(metrics) == {m["name"] for m in BENCH["per_layer"]}


def test_fails_without_a_result_outside_a_checkout(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = _run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_predictions_cite_known_metrics():
    pairs = {f"{m['name']}@{w}" for m in BENCH["end_to_end"] for w in WORKLOADS}
    layer_names = {m["name"] for m in BENCH["per_layer"]}
    covered = set()
    for row in PREDICTIONS["layers"]:
        assert set(row["moves"] + row["unchanged"]) <= pairs
        covered.update(row["per_layer"])
    assert covered == layer_names - {"trace.overhead_ratio"}
    names = {k: v for k, v in PREDICTIONS["names"].items() if k != "about"}
    assert {v for v in names.values() if v is not None} <= pairs
