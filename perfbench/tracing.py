"""Spans recorded around calls into alignrag's public functions.

Only the traced run installs these wrappers. Each wrapper replaces a module
attribute at the place the library looks it up (for example
``alignrag.evaluation.top_k``), records one span per call and, for a few
layers, a count taken from the call's arguments or result. Spans stay in
memory until the run ends. A wrap target that no longer exists is skipped,
and every metric that depends on it is reported as not measured.
"""
from __future__ import annotations

import importlib
import os
import time
from dataclasses import dataclass, field

NOT_MEASURED = "not_measured"
HOOK_SPAN = "trace.hook"


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    op_id: int  # <0: set-up repetition; >=1: timed operation


def _count_tape_nodes(root) -> int:
    seen = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node.parents)
    return len(seen)


def _text_arg(args, kwargs, _result=None):
    return args[0]


def _index_len(args, kwargs):
    return len(args[1])


def _decode_steps(args, kwargs, result):
    return len(result.tokens)


def _tape_nodes(args, kwargs):
    return _count_tape_nodes(args[0])


def _file_size(args, kwargs, _result=None):
    return os.path.getsize(args[0])


# span name -> (call sites "module:attribute[.method]", hook).
# A hook is (counter name, "before"|"after"|"texts", function). "texts"
# collects the distinct first arguments of each operation.
LAYERS: dict[str, tuple[list[str], tuple | None]] = {
    "vocab.encode": (["alignrag.vocab:Vocabulary.encode"], None),
    "encoder.encode": (
        [
            "alignrag.encoder:encode",
            "alignrag.index:encode",
            "alignrag.evaluation:encode",
            "alignrag.decoder:encode",
        ],
        ("encoder.texts", "texts", _text_arg),
    ),
    "index.build_index": (
        ["alignrag.index:build_index", "alignrag.evaluation:build_index"],
        None,
    ),
    "index.top_k": (
        ["alignrag.index:top_k", "alignrag.evaluation:top_k"],
        ("index.entries", "before", _index_len),
    ),
    "aggregation.normalize_weights": (
        ["alignrag.aggregation:normalize_weights", "alignrag.evaluation:normalize_weights"],
        None,
    ),
    "aggregation.aggregate": (
        ["alignrag.aggregation:aggregate", "alignrag.evaluation:aggregate"],
        None,
    ),
    "decoder.decode_greedy": (
        ["alignrag.decoder:decode_greedy", "alignrag.evaluation:decode_greedy"],
        ("decoder.steps", "after", _decode_steps),
    ),
    "training.joint_loss_and_grads": (["alignrag.training:joint_loss_and_grads"], None),
    "autodiff.backward": (
        ["alignrag.autodiff:backward"],
        ("autodiff.nodes", "before", _tape_nodes),
    ),
    "training.adam_update": (["alignrag.training:Adam.update"], None),
    "metrics.score_corpus": (
        ["alignrag.metrics:score_corpus", "alignrag.evaluation:score_corpus"],
        None,
    ),
    "evaluation.evaluate": (["alignrag.evaluation:evaluate"], None),
    "serialization.write": (
        ["alignrag.index:save_index", "alignrag.training:save_checkpoint"],
        ("serialization.bytes", "after", _file_size),
    ),
    "serialization.read": (
        ["alignrag.index:load_index", "alignrag.training:load_checkpoint"],
        ("serialization.bytes", "before", _file_size),
    ),
}


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    op_id: int = 0
    counters: dict[str, float] = field(default_factory=dict)
    texts: dict[int, set] = field(default_factory=dict)
    wrapped: set[str] = field(default_factory=set)  # span names with >= 1 call site
    broken: set[str] = field(default_factory=set)  # counters whose hook failed
    _stack: list[int] = field(default_factory=list)
    _saved: list[tuple[object, str, object]] = field(default_factory=list)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.op_id))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def _run_hook(self, hook, args, kwargs, result=None) -> None:
        counter, when, fn = hook
        if counter in self.broken:
            return
        idx = self._open(HOOK_SPAN)
        try:
            value = fn(args, kwargs) if when == "before" else fn(args, kwargs, result)
        except (AttributeError, TypeError, IndexError, KeyError, OSError):
            self.broken.add(counter)
            return
        finally:
            self._close(idx)
        if when == "texts":
            self.texts.setdefault(self.op_id, set()).add(value)
        else:
            self.counters[counter] = self.counters.get(counter, 0) + value

    def _wrapper(self, name: str, fn, hook):
        def traced(*args, **kwargs):
            if hook is not None and hook[1] == "before":
                self._run_hook(hook, args, kwargs)
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None and hook[1] != "before":
                self._run_hook(hook, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every call site that exists; missing ones are skipped."""
        for name, (sites, hook) in LAYERS.items():
            for site in sites:
                module_name, path = site.split(":")
                try:
                    owner = importlib.import_module(module_name)
                    *outer, attr = path.split(".")
                    for part in outer:
                        owner = getattr(owner, part)
                    fn = getattr(owner, attr)
                except (ImportError, AttributeError):
                    continue
                self._saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrapper(name, fn, hook))
                self.wrapped.add(name)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()


# ---------------------------------------------------------------------------
# Per-layer metrics. Most times are seconds per call over every traced
# call, set-up included. vocab.encode_s and encoder.encode_s, like the
# "_calls" and "_updates" counts, are per work item of the timed operations.
# Other counts are per call.
# ---------------------------------------------------------------------------


def _children(tracer: Tracer) -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for i, s in enumerate(tracer.spans):
        if s.parent >= 0:
            kids.setdefault(s.parent, []).append(i)
    return kids


def layer_metrics(tracer: Tracer, timed_items: int, overhead_ratio: float) -> dict:
    """Name -> (value or NOT_MEASURED, unit) for every per-layer metric."""
    spans = tracer.spans
    kids = _children(tracer)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def dur(i):
        return spans[i].end - spans[i].start

    def per_call(name, minus=None):
        idx = by_name.get(name, [])
        if not idx:
            return 0.0
        total = 0.0
        for i in idx:
            total += dur(i)
            if minus is not None:
                total -= sum(dur(c) for c in kids.get(i, []) if minus(spans[c].name))
        return total / len(idx)

    def timed(name):
        return [i for i in by_name.get(name, []) if spans[i].op_id >= 1]

    def per_item_time(name):
        return sum(dur(i) for i in timed(name)) / timed_items

    def per_item_calls(name):
        return len(timed(name)) / timed_items

    def counter_per_call(counter, name):
        if counter in tracer.broken:
            return NOT_MEASURED
        calls = len(by_name.get(name, []))
        return tracer.counters.get(counter, 0) / calls if calls else 0.0

    def distinct_ratio():
        if "encoder.texts" in tracer.broken:
            return NOT_MEASURED
        ops = {spans[i].op_id for i in timed("encoder.encode")}
        calls = len(timed("encoder.encode"))
        distinct = sum(len(tracer.texts.get(op, ())) for op in ops)
        return distinct / calls if calls else 0.0

    every_child = lambda _name: True  # noqa: E731
    forward_only = lambda n: n in ("autodiff.backward", HOOK_SPAN)  # noqa: E731
    table = [
        ("vocab.encode_s", "s", "vocab.encode", lambda: per_item_time("vocab.encode")),
        ("vocab.encode_calls", "count", "vocab.encode", lambda: per_item_calls("vocab.encode")),
        ("encoder.encode_s", "s", "encoder.encode", lambda: per_item_time("encoder.encode")),
        ("encoder.encode_calls", "count", "encoder.encode", lambda: per_item_calls("encoder.encode")),
        ("encoder.distinct_text_ratio", "ratio", "encoder.encode", distinct_ratio),
        ("index.build_s", "s", "index.build_index", lambda: per_call("index.build_index", every_child)),
        ("index.top_k_s", "s", "index.top_k", lambda: per_call("index.top_k")),
        ("index.entries_scored", "count", "index.top_k", lambda: counter_per_call("index.entries", "index.top_k")),
        ("aggregation.normalize_weights_s", "s", "aggregation.normalize_weights",
         lambda: per_call("aggregation.normalize_weights")),
        ("aggregation.aggregate_s", "s", "aggregation.aggregate", lambda: per_call("aggregation.aggregate")),
        ("decoder.decode_greedy_s", "s", "decoder.decode_greedy", lambda: per_call("decoder.decode_greedy")),
        ("decoder.steps_per_sample", "count", "decoder.decode_greedy",
         lambda: counter_per_call("decoder.steps", "decoder.decode_greedy")),
        ("training.loss_and_grads_s", "s", "training.joint_loss_and_grads",
         lambda: per_call("training.joint_loss_and_grads")),
        ("autodiff.forward_tape_s", "s", "training.joint_loss_and_grads",
         lambda: per_call("training.joint_loss_and_grads", forward_only)),
        ("autodiff.backward_s", "s", "autodiff.backward", lambda: per_call("autodiff.backward")),
        ("autodiff.tape_nodes_per_step", "count", "autodiff.backward",
         lambda: counter_per_call("autodiff.nodes", "autodiff.backward")),
        ("training.adam_update_s", "s", "training.adam_update", lambda: per_call("training.adam_update")),
        ("training.adam_updates", "count", "training.adam_update", lambda: per_item_calls("training.adam_update")),
        ("metrics.score_corpus_s", "s", "metrics.score_corpus", lambda: per_call("metrics.score_corpus")),
        ("evaluation.evaluate_self_s", "s", "evaluation.evaluate",
         lambda: per_call("evaluation.evaluate", every_child)),
        ("serialization.write_s", "s", "serialization.write", lambda: per_call("serialization.write")),
        ("serialization.read_s", "s", "serialization.read", lambda: per_call("serialization.read")),
        ("serialization.bytes", "B", "serialization.read", lambda: _io_bytes_per_call(tracer, by_name)),
    ]
    out = {}
    for metric, unit, span_name, fn in table:
        out[metric] = (fn() if span_name in tracer.wrapped else NOT_MEASURED, unit)
    out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return out


def _io_bytes_per_call(tracer: Tracer, by_name: dict) -> float | str:
    if "serialization.bytes" in tracer.broken:
        return NOT_MEASURED
    calls = len(by_name.get("serialization.write", [])) + len(by_name.get("serialization.read", []))
    return tracer.counters.get("serialization.bytes", 0) / calls if calls else 0.0
