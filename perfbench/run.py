"""alignrag benchmark: five closed-loop workloads against the public API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all  --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ./src.
With --trace 0 the last stdout line is a JSON object holding every
end-to-end metric of BENCHMARK.json; with --trace 1 it holds every
per-layer metric, measured by wrapping the library's public functions.
Lines before it give provenance, the workload-specific metric names,
the output digest and failed_ops_ratio. --smoke runs toy sizes.
"""
from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads: the benchmark is one client in
# one process, and both sides of a comparison must use the same count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import gc
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, help="a workload of BENCHMARK.json, or 'all'")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="toy input sizes, for the benchmark's own tests")
    return p.parse_args(argv)


def _blas_threads():
    """Thread count OpenBLAS reports, read from the library numpy loaded."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and line.rstrip().endswith(".so")}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def provenance() -> dict:
    import numpy as np

    cpu = platform.processor()
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def _setup_once(w, tracer=None, rep: int = 0) -> float:
    """One set-up repetition; returns its wall time."""
    w.reset()
    gc.collect()
    if tracer is not None:
        tracer.op_id = -(rep + 1)
    t0 = time.perf_counter()
    w.setup()
    elapsed = time.perf_counter() - t0
    w.after_setup()
    return elapsed


def _timed_ops(w, start: int, seconds: float, tracer=None, setups: int = 0):
    """Run operations start, start+1, ... until they have taken `seconds` and min_ops are done.

    With a tracer, every second operation is traced. Traced and untraced
    operations alternate, so drift in machine speed hits both alike and the
    gap between them is the tracing overhead.

    `setups` further set-up repetitions run between operations, spread
    evenly over the phase: machine speed here drifts over tens of seconds,
    so set-ups timed in one burst would see only one part of that drift.

    Returns (untraced durations, traced durations, set-up durations).
    """
    plain: list[float] = []
    traced: list[float] = []
    setup_times: list[float] = []
    busy = 0.0
    i = start
    while busy < seconds or len(plain) < w.min_ops or (tracer is not None and len(traced) < w.min_ops):
        if len(setup_times) < setups and busy >= seconds * (len(setup_times) + 1) / (setups + 1):
            setup_times.append(_setup_once(w))
        args = w.op_args(i)
        trace_this = tracer is not None and i % 2 == 1
        if trace_this:
            tracer.op_id = i + 1
            tracer.install()
        t0 = time.perf_counter()
        try:
            result = w.op(*args)
        finally:
            elapsed = time.perf_counter() - t0
            if trace_this:
                tracer.uninstall()
        (traced if trace_this else plain).append(elapsed)
        busy += elapsed
        w.after_op(i, result)
        del result
        i += 1
    while len(setup_times) < setups:
        setup_times.append(_setup_once(w))
    return plain, traced, setup_times


def run_one(args, workloads) -> int:
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} smoke={args.smoke}")
    print("provenance " + json.dumps(provenance(), sort_keys=True))
    os.makedirs(os.path.join(HERE, "_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=os.path.join(HERE, "_work"))
    try:
        w = workloads.WORKLOADS[args.workload](args.seed, args.smoke, workdir)
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            for rep in range(w.setup_reps):
                _setup_once(w, tracer, rep)
            tracer.uninstall()
            w.warm_up()
            plain, durations, _ = _timed_ops(w, w.warmup_ops, args.seconds, tracer)
        else:
            tracer = None
            setup = [_setup_once(w)]
            w.warm_up()
            durations, _, more = _timed_ops(w, w.warmup_ops, args.seconds, setups=w.setup_reps - 1)
            setup += more
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        verdicts = w.check()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = len(verdicts), verdicts.count(False)
    print(f"digest sha256={w.digest()}")
    print(f"failed_ops_ratio = {failed / attempted} ({failed} failed output checks / {attempted} operations)")
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "throughput_per_s": (w.items_per_op * len(durations) / sum(durations), "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        notes = {
            "setup_s": f"median of {len(setup)} set-ups",
            "throughput_per_s": f"{w.items_per_op} work items per operation, {len(durations)} operations",
            "peak_rss_mb": "whole process, set-up and timed phase",
        }
        for name, (value, unit) in metrics.items():
            print(f"metric {name} = {value:.6g} {unit} ({notes[name]})")
        values = {k: v for k, (v, _) in metrics.items()}
        for name, value, unit, note in w.named_metrics(durations, values):
            print(f"metric {name}@{args.workload} = {value:.6g} {unit} ({note})")
    else:
        overhead = statistics.median(durations) / statistics.median(plain) - 1
        metrics = tracing.layer_metrics(tracer, w.items_per_op * len(durations), overhead)
        print(f"trace: {len(tracer.spans)} spans, {len(durations)} traced and {len(plain)} untraced operations")
        for name, (value, unit) in metrics.items():
            shown = value if isinstance(value, str) else f"{value:.6g}"
            kind = "count" if unit in ("count", "B") else "measure"
            print(f"layer {name} = {shown} {unit} [{kind}]")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: _metric_json(value, unit) for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


def _metric_json(value, unit) -> dict:
    if isinstance(value, str):
        return {"value": None, "unit": unit, "status": value}
    return {"value": value, "unit": unit}


def run_all(args, names) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{metric}@{name}"] = entry
    print(json.dumps(combined, sort_keys=True))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "alignrag", "__init__.py")):
        print(f"perfbench: no alignrag sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload == "all":
        return run_all(args, list(workloads.WORKLOADS))
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    return run_one(args, workloads)


if __name__ == "__main__":
    sys.exit(main())
