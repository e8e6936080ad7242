"""One measured sample of one workload, in a fresh interpreter.

Started by ``run.py`` as ``python3 perfbench/sample.py --workload W --seed S
--t0 T [--trace SPANS_PATH | --setup-only | --probe PART]`` from the root of a
checkout, where ``T`` is ``time.monotonic()`` just before the process was
started.  Imports ``grouptower`` from the checkout's ``src``, builds the
inputs from the seed, runs the workload, times the reference loop that
``run.py`` scales timings by, and prints one JSON line with its
measurements.  ``--setup-only`` stops once the inputs are ready.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import grouptower  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

REFERENCE_ROUNDS = 60_000


def reference_loop() -> float:
    """Seconds a fixed pure-Python loop takes now: tuples, dict lookups,
    small integers and fractions, the package's kind of work.  The collector
    is off, so the heap the workload left behind does not slow it."""
    from fractions import Fraction
    gc.disable()
    start = time.perf_counter()
    table: dict[tuple, int] = {}
    acc = Fraction(0)
    for i in range(REFERENCE_ROUNDS):
        key = (i % 997, i % 13, -(i % 5))
        table[key] = table.get(key, 0) + 1
        word = tuple(2 * x for x in key) + key[::-1]
        if word[0] == 0:
            acc += Fraction(i + 1, i % 7 + 1)
    sorted(table.items())
    elapsed = time.perf_counter() - start
    gc.enable()
    return elapsed


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", help="write spans here and report per-layer metrics")
    parser.add_argument("--probe", choices=("checks", "words"), help="run only one part of the towers defect probe")
    parser.add_argument("--setup-only", action="store_true", help="stop once the inputs are ready")
    args = parser.parse_args()
    if Path(grouptower.__file__).resolve().parent != (ROOT / "src" / "grouptower").resolve():
        raise SystemExit(f"grouptower imported from {grouptower.__file__}, not from {ROOT / 'src'}")
    if args.probe:
        probe = workloads.reproducer_checks() if args.probe == "checks" else workloads.reproducer_words(args.seed)
        print(json.dumps(probe))
        return

    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.prepare(args.seed)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"setup_s": ready - args.t0}))
        return
    recorder = tracing.Recorder()
    run = workload.run
    if args.trace:
        # after prepare, so only the timed run is traced
        recorder.install_layers(extra_tower_callers=(workloads,))
        run = recorder.span("workload", run)
    outcome = run(inputs, recorder)
    wall = time.monotonic() - ready
    recorder.uninstall()
    if workload.ops_per_sample == 1:
        recorder.record(time.monotonic() - args.t0)  # the command is the one operation

    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result = {
        "setup_s": ready - args.t0,
        "wall_s": wall,
        "reference_s": reference_loop(),
        "peak_rss_mib": peak_rss_mib,
        "ops_ms": [s * 1e3 for s in recorder.op_latencies],
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "undecided": outcome.undecided,
        "failures": outcome.failures,
        "digest": outcome.digest,
        **outcome.extra,
    }
    if args.trace:
        layers = recorder.layer_metrics()
        result["absent"] = layers.pop("absent")
        result["layers"] = layers
        os.makedirs(os.path.dirname(args.trace), exist_ok=True)
        recorder.write_spans(args.trace, f"{args.workload}/seed{args.seed}/pid{os.getpid()}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
