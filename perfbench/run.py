"""grouptower benchmark: one workload, measured in fresh interpreters.

    python3 perfbench/run.py --workload {build,lemmas,towers,exact} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ``src``.  Each
sample is one fresh ``python3 perfbench/sample.py`` process, so no cache
state carries from one sample to the next.  Samples repeat until ``--seconds``
would be exceeded (at least MIN_SAMPLES untraced ones), and every timing is
a median over them.  After each untraced sample, SETUP_PROBES more processes
stop once their inputs are ready, so setup_s has more samples than the rest.

The speed of a shared machine can drift by a third within minutes, longer
than a run, so a median over one run's samples does not remove it.  So each
untraced sample also times a fixed reference loop once its workload is done,
and its wall_s and operation latencies are scaled towards reference speed:
multiplied by (REFERENCE_S / that sample's loop time) ** SPEED_EXPONENT.
setup_s is scaled the same way by the median loop time of the run's samples,
since setup-only processes do not time the loop.  From one period of drift
to the next, the workloads slow down by between half and all of what the
loop slows down by, so the exponent is below 1: it corrects most of the
drift without overcorrecting any workload.  The loop belongs to the
benchmark, so a change to the package moves the scaled timings as it moves
the unscaled ones.  The table prints the unscaled medians beside the scaled
ones.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced samples, writes the traced samples' spans under
``.perfbench_out/`` and reports the per-layer metrics, with the tracing
overhead (traced minus untraced ``wall_s``).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

MIN_SAMPLES = 8          # untraced samples per --trace 0 run
SETUP_PROBES = 2         # setup-only processes after each untraced sample
REFERENCE_S = 0.1        # the reference loop's time at reference speed
SPEED_EXPONENT = 0.75    # lowest worst-case spread over 17 sets of runs (see baseline.json)
HARD_LIMIT_S = 160.0     # a run never starts a sample after this
SAMPLE_TIMEOUT_S = 150.0
TAIL_LADDER = (99.0, 90.0, 75.0)
OUT_DIR = ".perfbench_out"

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mib": "MiB",
    "op_p50_ms": "ms", "op_tail_ms": "ms", "decided_ratio": "ratio",
}


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks, q in [0, 100]."""
    data = sorted(values)
    pos = (len(data) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def tail_percentile(ops_per_sample: int) -> float:
    """The highest ladder percentile that leaves at least ten of a sample's
    operations beyond it; p50 when a sample has too few for any tail."""
    return next((q for q in TAIL_LADDER if ops_per_sample * (100 - q) / 100 >= 10), 50.0)


def run_sample(workload: str, seed: int, deadline: float, *extra: str) -> dict:
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "sample.py"), "--workload", workload, "--seed", str(seed),
           "--t0", repr(t0), *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=max(1.0, min(SAMPLE_TIMEOUT_S, deadline - time.monotonic())))
    if proc.returncode != 0:
        raise RuntimeError(f"sample exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = time.monotonic() - t0
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "grouptower" / "__init__.py").is_file():
        print(f"error: {root} holds no src/grouptower; run from the root of a grouptower checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(root / "src"), str(HERE)]
    from tracing import layer_metric_units
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = WORKLOADS[args.workload]

    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    plain: list[dict] = []
    traced: list[dict] = []
    setups: list[float] = []   # setup_s of untraced samples and setup-only probes
    probe = None
    try:
        if args.workload == "towers":
            # the item-1 tower, outside the timed stream; each part in its own
            # process, since its answers depend on the queries asked before
            probe = {**run_sample(args.workload, args.seed, deadline, "--probe", "checks"),
                     **run_sample(args.workload, args.seed, deadline, "--probe", "words")}
        while True:
            if args.trace and len(traced) < len(plain):
                path = f"{OUT_DIR}/spans-{args.workload}-seed{args.seed}-{len(traced)}.tsv"
                traced.append(run_sample(args.workload, args.seed, deadline, "--trace", path))
                traced[-1]["spans_file"] = path
            else:
                sample = run_sample(args.workload, args.seed, deadline)
                plain.append(sample)
                setup_runs = [run_sample(args.workload, args.seed, deadline, "--setup-only")
                              for _ in range(SETUP_PROBES)]
                setups += [p["setup_s"] for p in (sample, *setup_runs)]
                sample["elapsed_s"] += sum(p["elapsed_s"] for p in setup_runs)  # the cost of one more sample
            elapsed = time.monotonic() - start
            # trace runs alternate, so the next sample is of the kind there are fewer of
            if args.trace:
                enough, upcoming = bool(traced), traced if len(traced) < len(plain) else plain
            else:
                enough, upcoming = len(plain) >= MIN_SAMPLES, plain
            if elapsed > HARD_LIMIT_S or (
                enough and elapsed + statistics.median(s["elapsed_s"] for s in upcoming) > args.seconds
            ):
                break
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {args.workload} seed {args.seed}: {exc}", file=sys.stderr)
        return 1

    done = plain + traced
    attempted = sum(s["attempted"] for s in done)
    failed = sum(s["failed"] for s in done)
    undecided = sum(s["undecided"] for s in done)
    digests = {s["digest"] for s in done}
    correct = failed == 0 and len(digests) == 1
    med = lambda key, samples=plain: statistics.median(s[key] for s in samples)  # noqa: E731
    q_tail = tail_percentile(spec.ops_per_sample)

    def timings(scale) -> dict[str, float]:
        """Medians over the samples of each sample's timings times ``scale(sample)``;
        operation latencies are each sample's percentile."""
        return {
            "wall_s": statistics.median(s["wall_s"] * scale(s) for s in plain),
            "op_p50_ms": statistics.median(percentile(s["ops_ms"], 50) * scale(s) for s in plain),
            "op_tail_ms": statistics.median(percentile(s["ops_ms"], q_tail) * scale(s) for s in plain),
        }

    raw = {"setup_s": statistics.median(setups), **timings(lambda s: 1.0)}
    # setup-only processes do not time the loop, so setup_s takes the run's median loop time
    scaled = {"setup_s": raw["setup_s"] * (REFERENCE_S / med("reference_s")) ** SPEED_EXPONENT,
              **timings(lambda s: (REFERENCE_S / s["reference_s"]) ** SPEED_EXPONENT)}
    n_ops = len(plain[0]["ops_ms"])
    ops_note = "the whole command" if spec.ops_per_sample == 1 else f"{n_ops} operations"
    notes = {
        "setup_s": f"median of {len(setups)} processes ({len(setups) - len(plain)} setup-only), "
                   f"scaled by the samples' median loop time",
        "wall_s": f"median of {len(plain)} samples",
        "op_p50_ms": f"p50 over {ops_note} per sample, median over samples",
        "op_tail_ms": f"p{q_tail:g} over {ops_note} per sample, median over samples",
    }

    print(f"workload {args.workload}  seed {args.seed}  samples {len(plain)} untraced, {len(traced)} traced  "
          f"(each a fresh interpreter)")
    print(f"  reference loop   {med('reference_s'):10.4f} s    median of {len(plain)} samples; timings "
          f"are scaled by ({REFERENCE_S} s / the loop time) ** {SPEED_EXPONENT} (unscaled in brackets)")
    for name, unit in (("setup_s", "s "), ("wall_s", "s "), ("op_p50_ms", "ms"), ("op_tail_ms", "ms")):
        print(f"  {name:16s} {scaled[name]:10.4f} {unit}   [{raw[name]:.4f}]  {notes[name]}")
    print(f"  peak_rss_mib     {med('peak_rss_mib'):10.2f} MiB  median of {len(plain)} samples")
    print(f"  failed_ratio     {failed / attempted:10.6f} ratio  {failed} of {attempted} verdicts")
    print(f"  undecided_ratio  {undecided / attempted:10.6f} ratio  {undecided} of {attempted} verdicts")
    print(f"  decided_ratio    {1 - undecided / attempted:10.6f} ratio  1 - undecided_ratio")
    print(f"  deterministic    {len(digests) == 1}  ({len(digests)} distinct result digests over {len(done)} samples)")
    for s in done:
        for what in s["failures"]:
            print(f"  FAILED: {what}")
    if "undecided_by_kind" in plain[0]:
        print(f"  undecided by tower kind (one sample): {plain[0]['undecided_by_kind']}")
    if probe is not None:
        print(f"  defect probe (item-1 tower, fresh processes, outside the timed stream): "
              f"{len(probe['wrong'])} wrong, {len(probe['undecided'])} undecided of {probe['checks']} checks; "
              f"{len(probe['words_wrong'])} wrong, {probe['words_undecided']} undecided of {probe['words']} words")
        for name in probe["wrong"] + probe["words_wrong"]:
            print(f"    wrong: {name}")
        for name in probe["undecided"]:
            print(f"    undecided: {name}")

    if args.trace:
        overhead = med("wall_s", traced) - med("wall_s")
        layers: dict[str, float] = {}
        for name in layer_metric_units():
            values = [s["layers"][name] for s in traced]
            layers[name] = statistics.median(values)
        layers["trace.overhead_s"] = overhead
        if probe is not None:
            layers["towers.reproducer.wrong"] = len(probe["wrong"]) + len(probe["words_wrong"])
            layers["towers.reproducer.undecided"] = len(probe["undecided"]) + probe["words_undecided"]
        print(f"  tracing overhead {overhead:.4f} s: traced wall_s {med('wall_s', traced):.4f} "
              f"- untraced wall_s {med('wall_s'):.4f} (medians)")
        print(f"  spans written: {', '.join(s['spans_file'] for s in traced)}")
        absent = set(traced[0].get("absent", ()))
        for name, unit in layer_metric_units().items():
            mark = "  (absent in this version)" if any(name.startswith(a) for a in absent) else ""
            print(f"    {name:48s} {layers[name]:14.6g} {unit}{mark}")
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in layer_metric_units().items()}
    else:
        values = {**scaled, "peak_rss_mib": med("peak_rss_mib"), "decided_ratio": 1 - undecided / attempted}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
