"""Run one workload of the localflow benchmark and print its result as JSON.

    python3 flowbench/run.py --workload edge-query --seed 1 --seconds 25 --trace 0

Run from the repository root: the program is imported from ``src/`` beside
this directory, never from an installed copy.  A run sets up (a fresh import
plus graph generation), then runs the workload's fixed list of operations in
whole passes, one operation at a time on one thread, until at least
``MIN_PASSES`` passes are done and ``--seconds`` have passed.  After every
pass it sets up once more in a child process, so that the repeated set-ups
leave the run's heap and peak memory alone, and it reports the median set-up
time.  Every set-up and every operation runs between rounds of a fixed
reference computation (``reference.py``) and its time is normalised to the
reference's speed: the machine's speed drifts up to twofold in phases longer
than a run, and the reference slows with it.  An operation's time is the
median of its normalised times over the passes.  Every result is then
checked, and every pass must reproduce the first pass's results exactly.  An
operation that raises counts as failed and makes the run incorrect.

The last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``.  With ``--trace 0`` the metrics are the end-to-end ones.  With
``--trace 1`` the first set-up, the workload's one-off preparation and the
first pass are traced, each operation of that pass running traced and then
again untraced; the metrics are the per-layer totals of the traced calls and the
tracing overhead, and the spans go to ``flowbench/results/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checker
import tracing
from reference import Reference
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
MIN_PASSES = 2
SETUP_TIMEOUT_S = 120


def fresh_import():
    """Import the program anew, dropping any copy loaded by an earlier set-up."""
    for key in [k for k in sys.modules if k == "localflow" or k.startswith("localflow.")]:
        del sys.modules[key]
    lf = importlib.import_module("localflow")
    if not Path(lf.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"localflow imported from {lf.__file__}, not from {SRC}")
    return lf


def set_up(wl, ref: Reference,
           tracer: tracing.Tracer | None = None) -> tuple[float, object, object]:
    """One set-up, a fresh import and the workload's graph generation.

    Returns its normalised time, the program and the graph.
    """
    def body():
        lf = fresh_import()
        if tracer is not None:
            tracer.install()
        g, _meta = lf.harness.generate(wl.spec(lf))
        return lf, g

    elapsed, before, (lf, g) = ref.timed(body)
    return ref.normalised(elapsed, before), lf, g


def set_up_in_child(args: argparse.Namespace) -> float:
    """One set-up in a fresh interpreter; returns its normalised time."""
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--setup-only"]
    if args.n is not None:
        cmd += ["--n", str(args.n)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True,
                          timeout=SETUP_TIMEOUT_S)
    return float(proc.stdout)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--n", type=int, default=None,
                    help="override the workload's graph size (for scaling figures)")
    ap.add_argument("--setup-only", action="store_true",
                    help="set up once, print its normalised time in seconds and exit")
    args = ap.parse_args(argv)

    if not (SRC / "localflow" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    wl = WORKLOADS[args.workload](args.seed, args.n)
    ref = Reference()
    if args.setup_only:
        print(set_up(wl, ref)[0])
        return 0
    tracer = tracing.Tracer() if args.trace else None

    elapsed, wl.lf, wl.g = set_up(wl, ref, tracer)
    setup_times = [elapsed]
    wl.prepare()
    if tracer is not None:
        tracer.uninstall()

    m = wl.ops_per_pass
    runs: list[list[tuple[float, int]]] = [[] for _ in range(m)]  # (measured s, block)
    best = [math.inf] * m  # each operation's fastest measured time
    items = [0] * m
    first: list = [None] * m  # each operation's result from its first run
    varied: set[int] = set()  # operations whose result changed between passes
    traced_s = paired_s = 0.0  # the traced pass: traced and untraced time
    attempted = failed = passes = 0
    began = time.perf_counter()
    while passes < MIN_PASSES or time.perf_counter() - began < args.seconds:
        for i in range(m):
            attempted += 1
            trace_this = tracer is not None and passes == 0
            try:
                if trace_this:
                    tracer.op_id = i
                    tracer.install()
                    try:
                        traced_s += ref.timed(wl.op, i)[0]
                    finally:
                        tracer.uninstall()
                elapsed, before, (done, result) = ref.timed(wl.op, i)
            except Exception:
                failed += 1
                traceback.print_exc()
                continue
            if trace_this:
                paired_s += elapsed
            runs[i].append((elapsed, before))
            best[i] = min(best[i], elapsed)
            items[i] = done
            if first[i] is None:
                first[i] = result
            elif result != first[i]:
                varied.add(i)
        passes += 1
        ref.close()
        # A further set-up after each pass, so that the median set-up time
        # samples the machine across the run.
        setup_times.append(set_up_in_child(args))
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    ran = [i for i in range(m) if first[i] is not None]
    times = [statistics.median(ref.normalised(*run) for run in runs[i]) for i in ran]
    correct = bool(ran) and failed == 0
    try:
        if varied:
            raise checker.CheckFailed(f"operations {sorted(varied)} gave different results "
                                      "in different passes")
        wl.check([first[i] for i in ran])
    except checker.CheckFailed as exc:
        correct = False
        print(f"check failed: {exc}", file=sys.stderr)

    if tracer is not None:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in tracer.metrics().items()}
        metrics["flowbench.trace.ops"] = {"value": len(ran), "unit": "count"}
        metrics["flowbench.trace.overhead_ms"] = {
            "value": (traced_s - paired_s) / max(len(ran), 1) * 1e3, "unit": "ms"}
        metrics["flowbench.trace.overhead_pct"] = {
            "value": 100 * (traced_s / paired_s - 1) if paired_s else 0.0, "unit": "%"}
        spans = RESULTS / f"trace-{wl.name}.jsonl"
        tracer.write_spans(spans)
        print(f"# {len(tracer.spans)} spans written to {spans.relative_to(ROOT)}")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
            "op_ms_p50": {"value": statistics.median(times) * 1e3 if times else 0.0,
                          "unit": "ms"},
            "items_per_s": {"value": sum(items) / sum(times) if times else 0.0,
                            "unit": "1/s"},
        }
        if times:
            measured = [best[i] for i in ran]
            figures = (wl.figures(times, sum(items))
                       + [("measured_best_ms_p50", statistics.median(measured) * 1e3, "ms"),
                          ("passes", passes, "count")])
            print(f"# {wl.name}: " + ", ".join(f"{k} {v:.6g} {u}" for k, v, u in figures))

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
