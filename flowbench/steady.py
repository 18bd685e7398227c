"""Steadiness check: run workloads repeatedly and compare the spread with the bounds.

    python3 flowbench/steady.py --workload all --runs 10
    python3 flowbench/steady.py --workload all --runs 10 --first-seed 21 --against 1

Runs the command in ``BENCHMARK.json`` once per seed, one run at a time, from
the repository root.  For each end-to-end metric it prints the median, the
first and third quartiles (``statistics.quantiles(values, n=4)``), the spread
(quartile distance over median) and the metric's bound; a spread above the
bound is marked.  Every run lasts ``run_seconds`` of ``BENCHMARK.json``.  With
``--against S`` it also prints how far each median moved, in the metric's
worse direction, against the earlier set of runs that began at seed S, which
shows whether the two sets agree.  Every run's result is saved under
``flowbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
RUN_TIMEOUT_S = 900


def run_set(spec: dict, workload: str, seeds: list[int]) -> list[dict]:
    runs = []
    for seed in seeds:
        cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
        result = json.loads(lines[-1])
        result["seed"] = seed
        runs.append(result)
        print(f"  seed {seed}: " + ", ".join(
            f"{k} {v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
    return runs


def summarize(spec: dict, runs: list[dict], against: list[dict] | None) -> bool:
    steady = True
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"  failed share: {sorted(shares)}"
          + ("" if len(shares) == 1 else "  <-- differs between runs"))
    steady &= len(shares) == 1
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in runs]
        q1, _q2, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        spread = (q3 - q1) / med
        line = (f"  {name:>14} {med:12.6g} {metric['unit']:<4} q1 {q1:.6g} q3 {q3:.6g} "
                f"spread {spread:6.2%} bound {metric['bound']:.0%}")
        if spread > metric["bound"]:
            line += "  <-- spread above bound"
            steady = False
        if against is not None:
            before = statistics.median(r["metrics"][name]["value"] for r in against)
            worse = (med - before) / before
            if metric["better"] == "higher":
                worse = -worse
            line += f"  vs earlier {worse:+.2%}"
            if worse > metric["bound"]:
                line += " <-- worse than bound"
                steady = False
        print(line)
    return steady


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=names + ["all"])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--against", type=int, default=None, metavar="FIRST_SEED",
                    help="compare medians with the saved set of runs that began at this seed")
    args = ap.parse_args()

    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    RESULTS.mkdir(exist_ok=True)
    steady = True
    for workload in names if args.workload == "all" else [args.workload]:
        print(f"{workload}: seeds {seeds[0]}..{seeds[-1]}, {spec['run_seconds']} s each",
              flush=True)
        against = None
        if args.against is not None:
            earlier = RESULTS / f"steady-{workload}-{args.against}.json"
            against = json.loads(earlier.read_text())
        runs = run_set(spec, workload, seeds)
        out = RESULTS / f"steady-{workload}-{args.first_seed}.json"
        out.write_text(json.dumps(runs, indent=1) + "\n")
        steady &= summarize(spec, runs, against)
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
