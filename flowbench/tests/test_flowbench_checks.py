"""The benchmark's own tests: each output check rejects a corrupted output.

    python3 -m pytest flowbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checker  # noqa: E402
from checker import CheckFailed  # noqa: E402

# S0 -e0-> R1 -e1-> T2, capacities (a-to-b, b-to-a): e0 (3, 1), e1 (2, 1).
NODES = [(0, "S"), (1, "R"), (2, "T")]
EDGES = [(0, 0, 1, 3, 1), (1, 1, 2, 2, 1)]
MAX = {0: 2, 1: 2}


def test_valid_flow_value_and_certificate():
    assert checker.flow_value(NODES, EDGES, MAX) == 2
    assert checker.flow_value(NODES, EDGES, {}) == 0
    checker.check_max_flow(NODES, EDGES, MAX, 2)
    checker.check_no_short_path(NODES, EDGES, MAX, 10)


def test_capacity_violation_fails():
    with pytest.raises(CheckFailed, match="edge 1: flow 3 outside"):
        checker.flow_value(NODES, EDGES, {0: 3, 1: 3})
    with pytest.raises(CheckFailed, match="edge 0: flow -2 outside"):
        checker.flow_value(NODES, EDGES, {0: -2, 1: -1})


def test_conservation_and_signs_fail():
    with pytest.raises(CheckFailed, match="regular node"):
        checker.flow_value(NODES, EDGES, {0: 2, 1: 1})
    with pytest.raises(CheckFailed, match="source with net outflow -1"):
        checker.flow_value(NODES, EDGES, {0: -1, 1: -1})
    with pytest.raises(CheckFailed, match="unknown edge"):
        checker.flow_value(NODES, EDGES, {7: 1})


def test_cut_not_tight_fails():
    # A valid flow below the maximum: the residual side still reaches T.
    with pytest.raises(CheckFailed, match="no residual cut"):
        checker.check_max_flow(NODES, EDGES, {0: 1, 1: 1}, 1)
    with pytest.raises(CheckFailed, match="claims 3"):
        checker.check_max_flow(NODES, EDGES, MAX, 3)


def test_short_residual_path_and_gap_bound():
    with pytest.raises(CheckFailed, match="length 2 <= 2"):
        checker.check_no_short_path(NODES, EDGES, {}, 2)
    checker.check_no_short_path(NODES, EDGES, {}, 1)
    checker.check_gap_bound(1, 2, 1, 1, 3, 3)  # 1 >= 2 - 3/3
    with pytest.raises(CheckFailed, match="below"):
        checker.check_gap_bound(0, 2, 1, 1, 3, 3)


def test_wrong_local_value_fails():
    checker.check_local_values({0: 2, 1: 0}, {0: 2})
    with pytest.raises(CheckFailed, match="edge 1: local value 1, global value 0"):
        checker.check_local_values({0: 2, 1: 1}, {0: 2})


def test_wrong_tester_summand_fails():
    flows = [{0: 2, 1: 2}, {0: 1, 1: 1}]
    sampled = [0, 1, 0]
    good = [Fraction(3, 2), Fraction(0), Fraction(3, 2)]
    checker.check_tester(NODES, EDGES, sampled, good, Fraction(1), flows, 3)
    with pytest.raises(CheckFailed, match="node 0: tester summand 1"):
        checker.check_tester(NODES, EDGES, sampled, [Fraction(3, 2), 0, Fraction(1)],
                             Fraction(5, 6), flows, 3)
    with pytest.raises(CheckFailed, match="node 1"):
        checker.check_tester(NODES, EDGES, sampled, [Fraction(3, 2), 1, Fraction(3, 2)],
                             Fraction(4, 3), flows, 3)
    with pytest.raises(CheckFailed, match="not the summand mean"):
        checker.check_tester(NODES, EDGES, sampled, good, Fraction(3, 2), flows, 3)


def test_short_or_foreign_tester_sample_fails():
    flows = [{0: 2, 1: 2}]
    # Two samples where k = 3: the summands are right, but the sample is short.
    with pytest.raises(CheckFailed, match="2 samples and 2 summands, not k = 3"):
        checker.check_tester(NODES, EDGES, [0, 0], [2, 2], Fraction(2), flows, 3)
    with pytest.raises(CheckFailed, match="sampled 9, which is not a node"):
        checker.check_tester(NODES, EDGES, [0, 9], [2, 0], Fraction(1), flows, 2)


def test_program_max_flow_passes_and_corruption_fails():
    sys.path.insert(0, str(ROOT / "src"))
    from localflow import InstanceSpec, generate, max_flow

    from workloads import raw

    g, _meta = generate(InstanceSpec("grid", params={"rows": 5, "cols": 6}, gen_seed=1))
    nodes, edges = raw(g)
    best = max_flow(g)
    assert best.value > 0
    checker.check_max_flow(nodes, edges, best.flow.values, best.value)
    eid = next(iter(best.flow.values))
    corrupted = dict(best.flow.values)
    corrupted[eid] += 1 if corrupted[eid] < 0 else -1
    with pytest.raises(CheckFailed):
        checker.check_max_flow(nodes, edges, corrupted, best.value)


def test_reference_normalises_to_its_own_round():
    # A call that does ten reference rounds' work reads about ten rounds, at
    # whatever speed the machine runs; a loose band allows for its drift.
    from reference import ROUND_S, Reference

    ref = Reference()
    runs = [ref.timed(lambda: [ref._work() for _ in range(10)])[:2] for _ in range(9)]
    times = sorted(ref.normalised(*run) for run in runs)
    assert 5 * ROUND_S < times[4] < 20 * ROUND_S


def _run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "flowbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload,trace", [
    ("edge-query", 0), ("tester", 0), ("locality-check", 1), ("global-sweep", 0),
])
def test_short_run_reports_every_metric(workload, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    size = [] if workload == "global-sweep" else ["--n", "300"]
    proc = _run(["--workload", workload, "--seed", "5", "--seconds", "0",
                 "--trace", str(trace), *size], ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()}


def test_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "flowbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _run(["--workload", "tester", "--seed", "1", "--seconds", "1", "--trace", "0"],
                tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
