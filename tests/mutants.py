"""The mutation table: each entry breaks one claim of the program, and the
tests it names must catch it (DeMillo, Lipton and Sayward, "Hints on test
data selection", 1978).

An entry names a file under ``src/``, an exact text that occurs in it once,
the text that replaces it, the tests expected to fail, and the claim the
mutant breaks.  For each entry the script copies ``src/`` to a temporary
directory, applies the entry there, and runs only the named tests against
the copy.  The mutant is killed when every named test fails (a
parametrized test fails when any of its cases does).  A known survivor is
an entry that no test kills yet; it names the open item that will kill
it, and its run must pass.

The script exits 1 if a mutant survives or a named test passes under it,
if an entry's old text does not occur exactly once, if a named test is
not collected, or if a known survivor is killed: a refactor updates the
table along with the code, and a survivor's mark comes off once it is
killed.  It says nothing about the unmutated code, which Tier-1 checks, so
run it after Tier-1.  pytest does not collect this file.

    python tests/mutants.py            # every entry
    python tests/mutants.py NAME ...   # the named entries
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 900


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # under src/
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, from the repository root
    claim: str
    survivor: str | None = None  # the open item that will kill it


SWEEP_SKIP = """\
        if depth >= skip_threshold:
            append(_SKIPPED)
            continue
"""
SWEEP_END_ARCS = """\
        arcs = u.arcs
        if not (res[arcs[0]] and res[arcs[-1]]):
            append(0)
            continue
"""
LF = "tests/test_local_flow.py::"
PE = "tests/test_path_engine.py::"
SWEEP_TESTS = (LF + "test_sweeps_equal_the_reference_sweep",
               LF + "test_sweeps_on_arbitrary_graphs_equal_the_reference_sweep")
WALK_TESTS = (PE + "test_matches_naive_enumeration_on_random_instances",
              PE + "test_matches_naive_enumeration_on_arbitrary_graphs",
              LF + "test_walk_search_equals_the_reference_search")

TABLE = (
    Mutant(
        "end-arcs-inverted", "localflow/local_flow.py",
        "if not (res[arcs[0]] and res[arcs[-1]]):",
        "if res[arcs[0]] and res[arcs[-1]]:",
        SWEEP_TESTS,
        "the sweep records 0 without the minimum only where an end arc has no residual"),
    Mutant(
        "end-arcs-before-skip", "localflow/local_flow.py",
        SWEEP_SKIP + SWEEP_END_ARCS,
        SWEEP_END_ARCS + SWEEP_SKIP,
        SWEEP_TESTS,
        "a path at depth s is recorded as skipped, whatever its end arcs read; "
        "the flows stay equal, so only the traces see it"),
    Mutant(
        # No other test checks a sweep that augments a path by more than 9,
        # so only the scaling relation sees this one.
        "amount-capped-at-9", "localflow/local_flow.py",
        "amount = min(map(room, arcs))",
        "amount = min(9, *map(room, arcs))",
        (LF + "test_scaling_every_capacity_scales_both_sweeps_and_the_max_flow",
         LF + "test_scaling_every_capacity_scales_the_sweeps_on_the_ci_grid_and_ac5s_instance"),
        "an amount is the least residual over its path's arcs, however large"),
    Mutant(
        "evaluator-s-unchecked", "localflow/local_flow.py",
        """\
        if type(s) is not int or s < 1:
            _int_field({"s": s}, "s", "LocalEvaluator", minimum=1)  # raises
""",
        "",
        (LF + "test_an_evaluator_refuses_an_s_that_is_no_int_of_at_least_1",),
        "an evaluator refuses an s that is no plain int of at least 1"),
    Mutant(
        "by-id-without-int-test", "localflow/graph_core.py",
        "got = table.get(item_id) if type(item_id) is int else None",
        "got = table.get(item_id)",
        ("tests/test_graph_core.py::test_node_and_edge_ids_that_are_no_plain_int_name_nothing",
         LF + "test_edge_queries_refuse_an_edge_id_that_is_no_plain_int"),
        "an id that is no plain int (True, 1.0) names no node or edge"),
    Mutant(
        "ints-drop-empty-items", "localflow/cli.py",
        'return [int(part) for part in text.split(",")]',
        'return [int(part) for part in text.split(",") if part]',
        ("tests/test_cli.py::test_an_empty_item_in_an_integer_list_exits_two_naming_the_flag",),
        "an integer list with an empty item is refused, not read without it"),
    Mutant(
        "length-lemma-l-plus-2", "localflow/harness.py",
        "return l1, gap * (l + 1) <= l1",
        "return l1, gap * (l + 2) <= l1",
        ("tests/test_harness.py::test_the_sharp_length_bound_holds_for_flows_with_no_short_path",),
        "A1's gap times l+1 is at most the L1 distance to a maximum flow, and l+2 "
        "is too many: the added chain attains the bound"),
    Mutant(
        "walks-without-r-pruning", "localflow/path_engine.py",
        "(length < cap - 1 or node[nxt].color in kept)",
        "(length < cap or node[nxt].color in kept)",
        WALK_TESTS,
        "a walk's last step goes only to a node that can end it",
        survivor="ROADMAP item 1: a count of walks grown on a fixed instance"),
    Mutant(
        "walks-keep-s-ends-outward", "localflow/path_engine.py",
        'kept = ("S", "T") if into else ("T",)',
        'kept = ("S", "T")',
        WALK_TESTS,
        "an outward search grows no last step to an S node, which no path keeps",
        survivor="ROADMAP item 1: a count of walks grown on a fixed instance"),
)


def failed_ids(output: str) -> list[str]:
    """The node ids on pytest's ``FAILED`` and ``ERROR`` summary lines."""
    return re.findall(r"^(?:FAILED|ERROR) (\S+)", output, re.MULTILINE)


def run(m: Mutant) -> str | None:
    """None if the entry holds, else what is wrong with it."""
    text = (ROOT / "src" / m.file).read_text(encoding="utf-8")
    if text.count(m.old) != 1:
        return f"its old text occurs {text.count(m.old)} times in src/{m.file}, not once"
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        (src / m.file).write_text(text.replace(m.old, m.new), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--tb=no", "-rfE",
             *m.tests],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    if done.returncode not in (0, 1):  # not collected, or no test ran
        return f"pytest exited {done.returncode}:\n{done.stdout}{done.stderr}"
    failed = failed_ids(done.stdout)
    if m.survivor is not None:
        return f"the known survivor is killed by {', '.join(failed)}" if failed else None
    passed = [t for t in m.tests
              if not any(f == t or f.startswith(t + "[") for f in failed)]
    if len(passed) == len(m.tests):
        return "it survives every named test"
    return f"it survives {', '.join(passed)}" if passed else None


def main(argv: list[str]) -> int:
    by_name = {m.name: m for m in TABLE}
    unknown = [name for name in argv if name not in by_name]
    if unknown:
        print(f"unknown entries: {', '.join(unknown)}", file=sys.stderr)
        return 2
    bad = 0
    for m in [by_name[name] for name in argv] if argv else TABLE:
        fault = run(m)
        status = "survives, as known" if m.survivor else "killed"
        print(f"{m.name}: {status if fault is None else 'FAIL: ' + fault}", flush=True)
        bad += fault is not None
    print(f"{bad} of {len(argv) or len(TABLE)} entries fail")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
