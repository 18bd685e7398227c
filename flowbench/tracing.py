"""Per-layer spans recorded from outside the program.

``Tracer.install`` replaces each public function listed in ``TARGETS`` with a
timing wrapper, in every ``localflow`` module that holds it, so a name
imported into another module (``local_flow.enumerate_paths``,
``local_flow.induced_subgraph``) is traced at that call site too.
``uninstall`` puts the originals back.  A span is (id, parent id, operation
id, name, start, end); spans stay in memory until ``write_spans``.  Self time
is a span's duration minus the durations of the wrapped calls made under it.
"""

from __future__ import annotations

import json
import sys
import time
import weakref
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable

# (module, attribute path) of every traced public function: the layers are
# the modules of the package.
TARGETS = (
    ("graph_core", "induced_subgraph"),
    ("graph_core", "ball_nodes"),
    ("graph_core", "validate_graph"),
    ("graph_core", "validate_flow"),
    ("path_engine", "enumerate_paths"),
    ("path_engine", "path_key"),
    ("path_engine", "chain_depth_all"),
    ("local_flow", "run_a1"),
    ("local_flow", "run_a2"),
    ("local_flow", "local_f2_edge"),
    ("local_flow", "verify_locality"),
    ("local_flow", "LocalEvaluator.f2_on"),
    ("estimator_tester", "run_tester"),
    ("estimator_tester", "source_ball_summand"),
    ("exact_oracle", "max_flow"),
    ("harness", "generate"),
    ("parallel", "parallel_map"),
)

# Counts taken from a traced call's arguments and result, beyond calls and time.
EXTRA_COUNTS = {
    "graph_core.induced_subgraph": ("scanned", "kept"),
    "graph_core.ball_nodes": ("nodes",),
    "path_engine.enumerate_paths": ("paths", "distinct_graphs"),
    "local_flow.run_a2": ("augmented", "skipped", "zero_capacity"),
}

# Spans kept for the trace file; the metrics count every call regardless.
SPAN_CAP = 100_000

Counts = Callable[[tuple, object], dict]


def _subgraph_sizes(args: tuple, sub) -> dict:
    g = args[0]
    return {"scanned": len(g.nodes) + len(g.edges), "kept": len(sub.nodes) + len(sub.edges)}


def _ball_size(_args: tuple, ball) -> dict:
    return {"nodes": len(ball)}


def _run_actions(_args: tuple, result) -> dict:
    actions = Counter(entry.action for entry in result[1].entries)
    return {
        "augmented": actions["AUGMENTED"],
        "skipped": actions["SKIPPED_CHAIN"],
        "zero_capacity": actions["ZERO_CAPACITY"],
    }


class Tracer:
    """Spans and per-function totals of the calls made while installed."""

    def __init__(self) -> None:
        self.op_id: int | None = None
        self.spans: list[tuple] = []
        self.stats: dict[str, Counter] = defaultdict(Counter)
        self._stack: list[list[int]] = []  # [span id, child ns] per open span
        self._next_id = 0
        self._origin = time.perf_counter_ns()
        self._seen_graphs: weakref.WeakSet = weakref.WeakSet()
        self._patches: list[tuple[object, str, object]] = []

    def _path_count(self, args: tuple, paths) -> dict:
        g = args[0]
        fresh = g not in self._seen_graphs
        self._seen_graphs.add(g)
        return {"paths": len(paths), "distinct_graphs": int(fresh)}

    def _counts_for(self, name: str) -> Counts | None:
        return {
            "graph_core.induced_subgraph": _subgraph_sizes,
            "graph_core.ball_nodes": _ball_size,
            "path_engine.enumerate_paths": self._path_count,
            "local_flow.run_a2": _run_actions,
        }.get(name)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        stat = self.stats[name]
        counts = self._counts_for(name)
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                stat["calls"] += 1
                stat["self_ns"] += duration - frame[1]
                if len(spans) < SPAN_CAP:
                    spans.append((span_id, parent, self.op_id, name,
                                  start - self._origin, end - self._origin))
            if counts is not None:
                stat.update(counts(args, result))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        """Wrap every target in every loaded module of the package."""
        assert not self._patches, "tracer already installed"
        modules = [m for key, m in sys.modules.items()
                   if key == "localflow" or key.startswith("localflow.")]
        for module_name, path in TARGETS:
            owner = sys.modules[f"localflow.{module_name}"]
            *cls, attr = path.split(".")
            for part in cls:
                owner = getattr(owner, part)
            orig = getattr(owner, attr)
            wrapper = self._wrap(f"{module_name}.{path}", orig)
            holders = [owner] if cls else [
                m for m in modules if getattr(m, attr, None) is orig
            ]
            for holder in holders:
                self._patches.append((holder, attr, orig))
                setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig in self._patches:
            setattr(owner, attr, orig)
        self._patches.clear()

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Totals per traced function, as (value, unit) by metric name."""
        out: dict[str, tuple[float, str]] = {}
        for module_name, path in TARGETS:
            name = f"{module_name}.{path}"
            stat = self.stats[name]
            out[f"{name}.calls"] = (stat["calls"], "count")
            out[f"{name}.self_ms"] = (stat["self_ns"] / 1e6, "ms")
            for key in EXTRA_COUNTS.get(name, ()):
                out[f"{name}.{key}"] = (stat[key], "count")
        return out

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fp:
            for span_id, parent, op, name, start, end in self.spans:
                fp.write(json.dumps({"id": span_id, "parent": parent, "op": op,
                                     "name": name, "start_ns": start, "end_ns": end}) + "\n")
