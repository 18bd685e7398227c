from __future__ import annotations

import sys
from pathlib import Path

from fractions import Fraction

import localflow.graph_core as graph_core
from localflow.graph_core import ColoredGraph, Edge, Node

sys.path.insert(0, str(Path(__file__).parent))


def build_graph(colors: str, edge_list, d: int = 4, m: int = 5, quantum=Fraction(1)) -> ColoredGraph:
    """Compact builder: colors is a string like 'SRT', edges are
    (a, b, cap_ab, cap_ba) tuples; edge ids follow list order."""
    nodes = tuple(Node(i, c) for i, c in enumerate(colors))
    edges = tuple(Edge(i, a, b, cab, cba) for i, (a, b, cab, cba) in enumerate(edge_list))
    return ColoredGraph(nodes, edges, d, m, quantum)


def line_graph(colors: str, cap: int = 4, d: int = 4, m: int = 5) -> ColoredGraph:
    """Path graph over the color string with uniform two-way capacities."""
    return build_graph(colors, [(i, i + 1, cap, cap) for i in range(len(colors) - 1)], d=d, m=m)


def seed_sensitive_graph() -> ColoredGraph:
    """Four length-3 paths racing for one shared unit-capacity edge; which
    source wins is a pure label question, so f2 varies with the seed."""
    return build_graph(
        "SSRRTT",
        [(0, 2, 1, 1), (1, 2, 1, 1), (2, 3, 1, 1), (3, 4, 1, 1), (3, 5, 1, 1)],
        d=3,
        m=1,
    )


def sparse_id_graph() -> ColoredGraph:
    """Unsorted, negative and sparse ids, parallel edges and an isolated node
    9: a graph whose arc tables are dicts, not lists."""
    return ColoredGraph(
        (Node(4, "S"), Node(0, "R"), Node(7, "T"), Node(9, "R")),
        (Edge(5, 0, 7, 2, 1), Edge(-3, 4, 0, 1, 2), Edge(12, 7, 0, 3, 0), Edge(-8, 4, 7, 1, 1)),
        3, 3)


def count_flow_validations(monkeypatch) -> list:
    """Make every package module's ``validate_flow`` record the flows it is
    given, in the returned list."""
    real = graph_core.validate_flow
    calls = []

    def counting(g, f):
        calls.append(f)
        return real(g, f)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "localflow" and getattr(module, "validate_flow", None) is real:
            monkeypatch.setattr(module, "validate_flow", counting)
    return calls
