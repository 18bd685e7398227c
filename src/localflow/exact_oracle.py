"""Exact maximum flow for multisource-multitarget networks.

Ground truth for every approximation claim: a super-source/super-sink
reduction followed by shortest-augmenting-path (BFS) augmentation on integer
ticks.  The virtual endpoints never leak into any public type, and the final
residual BFS doubles as the optimality certificate and min-cut extractor.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable

from .graph_core import ColoredGraph, Flow, _source_outflow, validate_flow

_SUPER_SOURCE = -1
_SUPER_SINK = -2


@dataclass(frozen=True)
class MaxFlowResult:
    flow: Flow
    value: int
    residual_cut: frozenset[int]


class _Residual:
    """Residual network over g plus virtual endpoints, arc-list based."""

    def __init__(self, g: ColoredGraph):
        self.head: dict[int, list[int]] = {nd.id: [] for nd in g.nodes}
        self.head[_SUPER_SOURCE] = []
        self.head[_SUPER_SINK] = []
        self.to: list[int] = []
        self.res: list[int] = []
        self.edge_id: list[int | None] = []  # original edge for AB arcs, None for virtual

        # Exceeds any possible cut while staying in integer arithmetic.
        inf = g.degree_bound * g.capacity_bound_ticks * max(g.n, 1) + 1

        for e in g.edges:
            self._add_arc_pair(e.a, e.b, e.cap_ab, e.cap_ba, e.id)
        for s in g.nodes_of_color("S"):
            self._add_arc_pair(_SUPER_SOURCE, s, inf, 0, None)
        for t in g.nodes_of_color("T"):
            self._add_arc_pair(t, _SUPER_SINK, inf, 0, None)

    def _add_arc_pair(self, a: int, b: int, cap_ab: int, cap_ba: int, eid: int | None) -> None:
        self.head[a].append(len(self.to))
        self.to.append(b)
        self.res.append(cap_ab)
        self.edge_id.append(eid)
        self.head[b].append(len(self.to))
        self.to.append(a)
        self.res.append(cap_ba)
        self.edge_id.append(eid)

    def bfs_path(self) -> list[int] | None:
        """Arc indices of a shortest super-source -> super-sink residual path."""
        parent_arc: dict[int, int] = {_SUPER_SOURCE: -1}
        q = deque([_SUPER_SOURCE])
        while q:
            u = q.popleft()
            if u == _SUPER_SINK:
                break
            for ai in self.head[u]:
                w = self.to[ai]
                if self.res[ai] > 0 and w not in parent_arc:
                    parent_arc[w] = ai
                    q.append(w)
        if _SUPER_SINK not in parent_arc:
            return None
        arcs = []
        v = _SUPER_SINK
        while v != _SUPER_SOURCE:
            ai = parent_arc[v]
            arcs.append(ai)
            v = self.to[ai ^ 1]
        arcs.reverse()
        return arcs

    def augment(self, arcs: list[int]) -> int:
        amount = min(self.res[ai] for ai in arcs)
        for ai in arcs:
            self.res[ai] -= amount
            self.res[ai ^ 1] += amount
        return amount


def max_flow(g: ColoredGraph) -> MaxFlowResult:
    """Maximum flow value, an attaining flow, and the source-side min cut."""
    net = _Residual(g)
    total = 0
    while True:
        arcs = net.bfs_path()
        if arcs is None:
            break
        total += net.augment(arcs)

    # Recover per-edge flow: for the AB arc of edge e, f_ab = cap_ab - residual.
    values: dict[int, int] = {}
    for ai, eid in enumerate(net.edge_id):
        if eid is None or ai % 2 == 1:
            continue
        f_ab = g.edge(eid).cap_ab - net.res[ai]
        if f_ab != 0:
            values[eid] = f_ab
    f = Flow(values)
    validate_flow(g, f).raise_if_invalid("max-flow output")

    cut = _residual_reachable(g, f)
    return MaxFlowResult(flow=f, value=int(_source_outflow(g, f)), residual_cut=frozenset(cut))


def _residual_reachable(g: ColoredGraph, f: Flow) -> set[int]:
    """Nodes reachable from any source along edges with f(e) < c(e)."""
    room = _room(g, f)
    seen = set(g.nodes_of_color("S"))
    q = deque(seen)
    while q:
        steps = iter(g._adj[q.popleft()])
        for w, arc in zip(steps, steps):
            if w not in seen and room(arc) > 0:
                seen.add(w)
                q.append(w)
    return seen


def _room(g: ColoredGraph, f: Flow) -> Callable[[int], int]:
    """Residual capacity of an arc under f: its capacity less the flow along it."""
    edge, flow = g._edge_by_id, f.values.get

    def room(arc: int) -> int:
        e = edge[arc >> 1]
        used = flow(arc >> 1, 0)
        return e.cap_ba + used if arc & 1 else e.cap_ab - used

    return room


def shortest_augmenting_path_length(
    g: ColoredGraph, f: Flow, l_max: int | None = None
) -> int | None:
    """Edge count of the shortest residual S->T path; None if absent.

    BFS from all sources simultaneously over the residual edge set
    ``{e : f(e) < c(e)}``.  With ``l_max`` set, paths longer than it count
    as absent.  Raises ``ValueError`` if f is not a valid flow on g.
    """
    validate_flow(g, f).raise_if_invalid("flow")
    return _shortest_augmenting_path_length(g, f, l_max)


def _shortest_augmenting_path_length(
    g: ColoredGraph, f: Flow, l_max: int | None = None
) -> int | None:
    """``shortest_augmenting_path_length`` of a flow already validated on g,
    without the check."""
    room = _room(g, f)
    targets = set(g.nodes_of_color("T"))
    dist = {s: 0 for s in g.nodes_of_color("S")}
    if targets & set(dist):
        return 0  # unreachable: colors partition V, kept for safety
    frontier = list(dist)
    depth = 0
    while frontier:
        depth += 1
        if l_max is not None and depth > l_max:
            return None
        nxt = []
        for u in frontier:
            steps = iter(g._adj[u])
            for w, arc in zip(steps, steps):
                if w not in dist and room(arc) > 0:
                    if w in targets:
                        return depth
                    dist[w] = depth
                    nxt.append(w)
        frontier = nxt
    return None
