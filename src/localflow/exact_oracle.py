"""Exact maximum flow for multisource-multitarget networks.

Ground truth for every approximation claim: Dinic's blocking-flow method on
integer ticks, over the residual capacities of g's own arcs in one flat table
(``graph_core._residuals``).  One layered search serves every question asked
of the residual network: it starts at every S node at level 0, follows only
arcs with room, expands no T node, and stops after the first layer that holds
a T node.  That layer's level is the length of a shortest augmenting path.
Each phase of ``max_flow`` augments along paths that climb the levels one
layer per arc until none is left; the nodes of the last search, which
reaches no T node, are the source side of a minimum cut and the certificate
of optimality.  ``_shortest_augmenting_path_length`` asks the same search
for the length of a shortest augmenting path under a given flow.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph_core import (
    ColoredGraph,
    Flow,
    _residual_flow,
    _residuals,
    _source_outflow,
    validate_flow,
)


@dataclass(frozen=True)
class MaxFlowResult:
    flow: Flow
    value: int
    residual_cut: frozenset[int]


def _levels(
    g: ColoredGraph, res: list | dict, sources: list[int], l_max: int | None = None
) -> tuple[dict[int, int], int | None]:
    """Layered search from every source at level 0 over the arcs with room in res.

    Expands no T node, and stops after the first layer that holds one, or
    after ``l_max`` layers.  Returns the level of every node it reached and
    the level of that layer (None when it reached no T node).
    """
    adj, node = g._adj, g._node_by_id
    level = dict.fromkeys(sources, 0)
    frontier = sources
    depth = 0
    while frontier and (l_max is None or depth < l_max):
        depth += 1
        nxt = []
        for u in frontier:
            steps = iter(adj[u])
            for w, arc in zip(steps, steps):
                if w in level or res[arc] <= 0:
                    continue
                level[w] = depth
                nxt.append(w)
        frontier = [w for w in nxt if node[w].color != "T"]
        if len(frontier) < len(nxt):
            return level, depth
    return level, None


def _blocking_flow(
    g: ColoredGraph, res: list | dict, level: dict[int, int], sources: list[int]
) -> None:
    """Augment res along paths from the sources to T nodes whose arcs each
    climb one level, until every such path has an arc without room.

    An iterative depth-first search from each source in turn.  ``ahead``
    holds per node the index in its adjacency of the next arc to try: an arc
    passed over is never tried again in this phase, and a node whose arcs
    are used up is left for good.  After augmenting, the search backs up to
    the tail of the first arc left without room.
    """
    adj, node = g._adj, g._node_by_id
    ahead = dict.fromkeys(level, 0)
    for s in sources:
        nodes, arcs = [s], []
        while nodes:
            v = nodes[-1]
            if node[v].color == "T":
                amount = min(map(res.__getitem__, arcs))
                for arc in arcs:
                    res[arc] -= amount
                    res[arc ^ 1] += amount
                k = next(i for i, arc in enumerate(arcs) if not res[arc])
                del nodes[k + 1:], arcs[k:]
                continue
            steps, i, up = adj[v], ahead[v], level[v] + 1
            while i < len(steps) and (level.get(steps[i]) != up or res[steps[i + 1]] <= 0):
                i += 2
            ahead[v] = i
            if i < len(steps):
                nodes.append(steps[i])
                arcs.append(steps[i + 1])
            else:  # no way on from v in this phase
                nodes.pop()
                if arcs:
                    arcs.pop()
                    ahead[nodes[-1]] += 2


def max_flow(g: ColoredGraph) -> MaxFlowResult:
    """Maximum flow value, an attaining flow, and the source-side min cut."""
    res = _residuals(g)
    sources = g.nodes_of_color("S")
    while True:
        level, sink = _levels(g, res, sources)
        if sink is None:
            break
        _blocking_flow(g, res, level, sources)
    f = _residual_flow(g, res)
    validate_flow(g, f).raise_if_invalid("max-flow output")
    return MaxFlowResult(flow=f, value=int(_source_outflow(g, f)), residual_cut=frozenset(level))


def _shortest_augmenting_path_length(
    g: ColoredGraph, f: Flow, l_max: int | None = None
) -> int | None:
    """Edge count of a shortest residual S->T path under f, a flow already
    validated on g; None if there is none, or none of at most ``l_max``
    edges.  The harness's certificate that A1 leaves no short path."""
    return _levels(g, _residuals(g, f), g.nodes_of_color("S"), l_max)[1]
