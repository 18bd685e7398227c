"""Exact maximum flow for multisource-multitarget networks.

Ground truth for every approximation claim: shortest-augmenting-path
(Edmonds-Karp) augmentation on integer ticks, over the residual capacities of
g's own arcs.  One layered search serves every question asked of the
residual network: it starts at every S node at depth 0, follows only arcs
with room, and stops at the first T node it reaches.  Its path is the next
augmenting path; the nodes of the last search, which reaches no T node, are
the source side of a minimum cut and the certificate of optimality.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph_core import ColoredGraph, Flow, _Residuals, _source_outflow, validate_flow


@dataclass(frozen=True)
class MaxFlowResult:
    flow: Flow
    value: int
    residual_cut: frozenset[int]


def _search(
    g: ColoredGraph, res: _Residuals, sources: list[int], l_max: int | None = None
) -> tuple[list[int] | None, dict[int, int | None]]:
    """Layered search from every source at depth 0 over the arcs with room in res.

    Stops at the first T node it reaches, or after ``l_max`` layers.  Returns
    the arcs of a shortest residual path from a source to that T node (None
    when none is reached) and the arc by which the search entered each node
    it reached (None at the sources).
    """
    adj, node, edge = g._adj, g._node_by_id, g._edge_by_id
    parent: dict[int, int | None] = dict.fromkeys(sources)
    frontier = list(parent)
    depth = 0
    while frontier and (l_max is None or depth < l_max):
        depth += 1
        nxt = []
        for u in frontier:
            steps = iter(adj[u])
            for w, arc in zip(steps, steps):
                if w in parent or res[arc] <= 0:
                    continue
                parent[w] = arc
                if node[w].color == "T":
                    arcs = []
                    while arc is not None:
                        arcs.append(arc)
                        e = edge[arc >> 1]
                        arc = parent[e.b if arc & 1 else e.a]  # the arc's tail
                    arcs.reverse()
                    return arcs, parent
                nxt.append(w)
        frontier = nxt
    return None, parent


def max_flow(g: ColoredGraph) -> MaxFlowResult:
    """Maximum flow value, an attaining flow, and the source-side min cut."""
    res = _Residuals(g)
    sources = g.nodes_of_color("S")
    while True:
        arcs, reached = _search(g, res, sources)
        if arcs is None:
            break
        amount = min(res[arc] for arc in arcs)
        for arc in arcs:
            res[arc] -= amount
            res[arc ^ 1] += amount
    f = res.flow()
    validate_flow(g, f).raise_if_invalid("max-flow output")
    return MaxFlowResult(flow=f, value=int(_source_outflow(g, f)), residual_cut=frozenset(reached))


def shortest_augmenting_path_length(
    g: ColoredGraph, f: Flow, l_max: int | None = None
) -> int | None:
    """Edge count of the shortest residual S->T path; None if absent.

    A search from all sources simultaneously over the residual edge set
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
    arcs, _ = _search(g, _Residuals(g, f), g.nodes_of_color("S"), l_max)
    return None if arcs is None else len(arcs)
