"""Candidate augmenting paths, their deterministic labels, and chain depths.

Paths are vertex-simple directed S->T walks of bounded length.  Each path gets
a pseudo-random label derived by a keyed hash from its id sequence and a seed;
because node and edge ids survive subgraph extraction, a path carries the same
label in the full network and in any ball that contains it.  Ordering is
(length, label, raw key): label realizes a uniform draw in [0, 1), the raw key
breaks the measure-zero ties so that no two paths ever compare equal.

A chain is a sequence of pairwise-consecutively-intersecting paths with
strictly decreasing order keys; the depth of a path is the length of the
longest chain starting at it.  Depths depend only on topology, labels and the
length cap, never on capacities, so the skip set of the chain-skipping run is
precomputable.
"""

from __future__ import annotations

import hashlib
import weakref
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .graph_core import (
    AB,
    BA,
    ColoredGraph,
    DirectedEdgeRef,
    Flow,
    Ticks,
    validate_flow,
)

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True, eq=False)
class AugPathCandidate:
    """A directed S->T path: node sequence plus the oriented edges along it."""

    nodes: tuple[int, ...]
    edges: tuple[DirectedEdgeRef, ...]
    canonical_key: bytes

    @property
    def length(self) -> int:
        return len(self.edges)

    @property
    def edge_ids(self) -> frozenset[int]:
        return frozenset(ref.edge_id for ref in self.edges)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AugPathCandidate):
            return NotImplemented
        return self.canonical_key == other.canonical_key

    def __hash__(self) -> int:
        return hash(self.canonical_key)


def make_path(nodes: Sequence[int], edges: Sequence[DirectedEdgeRef]) -> AugPathCandidate:
    """Build a candidate, deriving its canonical byte key.

    The key interleaves node and edge ids ("n0,e0,n1,e1,...,nk") so it stays
    injective when parallel edges give two paths the same node sequence.
    """
    if len(nodes) != len(edges) + 1:
        raise ValueError("path must have one more node than edges")
    parts: list[str] = [str(nodes[0])]
    for ref, nxt in zip(edges, nodes[1:]):
        parts.append(str(ref.edge_id))
        parts.append(str(nxt))
    return AugPathCandidate(tuple(nodes), tuple(edges), ",".join(parts).encode("ascii"))


@dataclass(frozen=True, order=True)
class OrderKey:
    """Total processing order: shorter first, then hash label, then raw key."""

    length: int
    hash_label: int
    tiebreak: bytes


def path_key(u: AugPathCandidate, seed: int) -> OrderKey:
    """Deterministic order key; stable across machines, runs and subgraphs."""
    digest = hashlib.blake2b(
        u.canonical_key, digest_size=8, key=(seed & _MASK64).to_bytes(8, "big")
    ).digest()
    return OrderKey(u.length, int.from_bytes(digest, "big"), u.canonical_key)


def intersects(u: AugPathCandidate, v: AugPathCandidate) -> bool:
    """True iff the two paths share an undirected edge (orientation ignored)."""
    return not u.edge_ids.isdisjoint(v.edge_ids)


# Enumeration depends only on (graph, l), never on seeds or capacities, so
# multi-seed sweeps share it.  Keyed by graph identity.
_PATH_CACHE: "weakref.WeakKeyDictionary[ColoredGraph, dict]" = weakref.WeakKeyDictionary()


def enumerate_paths(g: ColoredGraph, l: int) -> list[AugPathCandidate]:
    """All vertex-simple directed S->T paths with at most l edges.

    Capacities are never consulted; whether a candidate can actually augment
    is a question for augmentation time.  Interior nodes may have any color.
    The result is sorted by canonical key, each path exactly once.  The graph
    is valid by construction, so it is not checked here.
    """
    if l < 1:
        raise ValueError(f"path length cap must be >= 1, got {l}")
    per_graph = _PATH_CACHE.setdefault(g, {})
    cached = per_graph.get(l)
    if cached is not None:
        return list(cached)

    # Adjacency as (edge_id, other endpoint, orientation leaving this node).
    step: dict[int, list[tuple[int, int, str]]] = {nd.id: [] for nd in g.nodes}
    for e in g.edges:
        step[e.a].append((e.id, e.b, AB))
        step[e.b].append((e.id, e.a, BA))

    color = {nd.id: nd.color for nd in g.nodes}
    out: list[AugPathCandidate] = []
    for s in g.nodes_of_color("S"):
        _extend(step, color, l, out, [s], [], {s})

    bound = len(g.nodes_of_color("S")) * g.degree_bound**l
    if len(out) > bound:
        raise RuntimeError(f"path count {len(out)} exceeds |S|*d^l bound {bound}")
    out.sort(key=lambda u: u.canonical_key)
    per_graph[l] = tuple(out)
    return out


def _extend(
    step: Mapping[int, list[tuple[int, int, str]]],
    color: Mapping[int, str],
    l: int,
    out: list[AugPathCandidate],
    node_seq: list[int],
    edge_seq: list[DirectedEdgeRef],
    on_path: set[int],
) -> None:
    """Depth-first growth of the simple path node_seq, appending each S->T path
    found to out.  Module-level rather than a nested closure: a closure that
    calls itself is a reference cycle, which would keep step and color alive
    until the cyclic collector runs."""
    for eid, nxt, orientation in step[node_seq[-1]]:
        if nxt in on_path:
            continue
        node_seq.append(nxt)
        edge_seq.append(DirectedEdgeRef(eid, orientation))
        if color[nxt] == "T":
            out.append(make_path(node_seq, edge_seq))
        if len(edge_seq) < l:
            on_path.add(nxt)
            _extend(step, color, l, out, node_seq, edge_seq, on_path)
            on_path.remove(nxt)
        node_seq.pop()
        edge_seq.pop()


def chain_depth_all(paths: Iterable[AugPathCandidate], seed: int) -> dict[bytes, int]:
    """Depth of every path, keyed by canonical key: 1 + the max depth over
    smaller-key intersecting paths.

    Single pass in increasing key order; per undirected edge we keep the best
    depth seen so far, so each path costs O(length) after sorting.
    """
    return _chain_depths(sorted(paths, key=lambda u: path_key(u, seed)))


def _chain_depths(ordered: Iterable[AugPathCandidate]) -> dict[bytes, int]:
    """chain_depth_all's pass over paths already sorted by path_key."""
    depths: dict[bytes, int] = {}
    best_at_edge: dict[int, int] = {}
    for u in ordered:
        if u.canonical_key in depths:
            raise ValueError("duplicate path in chain depth input")
        below = 0
        for eid in u.edge_ids:
            got = best_at_edge.get(eid, 0)
            if got > below:
                below = got
        d = below + 1
        depths[u.canonical_key] = d
        for eid in u.edge_ids:
            if best_at_edge.get(eid, 0) < d:
                best_at_edge[eid] = d
    return depths


def residual_capacity(g: ColoredGraph, f: Flow, u: AugPathCandidate) -> Ticks:
    """min over the path's directed edges of c(e) - f(e); 0 means not augmenting."""
    validate_flow(g, f).raise_if_invalid("flow")
    slack: Ticks | None = None
    for ref in u.edges:
        e = g.edge(ref.edge_id)
        room = e.cap(ref.orientation) - f.on(ref)
        if slack is None or room < slack:
            slack = room
    if slack is None:
        raise ValueError("path has no edges")
    return slack
