"""Candidate augmenting paths, their deterministic labels, and chain depths.

Paths are vertex-simple directed S->T walks of bounded length, all found by
one layered walk search (``_simple_walks``): the global list runs it from each
S node with cap l, the query tree of ``local_flow`` from each endpoint of an
edge with cap l-1.  A path holds its edges as arcs: edge e read AB is the int
2*e and read BA is 2*e + 1, so an arc's edge is ``arc >> 1``, its reversal is
``arc ^ 1``, and residual capacities and per-edge tables can live in one flat
dict keyed by arc.

Each path gets a pseudo-random label derived by a keyed hash from its id
sequence and a seed; because node and edge ids survive subgraph extraction, a
path carries the same label in the full network and in any ball that
contains it.  Ordering is (length, label, raw key): label realizes a uniform
draw in [0, 1), the raw key breaks the measure-zero ties so that no two paths
ever compare equal.

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
from functools import lru_cache
from itertools import repeat
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .graph_core import AB, BA, ColoredGraph, DirectedEdgeRef

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True, eq=False, slots=True)
class AugPathCandidate:
    """A directed S->T path: node sequence plus the arcs along it.

    Arc 2*e runs edge e from its endpoint a to b (AB), arc 2*e + 1 from b
    to a (BA); ``edges``, ``edge_ids`` and ``length`` are read off the arcs.
    """

    nodes: tuple[int, ...]
    arcs: tuple[int, ...]
    canonical_key: bytes

    @property
    def edges(self) -> tuple[DirectedEdgeRef, ...]:
        return tuple(DirectedEdgeRef(arc >> 1, BA if arc & 1 else AB) for arc in self.arcs)

    @property
    def edge_ids(self) -> frozenset[int]:
        return frozenset(arc >> 1 for arc in self.arcs)

    @property
    def length(self) -> int:
        return len(self.arcs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AugPathCandidate):
            return NotImplemented
        return self.canonical_key == other.canonical_key

    def __hash__(self) -> int:
        return hash(self.canonical_key)


def make_path(nodes: Sequence[int], arcs: Sequence[int]) -> AugPathCandidate:
    """Build a candidate, deriving its canonical byte key.

    The key interleaves node and edge ids ("n0,e0,n1,e1,...,nk") so it stays
    injective when parallel edges give two paths the same node sequence.
    """
    if len(nodes) != len(arcs) + 1:
        raise ValueError("path must have one more node than edges")
    parts: list[str] = [str(nodes[0])]
    for arc, nxt in zip(arcs, nodes[1:]):
        parts.append(str(arc >> 1))
        parts.append(str(nxt))
    return AugPathCandidate(tuple(nodes), tuple(arcs), ",".join(parts).encode("ascii"))


class OrderKey(NamedTuple):
    """Total processing order: shorter first, then hash label, then raw key.

    A tuple, so keys compare in C rather than through a Python ``__lt__``.
    """

    length: int
    hash_label: int
    tiebreak: bytes


@lru_cache(maxsize=8)
def _labeller(seed: int) -> Callable[[bytes], int]:
    """The 64-bit hash label under a seed, as a function of a canonical key:
    blake2b keyed by the seed.  The keyed state is built once per seed and
    copied for each key."""
    copy = hashlib.blake2b(digest_size=8, key=(seed & _MASK64).to_bytes(8, "big")).copy
    from_bytes = int.from_bytes

    def label(canonical_key: bytes) -> int:
        h = copy()
        h.update(canonical_key)
        return from_bytes(h.digest(), "big")

    return label


def path_key(u: AugPathCandidate, seed: int) -> OrderKey:
    """Deterministic order key; stable across machines, runs and subgraphs."""
    ck = u.canonical_key
    return tuple.__new__(OrderKey, (len(u.arcs), _labeller(seed)(ck), ck))


def _key_order(paths: list[AugPathCandidate], seed: int) -> list[AugPathCandidate]:
    """``paths``, given in canonical-key order, sorted by ``path_key``.

    One int per path instead of an ``OrderKey``: (length << 64) | label
    orders as (length, label) does, since a label is below 2**64.  Paths
    equal in both keep their input order, because Python's sort is stable,
    and the input is in canonical-key order, which is path_key's last field.
    """
    label = _labeller(seed)
    return sorted(paths, key=lambda u: (len(u.arcs) << 64) | label(u.canonical_key))


# Enumeration depends only on (graph, l), never on seeds or capacities, so
# multi-seed sweeps share it.  Keyed by graph identity.
_PATH_CACHE: "weakref.WeakKeyDictionary[ColoredGraph, dict]" = weakref.WeakKeyDictionary()

# The most non-backtracking S->T walks of at most l edges a graph may have for
# its paths to be listed.
_MAX_WALKS = 10**7


def enumerate_paths(g: ColoredGraph, l: int) -> list[AugPathCandidate]:
    """All vertex-simple directed S->T paths with at most l edges.

    Capacities are never consulted; whether a candidate can actually augment
    is a question for augmentation time.  Interior nodes may have any color.
    The result is sorted by canonical key, each path exactly once.  The graph
    is valid by construction, so it is not checked here.  Each path is found
    once, from its S end, by ``_simple_walks`` with cap l.  A graph with more
    than ``_MAX_WALKS`` non-backtracking S->T walks of at most l edges is
    refused before any path is listed, and one with none is not searched.
    """
    if l < 1:
        raise ValueError(f"bad field 'l': expected a path length cap >= 1, got {l}")
    per_graph = _PATH_CACHE.setdefault(g, {})
    cached = per_graph.get(l)
    if cached is not None:
        return list(cached)

    color = {nd.id: nd.color for nd in g.nodes}
    # Every path is an S->T walk of at most l edges that never takes the
    # reverse of the arc it arrived by.  Count those walks, in O(l*|E|),
    # before listing any path: ``ways`` holds the walks of the current length
    # per last arc and ``into`` their sum per end node, so the walks leaving v
    # by arc are those into v less those that arrived by arc ^ 1.
    into, ways, walks = dict.fromkeys(g.nodes_of_color("S"), 1), {}, 0
    for _ in range(l):
        grown: dict[int, int] = {}
        grown_into: dict[int, int] = {}
        for v, count in into.items():
            steps = iter(g._adj[v])
            for w, arc in zip(steps, steps):
                c = count - ways.get(arc ^ 1, 0)
                if c:
                    grown[arc] = c
                    grown_into[w] = grown_into.get(w, 0) + c
        ways, into = grown, grown_into
        walks += sum(count for v, count in into.items() if color[v] == "T")
        if walks > _MAX_WALKS:
            raise ValueError(f"path length cap l={l} is too large for this graph: more than "
                             f"{_MAX_WALKS} non-backtracking S->T walks of at most {l} edges")
    out: list[AugPathCandidate] = []
    if walks:  # with no such walk there is no path, and nothing to search
        for s in g.nodes_of_color("S"):
            out += [make_path(*w) for w in _simple_walks(g, s, l)[1]]
    out.sort(key=lambda u: u.canonical_key)
    per_graph[l] = tuple(out)
    return out


def _simple_walks(g: ColoredGraph, v: int, cap: int) -> tuple[list[tuple], list[tuple]]:
    """The (nodes, arcs) of every vertex-simple walk of at most cap edges from
    v that ends at an S node, and of every one that ends at a T node, shortest
    first.  One layered search from v over g's adjacency, read in place.  A
    walk of cap edges that would end at an R node is never built: it can be
    neither kept nor grown, and its end is read either way."""
    adj, node = g._adj, g._node_by_id
    to_s: list[tuple] = []
    to_t: list[tuple] = []
    layer = [((v,), ())]
    for length in range(cap + 1):
        grown = []
        for nodes, arcs in layer:
            end = nodes[-1]
            color = node[end].color
            if color == "T":
                to_t.append((nodes, arcs))
            elif color == "S":
                to_s.append((nodes, arcs))
            if length < cap:
                steps = iter(adj[end])
                for nxt, arc in zip(steps, steps):
                    if nxt not in nodes and (length < cap - 1 or node[nxt].color != "R"):
                        grown.append((nodes + (nxt,), arcs + (arc,)))
        layer = grown
    return to_s, to_t


def chain_depth_all(paths: Iterable[AugPathCandidate], seed: int) -> dict[bytes, int]:
    """Depth of every path, keyed by canonical key: 1 + the max depth over
    smaller-key intersecting paths."""
    ordered = sorted(paths, key=lambda u: path_key(u, seed))
    depths: dict[bytes, int] = {}
    for u, d in zip(ordered, _chain_depths(ordered)):
        if u.canonical_key in depths:
            raise ValueError("duplicate path in chain depth input")
        depths[u.canonical_key] = d
    return depths


def _chain_depths(ordered: Iterable[AugPathCandidate]) -> Iterator[int]:
    """The chain depth of each path of ``ordered``, which is sorted by
    path_key, in turn: single pass, O(length) per path.

    ``best`` holds, per arc, the largest depth of a path seen so far through
    its edge, the same for both arcs of an edge.  A path's depth d is one
    more than the largest entry over its arcs, so d exceeds every entry it
    replaces, and the update needs no comparison.
    """
    best: dict[int, int] = {}
    get = best.get
    zeros = repeat(0)
    for u in ordered:
        arcs = u.arcs
        d = 1 + max(map(get, arcs, zeros))
        for arc in arcs:
            best[arc] = best[arc ^ 1] = d
        yield d
