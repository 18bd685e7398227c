"""Candidate augmenting paths, their deterministic labels, and chain depths.

Paths are vertex-simple directed S->T walks of bounded length, all found by
one layered walk search (``_simple_walks``): the global list runs it from each
S node with cap l, and ``_PathIndex``, the query tree's paths through each
edge, from each first step (arc) out of an endpoint of an edge with cap l-1,
once per arc.  A path holds its edges as
arcs: edge e read AB is the int 2*e and read BA is 2*e + 1, so an arc's edge
is ``arc >> 1``, its reversal is ``arc ^ 1``, and residual capacities and
chain depths live in one flat table indexed by arc: a list when the edge ids
are 0..|E|-1, a dict otherwise.

Each path gets a pseudo-random label derived by a keyed hash from its id
sequence and a seed; because node and edge ids survive subgraph extraction, a
path carries the same label in the full network and in any ball that
contains it.  Ordering is (length, label, raw key): label realizes a uniform
draw in [0, 1), the raw key breaks the measure-zero ties so that no two paths
ever compare equal.  The global list is kept in (length, raw key) order, that
order without the label, so a seed's order hashes each path once and sorts
each run of one length by label alone (``_key_order``).

A chain is a sequence of pairwise-consecutively-intersecting paths with
strictly decreasing order keys; the depth of a path is the length of the
longest chain starting at it.  Depths depend only on topology, labels and the
length cap, never on capacities, so the skip set of the chain-skipping run is
precomputable.  That run asks only whether a depth reaches its threshold s,
so it computes depths capped at s (``_chain_depths``).
"""

from __future__ import annotations

import hashlib
import weakref
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from operator import attrgetter
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
def _labeller(seed: int) -> Callable[[], "hashlib.blake2b"]:
    """The labelling seam under a seed: a path's 64-bit hash label is the
    blake2b digest, keyed by the seed, of its canonical key.  This returns
    the keyed state's ``copy``, built once per seed, so each key is hashed
    from a copy of it; ``path_key`` and ``_key_order`` both label through
    it."""
    return hashlib.blake2b(digest_size=8, key=(seed & _MASK64).to_bytes(8, "big")).copy


def path_key(u: AugPathCandidate, seed: int) -> OrderKey:
    """Deterministic order key; stable across machines, runs and subgraphs."""
    ck = u.canonical_key
    h = _labeller(seed)()
    h.update(ck)
    return tuple.__new__(OrderKey, (len(u.arcs), int.from_bytes(h.digest(), "big"), ck))


def _list_order(paths: list[AugPathCandidate]) -> None:
    """Sort paths in place into (length, canonical key) order, the order
    ``enumerate_paths`` lists them in: ``path_key`` without the label.  Two
    stable sorts, canonical key then length, rather than one by a tuple,
    which would hold a tuple per path at the sort's peak."""
    paths.sort(key=attrgetter("canonical_key"))
    paths.sort(key=attrgetter("length"))


def _key_order(paths: list[AugPathCandidate], seed: int) -> list[AugPathCandidate]:
    """``paths``, given in (length, canonical key) order, sorted by ``path_key``.

    Each path is hashed once, from a copy of the seed's keyed state
    (``_labeller``), into its 8-byte digest, and each run of one length is
    sorted by its digests, which compare as the big-endian labels do.  Paths
    with equal digests keep their input order, since Python's sort is
    stable, and the input is in canonical-key order within a length, which
    is path_key's last field.  The runs are found by bisection on length.
    """
    copy = _labeller(seed)
    digests = []
    append = digests.append
    for u in paths:
        h = copy()
        h.update(u.canonical_key)
        append(h.digest())
    digest, at = digests.__getitem__, paths.__getitem__
    out: list[AugPathCandidate] = []
    lo, n = 0, len(paths)
    while lo < n:
        hi = bisect_right(paths, paths[lo].length, lo, n, key=attrgetter("length"))
        out += map(at, sorted(range(lo, hi), key=digest))
        lo = hi
    return out


# Paths depend only on (graph, l), never on seeds or capacities, so
# multi-seed runs share them.  Keyed by graph identity; per graph:
# l -> the global path list, in (length, canonical key) order;
# (l, "order") -> (seed, that list in seed's key order), from the last
#   ``_global_order`` call on (g, l); the sweeps read it, and
#   ``verify_locality`` ranks the query tree's paths by it.  A call at
#   another seed replaces the pair, never the list, so a live ``RunTrace``
#   keeps its own seed's order;
# (l, "tree") -> the query tree's ``_PathIndex``, shared by ``verify_locality``;
# (radius, "balls") -> edge id -> ``verify_locality``'s ball around the edge.
# No value refers to the graph, so the cache never keeps a graph alive.
_PATH_CACHE: "weakref.WeakKeyDictionary[ColoredGraph, dict]" = weakref.WeakKeyDictionary()


def _global_order(g: ColoredGraph, l: int, seed: int) -> list[AugPathCandidate]:
    """g's paths of at most l edges in seed's key order, sorted by
    ``_key_order`` and kept in the path cache until a call on (g, l) at
    another seed, so the runs and checks at one seed label and sort the
    paths once.  Callers read the list and never change it; a run's trace
    keeps it, so it outlives its cache entry while the trace lives."""
    per_graph = _PATH_CACHE.setdefault(g, {})
    kept = per_graph.get((l, "order"))
    if kept is None or kept[0] != seed:
        kept = per_graph[l, "order"] = (seed, _key_order(enumerate_paths(g, l), seed))
    return kept[1]


# The most non-backtracking S->T walks of at most l edges a graph may have for
# its paths to be listed.
_MAX_WALKS = 10**7


def enumerate_paths(g: ColoredGraph, l: int) -> list[AugPathCandidate]:
    """All vertex-simple directed S->T paths with at most l edges.

    Capacities are never consulted; whether a candidate can actually augment
    is a question for augmentation time.  Interior nodes may have any color.
    The result is sorted by (length, canonical key), ``path_key`` without the
    label, each path exactly once, so ``_key_order`` need only sort each
    length run by label.  The graph is valid by construction, so it is not
    checked here.  Each path is found once, from its S end, by
    ``_simple_walks`` with cap l.  A graph with more than ``_MAX_WALKS``
    non-backtracking S->T walks of at most l edges is refused before any
    path is listed, and one with none is not searched.
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
            to_t = _simple_walks(g._adj, g._node_by_id, ((s,), (), ()), l, False)[1]
            out += [make_path(*w) for w in to_t]
    _list_order(out)
    per_graph[l] = tuple(out)
    return out


def _simple_walks(adj: dict, node: dict, start: tuple, cap: int,
                  into: bool) -> tuple[list[tuple], list[tuple]]:
    """The (nodes, arcs) of every vertex-simple walk of at most cap edges
    that begins with the walk start and ends at an S node, read S first, and
    of every one that ends at a T node, shortest first.  start is (nodes,
    arcs, back), back being its arcs read backwards: a node ``((v,), (), ())``
    or a first step ``((v, w), (arc,), (arc ^ 1,))``.  One layered search
    over a graph's adjacency and nodes by id (``_adj``, ``_node_by_id``),
    read in place, which reads each walk backwards as it grows it.  When
    into is false the caller keeps only the walks to T nodes, so none to an
    S node is listed or read backwards.  No walk is grown to cap edges at an
    end that is not kept (R, or S when into is false): it can be neither
    kept nor grown, and its end is read either way."""
    to_s: list[tuple] = []
    to_t: list[tuple] = []
    kept = ("S", "T") if into else ("T",)
    layer = [start]
    for length in range(len(start[1]), cap + 1):
        grown = []
        for nodes, arcs, back in layer:
            end = nodes[-1]
            color = node[end].color
            if color == "T":
                to_t.append((nodes, arcs))
            elif color == "S" and into:
                to_s.append((nodes[::-1], back))
            if length < cap:
                steps = iter(adj[end])
                for nxt, arc in zip(steps, steps):
                    if nxt not in nodes and (length < cap - 1 or node[nxt].color in kept):
                        grown.append((nodes + (nxt,), arcs + (arc,),
                                      (arc ^ 1,) + back if into else back))
        layer = grown
    return to_s, to_t


class _PathIndex:
    """The query tree's walks and paths on (g, l), which depend on neither
    seed nor s, each built on first use and kept.

    The walks are kept per branch, that is, per arc leaving a node: the
    branch of arc v->w holds the vertex-simple walks of at most l-1 edges
    that leave v by that arc, both those from S nodes into v and those from
    v to T nodes, from one run of the layered walk search that lists the
    global paths (``_simple_walks``), so each arc is searched at most once.
    Listing the paths through edge (a, b) joins S-walks into a with T-walks
    out of b: a walk out of a whose first stop is b meets every walk out of
    b, so the join reads, and grows, only the branches of a and of b whose
    first stop is not the edge's other end.  The trivial walk (v,) comes
    from v's colour.  A path is known by its arcs: one found again through
    another of its edges is looked up, and only a new one is built.  The
    paths through an edge are listed once per edge id and shared by both
    orientations and every seed.  The index holds g's tables, not g, so the
    path cache, which holds ``verify_locality``'s index per (g, l), never
    keeps a graph alive.
    """

    def __init__(self, g: ColoredGraph, l: int):
        self.l = l
        self._adj, self._node_by_id, self._edge_by_id = g._adj, g._node_by_id, g._edge_by_id
        self._branches: dict[int, tuple[list[tuple], list[tuple]]] = {}  # by first arc
        self._through: dict[int, tuple[tuple[AugPathCandidate, int], ...]] = {}
        self._paths: dict[tuple[int, ...], AugPathCandidate] = {}  # by arcs

    def through(self, eid: int) -> tuple[tuple[AugPathCandidate, int], ...]:
        """(path, +1 if it uses eid AB else -1) for every vertex-simple S->T
        path of at most l edges through eid, either way: an S-to-tail walk,
        the edge, then a node-disjoint head-to-T walk."""
        got = self._through.get(eid)
        if got is None:
            e = self._edge_by_id[eid]
            paths = self._paths
            found = []
            a_into, a_out = self._walks(e.a, e.b)
            b_into, b_out = self._walks(e.b, e.a)
            for prefixes, suffixes, arc, sign in ((a_into, b_out, 2 * eid, 1),
                                                  (b_into, a_out, 2 * eid + 1, -1)):
                if not suffixes:
                    continue
                for p_nodes, p_arcs in chain.from_iterable(prefixes):
                    room = self.l - 1 - len(p_arcs)
                    on_prefix = set(p_nodes)
                    through = p_arcs + (arc,)
                    for ends in suffixes:
                        for s_nodes, s_arcs in ends:
                            if len(s_arcs) > room:
                                break
                            if on_prefix.isdisjoint(s_nodes):
                                arcs = through + s_arcs
                                u = paths.get(arcs)
                                if u is None:
                                    u = paths[arcs] = make_path(p_nodes + s_nodes, arcs)
                                found.append((u, sign))
            got = self._through[eid] = tuple(found)
        return got

    def _walks(self, v: int, other: int | None) -> tuple[list[list[tuple]], list[list[tuple]]]:
        """(into, out of) v: the nonempty lists of (nodes, arcs) of the
        vertex-simple walks of at most l-1 edges from S nodes into v, and from
        v to T nodes, whose stop next to v is not other.  The trivial walk
        comes first if v has the colour, then each branch's list, shortest
        first, growing each branch not grown yet."""
        color = self._node_by_id[v].color
        into = [[((v,), ())]] if color == "S" else []
        out = [[((v,), ())]] if color == "T" else []
        if self.l > 1:
            branches = self._branches
            steps = iter(self._adj[v])
            for w, arc in zip(steps, steps):
                if w != other:
                    got = branches.get(arc)
                    if got is None:
                        start = ((v, w), (arc,), (arc ^ 1,))
                        got = branches[arc] = _simple_walks(
                            self._adj, self._node_by_id, start, self.l - 1, True)
                    to_s, to_t = got
                    if to_s:
                        into.append(to_s)
                    if to_t:
                        out.append(to_t)
        return into, out


# Only tests call this; it stays because the benchmark's tracer targets it.
def chain_depth_all(paths: Iterable[AugPathCandidate], seed: int) -> dict[bytes, int]:
    """Depth of every path, keyed by canonical key: 1 + the max depth over
    smaller-key intersecting paths."""
    listed = list(paths)
    _list_order(listed)
    ordered = _key_order(listed, seed)
    depths: dict[bytes, int] = {}
    for u, d in zip(ordered, _chain_depths(ordered, defaultdict(int))):
        if u.canonical_key in depths:
            raise ValueError("duplicate path in chain depth input")
        depths[u.canonical_key] = d
    return depths


def _chain_depths(ordered: Iterable[AugPathCandidate], best: list | dict,
                  cap: int | None = None) -> Iterator[int]:
    """The chain depth of each path of ``ordered``, which is sorted by
    path_key, in turn, capped at cap if one is given: single pass, O(length)
    per path.

    ``best`` is a table indexed by arc that reads 0 at every arc of the
    paths, which this fills: per arc, the largest (capped) depth of a path
    seen so far through its edge, the same for both arcs of an edge.  A
    path's depth d is one more than the largest entry over its arcs, or the
    cap if that is less, so no entry it replaces is larger, and the update
    needs no comparison.

    With a cap s, the pass yields and stores C(u) = min(s, 1 + max C(v))
    over u's predecessors v.  By induction over the order, each C(v) is
    min(s, D(v)) for the true depth D, so C(u) = min(s, 1 + min(s, max D(v)))
    = min(s, D(u)): C(u) = s exactly when D(u) >= s, which is all the
    skipping run asks.  No entry ever exceeds s, so a path whose arcs all
    read s already has C(u) = s, and its writes would change nothing: it is
    yielded without them.  Such paths are most of a dense graph's (49 198 of
    51 335 on a 30x40 grid at l=6, s=3).  The first arc is read alone before
    the others, so a path with its first arc below s, as most are on a
    sparse graph, pays one lookup for the check.  The true depths are asked
    for with no cap.
    """
    at = best.__getitem__
    for u in ordered:
        arcs = u.arcs
        if cap is not None and best[arcs[0]] >= cap and min(map(at, arcs)) >= cap:
            yield cap
            continue
        d = 1 + max(map(at, arcs))
        if cap is not None and d > cap:
            d = cap
        for arc in arcs:
            best[arc] = best[arc ^ 1] = d
        yield d
