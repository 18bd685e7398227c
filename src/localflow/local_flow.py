"""Label-ordered augmentation, its chain-skipping variant, and locality checks.

Both runs start from the zero flow and sweep every candidate path once in
increasing order-key order, augmenting by the path's residual capacity.  The
plain run (A1) processes everything; the skipping run (A2) refuses any path
whose chain depth reaches the threshold s, which is what confines each edge's
final value to a ball around it.  ``LocalEvaluator`` computes that value
without a sweep, as a memoised query tree over the paths through the edge and
their predecessors, reading nothing beyond s*(l-1) hops of the edge.
``local_f2_edge`` runs it on the ball of radius s*l alone, read in place in
g rather than built as a graph, and ``verify_locality`` checks edge by edge
that this reproduces the global run bit for bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from typing import NamedTuple

from .graph_core import (
    AB,
    ColoredGraph,
    DirectedEdgeRef,
    Edge,
    Flow,
    _int_field,
    _Residuals,
    ball_nodes,
    validate_flow,
)
from .parallel import parallel_map
from .path_engine import (
    AugPathCandidate,
    OrderKey,
    _chain_depths,
    _key_order,
    enumerate_paths,
    make_path,
    path_key,
)

AUGMENTED = "AUGMENTED"
SKIPPED_CHAIN = "SKIPPED_CHAIN"
ZERO_CAPACITY = "ZERO_CAPACITY"


@dataclass(frozen=True)
class RunConfig:
    """Parameters of a run: length cap l, skip threshold s, labeling seed.

    Checked when built: l is an integer >= 1, s is None (enough for A1,
    which never skips) or an integer >= 1, and seed is an integer; floats,
    bools and numeric strings are refused, as in graph JSON.
    ``length_cap`` gives the l that targets an error epsilon on a graph; s
    has no such closed form.
    """

    l: int
    s: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        fields = vars(self)
        _int_field(fields, "l", "run config", minimum=1)
        if self.s is not None:
            _int_field(fields, "s", "run config", minimum=1)
        _int_field(fields, "seed", "run config")

    def require_s(self) -> int:
        if self.s is None:
            raise ValueError("config needs s for the chain-skipping run")
        return self.s


def length_cap(g: ColoredGraph, epsilon: int | Fraction) -> int:
    """The length cap ceil(2*d*M/epsilon) that targets error epsilon on g,
    with M the real capacity bound (ticks * quantum)."""
    if type(epsilon) not in (int, Fraction) or epsilon <= 0:
        raise ValueError(f"bad field 'epsilon': expected a positive integer or rational, "
                         f"got {epsilon!r}")
    return math.ceil(2 * g.degree_bound * g.capacity_bound_ticks * Fraction(g.quantum) / epsilon)


class TraceEntry(NamedTuple):
    canonical_key: bytes
    action: str
    amount: int


@dataclass(frozen=True)
class RunTrace:
    """Per-path audit of a run, in processing (key) order."""

    entries: tuple[TraceEntry, ...]

    def to_json_lines(self) -> str:
        return "".join(json.dumps({"key": ent.canonical_key.decode("ascii"),
                                   "action": ent.action, "amount": ent.amount}) + "\n"
                       for ent in self.entries)


def _sweep(
    g: ColoredGraph, l: int, seed: int, skip_threshold: int | None
) -> tuple[Flow, RunTrace]:
    """Shared A1/A2 engine; skip_threshold None means never skip.

    One pass over the paths in key order.  The residual capacities of the
    arcs live in one dict: a path's amount is the least residual over its
    arcs, and augmenting by it moves that much from each arc to its reverse.
    A2's chain depths are computed in the same pass, path by path.
    """
    order = _key_order(enumerate_paths(g, l), seed)
    if skip_threshold is None:
        depths, skip_threshold = repeat(0), 1  # every path is below depth 1
    else:
        depths = _chain_depths(order)

    res = _Residuals(g)
    room = res.__getitem__
    new_entry = tuple.__new__  # a TraceEntry without its Python-level __new__
    entries: list[TraceEntry] = []
    append = entries.append
    for u, depth in zip(order, depths):
        ck = u.canonical_key
        if depth >= skip_threshold:
            append(new_entry(TraceEntry, (ck, SKIPPED_CHAIN, 0)))
            continue
        arcs = u.arcs
        amount = min(map(room, arcs))
        if amount < 0:
            raise AssertionError(f"negative amount {amount} on path {ck!r}")
        if amount:
            for arc in arcs:
                res[arc] -= amount
                res[arc ^ 1] += amount
            append(new_entry(TraceEntry, (ck, AUGMENTED, amount)))
        else:
            append(new_entry(TraceEntry, (ck, ZERO_CAPACITY, 0)))

    flow = res.flow()
    validate_flow(g, flow).raise_if_invalid("run output flow")
    return flow, RunTrace(tuple(entries))


def run_a1(g: ColoredGraph, cfg: RunConfig) -> tuple[Flow, RunTrace]:
    """Augment on every candidate path once, shortest lengths first."""
    return _sweep(g, cfg.l, cfg.seed, None)


def run_a2(g: ColoredGraph, cfg: RunConfig) -> tuple[Flow, RunTrace]:
    """Like run_a1 but paths with chain depth >= s are never augmented."""
    return _sweep(g, cfg.l, cfg.seed, cfg.require_s())


def _ball_radius(l: int, s: int) -> int:
    """Radius of the ball a local query reads around its edge: s*l hops, s
    more than the s*(l-1) that ``LocalEvaluator`` needs."""
    return s * l


def local_f2_edge(g: ColoredGraph, e: DirectedEdgeRef, cfg: RunConfig) -> int:
    """Value of the skipping run at e, computed inside the ball h_{s*l}(e) only.

    The evaluator reads only the ball's nodes and the edges between them,
    with their ids, so it sees the same labels as a global run, and (by the
    locality argument in ``LocalEvaluator``) the result equals the global
    value exactly.
    """
    l, s = cfg.l, cfg.require_s()
    return LocalEvaluator(g, l, s, ball_nodes(g, e, _ball_radius(l, s))).f2_on(e, cfg.seed)


class LocalityMismatch(NamedTuple):
    edge: DirectedEdgeRef
    global_value: int
    local_value: int


@dataclass(frozen=True)
class LocalityReport:
    checked: int
    mismatches: tuple[LocalityMismatch, ...]

    @property
    def passed(self) -> bool:
        return not self.mismatches


def verify_locality(
    g: ColoredGraph,
    cfg: RunConfig,
    edge_sample: list[DirectedEdgeRef],
    *,
    radius: int | None = None,
    local_seed: int | None = None,
) -> LocalityReport:
    """Compare the global run against per-edge local evaluations, exact equality.

    One global A2, then one ``LocalEvaluator`` per distinct ball among the
    sampled edges (edges whose balls coincide share it, which cannot change
    any value: an evaluation depends only on the ball and the seed).
    ``radius`` (default ``_ball_radius``) and ``local_seed`` exist for
    negative controls.  An empty sample is refused: it would check nothing.
    """
    if not edge_sample:
        raise ValueError("bad field 'edge_sample': expected at least one edge, got none")
    l, s = cfg.l, cfg.require_s()
    rad = _ball_radius(l, s) if radius is None else radius
    seed = cfg.seed if local_seed is None else local_seed

    f2_global, _ = run_a2(g, cfg)

    by_ball: dict[frozenset[int], list[DirectedEdgeRef]] = {}
    for ref in edge_sample:
        by_ball.setdefault(ball_nodes(g, ref, rad), []).append(ref)

    def evaluate(ball: frozenset[int]) -> list[tuple[DirectedEdgeRef, int]]:
        ev = LocalEvaluator(g, l, s, ball)
        return [(ref, ev.f2_on(ref, seed)) for ref in by_ball[ball]]

    local: dict[DirectedEdgeRef, int] = {}
    for values in parallel_map(evaluate, by_ball):
        local.update(values)

    mismatches = []
    for ref in edge_sample:
        got_global = int(f2_global.on(ref))
        if got_global != local[ref]:
            mismatches.append(LocalityMismatch(ref, got_global, local[ref]))
    return LocalityReport(checked=len(edge_sample), mismatches=tuple(mismatches))


_reverse_arc = (1).__xor__  # arc ^ 1, called from C by map()


class LocalEvaluator:
    """The skipping run's value at an edge, evaluated as a memoised query tree.

    The value of A2 at e is the signed sum of the amounts of the unskipped
    paths through e, and neither a path's skip decision nor its amount needs
    the whole sweep (Nguyen-Onak's and Yoshida-Yamamoto-Ito's local
    simulation):

    * A path u is skipped iff its chain depth reaches s.  Its depth capped at
      k is h(u, 1) = 1 and h(u, k) = min(k, 1 + max h(v, k-1)) over the paths
      v with a smaller key that share an undirected edge with u (u's
      predecessors), so u is skipped iff h(u, s) = s.
    * When u is reached, each of its edges carries the signed amounts of the
      smaller-key paths through it; u's amount is the smallest residual
      these leave.  Every such path is a predecessor of u, so its depth is
      below u's: if u is unskipped, none of them is skipped either, and the
      recursion over amounts also ends within s levels.

    Locality.  Say a path is at position 1 if it runs through e, and at
    position j+1 if it shares an edge with a path at position j.  A path
    has at most l edges, so every node of a position-1 path lies within
    l-1 hops of e's endpoints, and by induction every node of a position-k
    path within k*(l-1) hops.  The tree reads the paths through the edges
    of a path only to find its predecessors: h(u, s) at position 1 recurses
    down to h(., 1) at position s, which reads nothing, and amounts recurse
    from depth at most s-1 down to depth 1, so along chains of at most s-1
    paths.  So only paths through edges of paths at positions below s are
    read, and the walks that find them run at most l-1 edges from those
    edges' endpoints: the tree never reads beyond s*(l-1) hops of e's
    endpoints, and its value is the same on g and on any induced subgraph
    that holds the radius-s*(l-1) ball, the default radius s*l included.

    A node's steps are its (neighbour, arc, ...) adjacency in g, read in
    place.  Given ``ball``, the evaluator reads g as the subgraph induced
    by it: at a node with a neighbour outside the ball, the steps keep only
    the edges whose other endpoint is in it, and an edge with an endpoint
    outside it raises ``ValueError``, as it would on
    ``induced_subgraph(g, ball)``, which is never built.

    One layered search per node finds both the walks from S nodes into it
    and the walks from it to T nodes; a reversed walk reverses each arc
    (``arc ^ 1``).  A path is known by its arcs: one found again through
    another of its edges is looked up, and only a new one gets a canonical
    key.  The lists of paths through an edge are built once per edge id and
    shared by both orientations and every seed; order keys, capped depths
    and amounts are memoised per seed.  The graph is valid by construction,
    so its nodes and edges are read unchecked, and l and s come from a
    checked config; every path, amount and returned value is checked
    against the invariants of a valid flow.
    """

    def __init__(self, g: ColoredGraph, l: int, s: int, ball: frozenset[int] | None = None):
        self.g = g
        self.l = l
        self.s = s
        self.ball = ball
        # node -> (color, (neighbour, arc leaving the node, neighbour, arc, ...))
        self._steps: dict[int, tuple[str, tuple]] = {}
        # a path's arcs -> the path
        self._paths: dict[tuple[int, ...], AugPathCandidate] = {}
        self._through: dict[int, tuple[tuple[AugPathCandidate, int], ...]] = {}
        self._walk_memo: dict[int, tuple[list[tuple], list[tuple]]] = {}
        self._tables: dict[int, _SeedTables] = {}

    def f2_on(self, e: DirectedEdgeRef, seed: int) -> int:
        edge = self._edge(e.edge_id)
        t = self._tables.get(seed)
        if t is None:
            t = self._tables[seed] = _SeedTables(seed, self.s)
        total = 0
        for _, u, sign in self._ordered(t, e.edge_id):
            if self._depth(t, u, self.s) < self.s:
                total += sign * self._amount(t, u)
        if not -edge.cap_ba <= total <= edge.cap_ab:
            raise AssertionError(f"value {total} on edge {edge.id} outside its capacities")
        return total if e.orientation == AB else -total

    def _ordered(self, t: _SeedTables, eid: int) -> list[tuple[OrderKey, AugPathCandidate, int]]:
        """(key, path, sign) of the paths through eid, in key order."""
        got = t.orders.get(eid)
        if got is None:
            keys = t.keys
            got = []
            for u, sign in self._paths_through(eid):
                ck = u.canonical_key
                k = keys.get(ck)
                if k is None:
                    k = keys[ck] = path_key(u, t.seed)
                got.append((k, u, sign))
            got.sort()  # keys are distinct, so paths are never compared
            t.orders[eid] = got
        return got

    def _depth(self, t: _SeedTables, u: AugPathCandidate, k: int) -> int:
        """h(u, k): u's chain depth capped at k."""
        if k == 1:
            return 1
        memo = t.depths[k]
        ck = u.canonical_key
        got = memo.get(ck)
        if got is None:
            got = memo[ck] = self._compute_depth(t, u, k)
        return got

    def _compute_depth(self, t: _SeedTables, u: AugPathCandidate, k: int) -> int:
        """h(u, k) for k >= 2, from u's predecessors."""
        ku = t.keys[u.canonical_key]
        best = 0
        # Edges whose lists are already ordered first: a deep enough
        # predecessor there ends the search before any new list is built.
        eids = [arc >> 1 for arc in u.arcs]
        eids.sort(key=lambda eid: eid not in t.orders)
        for eid in eids:
            for kv, v, _ in self._ordered(t, eid):
                if kv >= ku:
                    break
                got = self._depth(t, v, k - 1)
                if got == k - 1:
                    return k
                if got > best:
                    best = got
        return best + 1

    def _amount(self, t: _SeedTables, u: AugPathCandidate) -> int:
        """What A2 augments u by; u must be unskipped."""
        ck = u.canonical_key
        got = t.amounts.get(ck)
        if got is None:
            ku = t.keys[ck]
            edge = self.g._edge_by_id
            for arc in u.arcs:
                eid = arc >> 1
                f_ab = 0
                for kv, v, v_sign in self._ordered(t, eid):
                    if kv >= ku:
                        break
                    f_ab += v_sign * self._amount(t, v)
                e = edge[eid]
                room = e.cap_ba + f_ab if arc & 1 else e.cap_ab - f_ab
                if got is None or room < got:
                    got = room
            if got is None or got < 0:
                raise AssertionError(f"negative amount {got} on path {ck!r}")
            t.amounts[ck] = got
        return got

    def _paths_through(self, eid: int) -> tuple[tuple[AugPathCandidate, int], ...]:
        """(path, +1 if it uses eid AB else -1) for every path through eid."""
        got = self._through.get(eid)
        if got is None:
            got = self._through[eid] = tuple(self._enumerate_through(eid))
        return got

    def _enumerate_through(self, eid: int) -> list[tuple[AugPathCandidate, int]]:
        """Vertex-simple S->T paths of at most l edges using eid, either way:
        an S-to-tail walk, the edge, then a node-disjoint head-to-T walk."""
        e = self._edge(eid)
        found = []
        for tail, head, arc, sign in ((e.a, e.b, 2 * eid, 1), (e.b, e.a, 2 * eid + 1, -1)):
            prefixes = self._walks(tail)[0]
            if not prefixes:
                continue
            suffixes = self._walks(head)[1]
            for p_nodes, p_arcs in prefixes:
                room = self.l - 1 - len(p_arcs)
                on_prefix = set(p_nodes)
                through = p_arcs + (arc,)
                for s_nodes, s_arcs in suffixes:
                    if len(s_arcs) > room:
                        break
                    if on_prefix.isdisjoint(s_nodes):
                        arcs = through + s_arcs
                        u = self._paths.get(arcs) or self._path(p_nodes + s_nodes, arcs)
                        found.append((u, sign))
        return found

    def _walks(self, v: int) -> tuple[list[tuple], list[tuple]]:
        """(into, out of) v: the (nodes, arcs) of every vertex-simple
        walk of at most l-1 edges from an S node into v, and from v to a T
        node, shortest first.  One layered search from v finds both: a walk
        that ends at an S node is kept reversed.  A walk of l-1 edges that
        would end at an R node is never built: it can be neither kept nor
        grown, and its end is read either way."""
        got = self._walk_memo.get(v)
        if got is None:
            read, node = self._steps.get, self._node
            into: list[tuple] = []
            out: list[tuple] = []
            last = self.l - 1
            layer = [((v,), ())]
            for length in range(self.l):
                grown = []
                for nodes, arcs in layer:
                    color, steps = read(nodes[-1]) or node(nodes[-1])
                    if color == "T":
                        out.append((nodes, arcs))
                    elif color == "S":
                        back = tuple(map(_reverse_arc, reversed(arcs)))
                        into.append((nodes[::-1], back))
                    if length == last:
                        continue
                    steps = iter(steps)
                    for nxt, arc in zip(steps, steps):
                        if nxt in nodes:
                            continue
                        if length == last - 1 and (read(nxt) or node(nxt))[0] == "R":
                            continue
                        grown.append((nodes + (nxt,), arcs + (arc,)))
                layer = grown
            got = self._walk_memo[v] = (into, out)
        return got

    def _path(self, nodes: tuple[int, ...], arcs: tuple[int, ...]) -> AugPathCandidate:
        """The path not seen before with these nodes and arcs, checked."""
        u = make_path(nodes, arcs)
        key = u.canonical_key
        if self._node(nodes[0])[0] != "S" or self._node(nodes[-1])[0] != "T":
            raise AssertionError(f"path {key!r} does not run from S to T")
        edge = self.g._edge_by_id
        for x, arc, y in zip(nodes, arcs, nodes[1:]):
            e = edge[arc >> 1]
            if (e.a, e.b) != ((y, x) if arc & 1 else (x, y)):
                raise AssertionError(f"edge {e.id} does not join {x} and {y} in path {key!r}")
        self._paths[arcs] = u
        return u

    def _node(self, v: int) -> tuple[str, tuple]:
        """(color, steps) of node v: its adjacency in g, read in place, less
        the edges to neighbours outside the ball."""
        got = self._steps.get(v)
        if got is None:
            g, ball = self.g, self.ball
            steps = g._adj[v]
            if ball is not None and not ball.issuperset(steps[::2]):
                pairs = iter(steps)
                steps = tuple(x for w, arc in zip(pairs, pairs) if w in ball for x in (w, arc))
            got = self._steps[v] = (g._node_by_id[v].color, steps)
        return got

    def _edge(self, eid: int) -> Edge:
        e = self.g.edge(eid)
        if self.ball is not None and (e.a not in self.ball or e.b not in self.ball):
            raise ValueError(f"unknown edge id {eid}")
        return e


class _SeedTables:
    """One seed's memo tables over an evaluator's paths, keyed by canonical key.

    Plain data: the evaluator's methods fill it, so no reference cycle keeps
    a finished evaluator alive until the cyclic collector runs.
    """

    def __init__(self, seed: int, s: int):
        self.seed = seed
        self.keys: dict[bytes, OrderKey] = {}
        # edge id -> (key, path, sign) of the paths through it, in key order
        self.orders: dict[int, list[tuple[OrderKey, AugPathCandidate, int]]] = {}
        self.depths: list[dict[bytes, int]] = [{} for _ in range(s + 1)]  # by cap k
        self.amounts: dict[bytes, int] = {}
