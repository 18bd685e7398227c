"""Label-ordered augmentation, its chain-skipping variant, and locality checks.

Both runs start from the zero flow and sweep every candidate path once in
increasing order-key order, augmenting by the path's residual capacity.  The
plain run (A1) processes everything; the skipping run (A2) refuses any path
whose chain depth reaches the threshold s, which is what confines each edge's
final value to a ball around it.  ``LocalEvaluator`` computes that value
without a sweep, as a memoised query tree over the paths through the edge and
their predecessors, reading nothing beyond s*(l-1) hops of the edge.  A
local query (``local_f2_edge``, and the tester's) is that tree on the whole
graph: it reads only what the tree reads.  A query may also name a ball,
which keeps the paths that lie inside it rather than being built as a graph;
``verify_locality`` queries each edge's ball of radius s*(l-1), with one
evaluator for every ball, and checks edge by edge that this reproduces the
global run bit for bit, so the locality the queries rely on is checked, not
assumed.
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
    BA,
    ColoredGraph,
    DirectedEdgeRef,
    Flow,
    _int_field,
    _orientation_error,
    _Residuals,
    ball_nodes,
    validate_flow,
)
from .path_engine import (
    AugPathCandidate,
    OrderKey,
    _chain_depths,
    _key_order,
    _simple_walks,
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
    """The s*(l-1) hops beyond which ``LocalEvaluator`` reads nothing: the
    radius of the balls ``verify_locality`` checks a local query on."""
    return s * (l - 1)


def local_f2_edge(g: ColoredGraph, e: DirectedEdgeRef, cfg: RunConfig) -> int:
    """Value of the skipping run at e, from the query tree on g.

    The tree reads nothing beyond s*(l-1) hops of e (the locality argument
    in ``LocalEvaluator``), so it reads only the ball h_{s*(l-1)}(e) without
    building it, and it labels paths by their ids, as a global run does: the
    result equals the global value exactly.  ``verify_locality`` checks this
    on the ball itself.
    """
    l, s = cfg.l, cfg.require_s()
    return LocalEvaluator(g, l, s).f2_on(e, cfg.seed)


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

    One global A2, then one pass over the sample: each edge is answered on
    its own ball by a single ``LocalEvaluator``, whose walk searches, paths
    and labels serve every ball.  ``radius`` (default ``_ball_radius``) and
    ``local_seed`` exist for negative controls.  An empty sample is refused:
    it would check nothing.
    """
    if not edge_sample:
        raise ValueError("bad field 'edge_sample': expected at least one edge, got none")
    l, s = cfg.l, cfg.require_s()
    rad = _ball_radius(l, s) if radius is None else radius
    seed = cfg.seed if local_seed is None else local_seed

    f2_global, _ = run_a2(g, cfg)
    ev = LocalEvaluator(g, l, s)
    mismatches = []
    for ref in edge_sample:
        got_local = ev.f2_on(ref, seed, ball_nodes(g, ref, rad))
        got_global = int(f2_global.on(ref))
        if got_global != got_local:
            mismatches.append(LocalityMismatch(ref, got_global, got_local))
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

    A node's net outflow (``outflow``) is the same sum over the unskipped
    paths that start at it minus those that end at it: a path that only
    passes through the node adds nothing, so it is never judged.

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
    that holds the radius-s*(l-1) ball.  So a local query runs the tree on
    g, and ``verify_locality`` checks the claim on the balls of radius
    ``_ball_radius``.

    A query given a ``ball`` is answered on ``induced_subgraph(g, ball)``,
    which is never built: the paths of that subgraph through an edge are
    exactly the paths of g through it whose nodes all lie in the ball, so
    the ball only filters the lists of paths through edges, and an edge with
    an endpoint outside it raises ``ValueError``, as on the subgraph.
    Everything else is shared by every ball.  The layered walk search that
    lists the global paths from each S node with cap l (``_simple_walks``)
    runs here at most once per node of g, with cap l-1, and finds both the
    walks from S nodes into it and the walks from it to T nodes; a reversed
    walk reverses each arc (``arc ^ 1``).  A path is known by its arcs: one
    found again through another of its edges is looked up, and only a new
    one gets a canonical key.  The lists of paths through an edge are built
    once per edge id and shared by both orientations, every seed and every
    ball, and order keys once per seed.  The ordered lists, capped depths
    and amounts are memoised per seed for one ball at a time: a query on
    another ball (no ball is one too) drops the tables of the last.  The
    graph is valid by construction, so its nodes and edges are read
    unchecked, and l and s come from a checked config; every path, amount
    and returned value is checked against the invariants of a valid flow.
    """

    def __init__(self, g: ColoredGraph, l: int, s: int):
        self.g = g
        self.l = l
        self.s = s
        # a path's arcs -> the path
        self._paths: dict[tuple[int, ...], AugPathCandidate] = {}
        self._through: dict[int, tuple[tuple[AugPathCandidate, int], ...]] = {}
        self._walk_memo: dict[int, tuple[list[tuple], list[tuple]]] = {}
        self._keys: dict[int, dict[bytes, OrderKey]] = {}  # seed -> canonical key -> order key
        self._ball: frozenset[int] | None = None  # the ball the tables hold
        self._tables: dict[int, _BallTables] = {}  # seed -> its tables on self._ball

    def f2_on(self, e: DirectedEdgeRef, seed: int, ball: frozenset[int] | None = None) -> int:
        """A2's value at e under seed, on the subgraph ``ball`` induces if given."""
        edge = self.g.edge(e.edge_id)
        if ball is not None and (edge.a not in ball or edge.b not in ball):
            raise ValueError(f"unknown edge id {edge.id}")
        t = self._seed_tables(seed, ball)
        total = 0
        for _, u, sign in self._ordered(t, edge.id):
            if self._depth(t, u, self.s) < self.s:
                total += sign * self._amount(t, u)
        if not -edge.cap_ba <= total <= edge.cap_ab:
            raise AssertionError(f"value {total} on edge {edge.id} outside its capacities")
        if e.orientation == AB:
            return total
        if e.orientation != BA:
            raise _orientation_error(e)
        return -total

    def outflow(self, v: int, seed: int) -> int:
        """A2's net outflow at node v under seed: the amounts of the unskipped
        paths that start at v minus those of the paths that end at v.

        A path that only passes through v enters and leaves it once, so it
        adds nothing, and its depth and amount are never asked for.  The
        paths that start or end at v are read from the ordered lists of v's
        incident edges: such a path is vertex-simple, so it uses exactly
        one of them and is counted once.
        """
        g = self.g
        color = g.node(v).color
        t = self._seed_tables(seed, None)
        edge, s = g._edge_by_id, self.s
        total = cap_out = cap_in = 0
        for arc in g._adj[v][1::2]:  # v's arcs, each leaving v
            e = edge[arc >> 1]
            if arc & 1:  # e read BA
                cap_out += e.cap_ba
                cap_in += e.cap_ab
            else:
                cap_out += e.cap_ab
                cap_in += e.cap_ba
            for _, u, _ in self._ordered(t, e.id):
                nodes = u.nodes
                sign = 1 if nodes[0] == v else -1 if nodes[-1] == v else 0
                if sign and self._depth(t, u, s) < s:
                    total += sign * self._amount(t, u)
        low = -cap_in if color == "T" else 0
        high = cap_out if color == "S" else 0
        if not low <= total <= high:
            raise AssertionError(f"net outflow {total} at {color} node {v} outside [{low}, {high}]")
        return total

    def _seed_tables(self, seed: int, ball: frozenset[int] | None) -> _BallTables:
        """seed's memo tables on ball; a ball other than the last drops the
        last ball's tables."""
        if ball != self._ball:
            self._ball, self._tables = ball, {}
        t = self._tables.get(seed)
        if t is None:
            t = self._tables[seed] = _BallTables(seed, self._keys.setdefault(seed, {}), self.s)
        return t

    def _ordered(self, t: _BallTables, eid: int) -> list[tuple[OrderKey, AugPathCandidate, int]]:
        """(key, path, sign) of the paths through eid inside the ball, in key order."""
        got = t.orders.get(eid)
        if got is None:
            keys, ball = t.keys, self._ball
            got = []
            for u, sign in self._paths_through(eid):
                if ball is not None and not ball.issuperset(u.nodes):
                    continue
                ck = u.canonical_key
                k = keys.get(ck)
                if k is None:
                    k = keys[ck] = path_key(u, t.seed)
                got.append((k, u, sign))
            got.sort()  # keys are distinct, so paths are never compared
            t.orders[eid] = got
        return got

    def _depth(self, t: _BallTables, u: AugPathCandidate, k: int) -> int:
        """h(u, k): u's chain depth capped at k."""
        if k == 1:
            return 1
        memo = t.depths[k]
        ck = u.canonical_key
        got = memo.get(ck)
        if got is None:
            got = memo[ck] = self._compute_depth(t, u, k)
        return got

    def _compute_depth(self, t: _BallTables, u: AugPathCandidate, k: int) -> int:
        """h(u, k) for k >= 2, from u's predecessors."""
        ku = t.keys[u.canonical_key]
        best = 0
        for arc in u.arcs:
            for kv, v, _ in self._ordered(t, arc >> 1):
                if kv >= ku:
                    break
                got = self._depth(t, v, k - 1)
                if got == k - 1:
                    return k
                if got > best:
                    best = got
        return best + 1

    def _amount(self, t: _BallTables, u: AugPathCandidate) -> int:
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
        e = self.g._edge_by_id[eid]
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
        node, shortest first: ``_simple_walks`` from v, with each walk that
        ends at an S node reversed."""
        got = self._walk_memo.get(v)
        if got is None:
            to_s, to_t = _simple_walks(self.g, v, self.l - 1)
            into = [(nodes[::-1], tuple(map(_reverse_arc, reversed(arcs)))) for nodes, arcs in to_s]
            got = self._walk_memo[v] = (into, to_t)
        return got

    def _path(self, nodes: tuple[int, ...], arcs: tuple[int, ...]) -> AugPathCandidate:
        """The path not seen before with these nodes and arcs, checked."""
        u = make_path(nodes, arcs)
        key = u.canonical_key
        g = self.g
        if g._node_by_id[nodes[0]].color != "S" or g._node_by_id[nodes[-1]].color != "T":
            raise AssertionError(f"path {key!r} does not run from S to T")
        edge = g._edge_by_id
        for x, arc, y in zip(nodes, arcs, nodes[1:]):
            e = edge[arc >> 1]
            if (e.a, e.b) != ((y, x) if arc & 1 else (x, y)):
                raise AssertionError(f"edge {e.id} does not join {x} and {y} in path {key!r}")
        self._paths[arcs] = u
        return u


class _BallTables:
    """One seed's memo tables over an evaluator's paths on the evaluator's
    ball, keyed by canonical key; ``keys`` is the seed's table of order keys,
    shared by every ball.

    Plain data: the evaluator's methods fill it, so no reference cycle keeps
    a finished evaluator alive until the cyclic collector runs.
    """

    def __init__(self, seed: int, keys: dict[bytes, OrderKey], s: int):
        self.seed = seed
        self.keys = keys
        # edge id -> (key, path, sign) of the paths through it inside the ball, in key order
        self.orders: dict[int, list[tuple[OrderKey, AugPathCandidate, int]]] = {}
        self.depths: list[dict[bytes, int]] = [{} for _ in range(s + 1)]  # by cap k
        self.amounts: dict[bytes, int] = {}
