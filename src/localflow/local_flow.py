"""Label-ordered augmentation, its chain-skipping variant, and locality checks.

Both runs start from the zero flow and sweep every candidate path once in
increasing order-key order, augmenting by the path's residual capacity.  The
plain run (A1) processes everything; the skipping run (A2) refuses any path
whose chain depth reaches the threshold s, which is what confines each edge's
final value to a ball around it.  ``LocalEvaluator`` computes that value
without a sweep, as a memoised query tree over the paths through the edge and
their predecessors, reading nothing beyond s*(l-1) hops of the edge.
``local_f2_edge`` runs it on the ball of radius s*l alone, and
``verify_locality`` checks edge by edge that this reproduces the global run
bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .graph_core import (
    AB,
    BA,
    ColoredGraph,
    DirectedEdgeRef,
    Edge,
    Flow,
    ball_nodes,
    induced_subgraph,
    validate_flow,
)
from .parallel import parallel_map
from .path_engine import (
    AugPathCandidate,
    OrderKey,
    _chain_depths,
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

    When ``epsilon`` is given instead of ``l``, the cap defaults to
    ceil(2*d*M/epsilon) with M the real capacity bound (ticks * quantum).
    s stays caller-supplied; there is no closed form for it.
    """

    l: int | None = None
    s: int | None = None
    seed: int = 0
    epsilon: Fraction | None = None

    def resolve_l(self, g: ColoredGraph) -> int:
        if self.l is not None:
            if self.l < 1:
                raise ValueError(f"l must be >= 1, got {self.l}")
            return self.l
        if self.epsilon is None:
            raise ValueError("config needs l or epsilon")
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        m_real = g.capacity_bound_ticks * g.quantum
        ratio = 2 * g.degree_bound * m_real / self.epsilon
        return int(-(-ratio.numerator // ratio.denominator))

    def require_s(self) -> int:
        if self.s is None:
            raise ValueError("config needs s for the chain-skipping run")
        if self.s < 1:
            raise ValueError(f"s must be >= 1, got {self.s}")
        return self.s


class TraceEntry(NamedTuple):
    canonical_key: bytes
    action: str
    amount: int


@dataclass(frozen=True)
class RunTrace:
    """Per-path audit of a run, in processing (key) order."""

    entries: tuple[TraceEntry, ...]

    def to_json_lines(self) -> str:
        lines = []
        for ent in self.entries:
            lines.append(
                json.dumps(
                    {
                        "key": ent.canonical_key.decode("ascii"),
                        "action": ent.action,
                        "amount": ent.amount,
                    }
                )
            )
        return "\n".join(lines) + ("\n" if lines else "")


def _sweep(
    g: ColoredGraph, l: int, seed: int, skip_threshold: int | None
) -> tuple[Flow, RunTrace]:
    """Shared A1/A2 engine; skip_threshold None means never skip."""
    paths = enumerate_paths(g, l)
    order = sorted(paths, key=lambda u: path_key(u, seed))
    depths = _chain_depths(order) if skip_threshold is not None else None

    edge_of = {e.id: e for e in g.edges}
    f: dict[int, int] = {}
    entries: list[TraceEntry] = []
    for u in order:
        if depths is not None and depths[u.canonical_key] >= skip_threshold:
            entries.append(TraceEntry(u.canonical_key, SKIPPED_CHAIN, 0))
            continue
        amount: int | None = None
        for ref in u.edges:
            e = edge_of[ref.edge_id]
            got = f.get(ref.edge_id, 0)
            room = e.cap_ab - got if ref.orientation == "AB" else e.cap_ba + got
            if amount is None or room < amount:
                amount = room
        assert amount is not None and amount >= 0
        if amount > 0:
            for ref in u.edges:
                delta = amount if ref.orientation == "AB" else -amount
                f[ref.edge_id] = f.get(ref.edge_id, 0) + delta
            entries.append(TraceEntry(u.canonical_key, AUGMENTED, amount))
        else:
            entries.append(TraceEntry(u.canonical_key, ZERO_CAPACITY, 0))

    flow = Flow({eid: v for eid, v in f.items() if v != 0})
    validate_flow(g, flow).raise_if_invalid("run output flow")
    return flow, RunTrace(tuple(entries))


def run_a1(g: ColoredGraph, cfg: RunConfig) -> tuple[Flow, RunTrace]:
    """Augment on every candidate path once, shortest lengths first."""
    return _sweep(g, cfg.resolve_l(g), cfg.seed, None)


def run_a2(g: ColoredGraph, cfg: RunConfig) -> tuple[Flow, RunTrace]:
    """Like run_a1 but paths with chain depth >= s are never augmented."""
    return _sweep(g, cfg.resolve_l(g), cfg.seed, cfg.require_s())


def local_f2_edge(
    g: ColoredGraph, e: DirectedEdgeRef, cfg: RunConfig, *, radius: int | None = None
) -> int:
    """Value of the skipping run at e, computed inside the ball h_{s*l}(e) only.

    The evaluator on the ball sees the same labels as a global run because
    ids are preserved, so (by the locality argument in ``LocalEvaluator``)
    the result equals the global value exactly.  ``radius`` overrides the
    default s*l for negative controls.
    """
    l = cfg.resolve_l(g)
    s = cfg.require_s()
    rad = s * l if radius is None else radius
    return LocalEvaluator(induced_subgraph(g, ball_nodes(g, e, rad)), l, s).f2_on(e, cfg.seed)


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
    threads: int = 1,
) -> LocalityReport:
    """Compare the global run against per-edge local evaluations, exact equality.

    One global A2, then one ``LocalEvaluator`` per distinct ball among the
    sampled edges (edges whose balls coincide share it, which cannot change
    any value: an evaluation depends only on the induced subgraph and the
    seed).  ``radius`` and ``local_seed`` exist for negative controls.
    """
    l = cfg.resolve_l(g)
    s = cfg.require_s()
    rad = s * l if radius is None else radius
    seed = cfg.seed if local_seed is None else local_seed

    f2_global, _ = run_a2(g, cfg)

    by_ball: dict[frozenset[int], list[DirectedEdgeRef]] = {}
    for ref in edge_sample:
        by_ball.setdefault(ball_nodes(g, ref, rad), []).append(ref)

    def evaluate(ball: frozenset[int]) -> list[tuple[DirectedEdgeRef, int]]:
        ev = LocalEvaluator(induced_subgraph(g, ball), l, s)
        return [(ref, ev.f2_on(ref, seed)) for ref in by_ball[ball]]

    local: dict[DirectedEdgeRef, int] = {}
    for values in parallel_map(evaluate, sorted(by_ball, key=sorted), threads):
        local.update(values)

    mismatches = []
    for ref in edge_sample:
        got_global = int(f2_global.on(ref))
        if got_global != local[ref]:
            mismatches.append(LocalityMismatch(ref, got_global, local[ref]))
    return LocalityReport(checked=len(edge_sample), mismatches=tuple(mismatches))


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

    The lists of paths through an edge are built once per edge id and shared
    by both orientations and every seed; order keys, capped depths and
    amounts are memoised per seed.  The graph is valid by construction, so
    its nodes and edges are read unchecked; every path, amount and returned
    value is checked against the invariants of a valid flow.
    Every table entry is a pure function of its key and is stored only once
    complete, so the threads of ``parallel_map`` share one evaluator without
    a lock: at worst two of them compute the same entry.
    """

    def __init__(self, g: ColoredGraph, l: int, s: int):
        self.g = g
        self.l = RunConfig(l=l).resolve_l(g)
        self.s = RunConfig(s=s).require_s()
        self._steps: dict[int, tuple[str, tuple]] = {}
        self._edges: dict[int, Edge] = {}
        self._refs: dict[int, tuple[DirectedEdgeRef, DirectedEdgeRef]] = {}  # (AB, BA)
        # canonical key -> ((edge id, +1 for AB / -1 for BA), ...) along the path
        self._signs: dict[bytes, tuple[tuple[int, int], ...]] = {}
        self._through: dict[int, tuple[tuple[AugPathCandidate, int], ...]] = {}
        self._walk_memo: dict[tuple[int, bool], list[tuple]] = {}
        self._tables: dict[int, _SeedTables] = {}

    def f2_on(self, e: DirectedEdgeRef, seed: int) -> int:
        edge = self._edge(e.edge_id)
        t = self._tables.get(seed)
        if t is None:
            t = self._tables.setdefault(seed, _SeedTables(seed, self.s))
        total = 0
        for _, u, sign in self._ordered(t, e.edge_id):
            if self._depth(t, u, self.s) < self.s:
                total += sign * self._amount(t, u)
        if not -edge.cap_ba <= total <= edge.cap_ab:
            raise AssertionError(f"value {total} on edge {edge.id} outside its capacities")
        return total if e.orientation == AB else -total

    def _ordered(self, t: _SeedTables, eid: int) -> list[tuple[OrderKey, bytes, int]]:
        """(key, canonical key, sign) of the paths through eid, in key order."""
        got = t.orders.get(eid)
        if got is None:
            keys = t.keys
            got = []
            for u, sign in self._paths_through(eid):
                ck = u.canonical_key
                k = keys.get(ck)
                if k is None:
                    k = keys[ck] = path_key(u, t.seed)
                got.append((k, ck, sign))
            got.sort()
            t.orders[eid] = got
        return got

    def _depth(self, t: _SeedTables, u: bytes, k: int) -> int:
        """h(u, k): u's chain depth capped at k."""
        if k == 1:
            return 1
        memo = t.depths[k]
        got = memo.get(u)
        if got is None:
            got = memo[u] = self._compute_depth(t, u, k)
        return got

    def _compute_depth(self, t: _SeedTables, u: bytes, k: int) -> int:
        """h(u, k) for k >= 2, from u's predecessors."""
        ku = t.keys[u]
        best = 0
        # Edges whose lists are already ordered first: a deep enough
        # predecessor there ends the search before any new list is built.
        eids = [eid for eid, _ in self._signs[u]]
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

    def _amount(self, t: _SeedTables, u: bytes) -> int:
        """What A2 augments u by; u must be unskipped."""
        got = t.amounts.get(u)
        if got is None:
            ku = t.keys[u]
            for eid, sign in self._signs[u]:
                f_ab = 0
                for kv, v, v_sign in self._ordered(t, eid):
                    if kv >= ku:
                        break
                    f_ab += v_sign * self._amount(t, v)
                e = self._edges[eid]
                room = e.cap_ab - f_ab if sign > 0 else e.cap_ba + f_ab
                if got is None or room < got:
                    got = room
            if got is None or got < 0:
                raise AssertionError(f"negative amount {got} on path {u!r}")
            t.amounts[u] = got
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
        for tail, head, sign in ((e.a, e.b, 1), (e.b, e.a, -1)):
            prefixes = self._walks(tail, backward=True)
            if not prefixes:
                continue
            ref = self._refs[eid][0 if sign > 0 else 1]
            suffixes = self._walks(head, backward=False)
            for p_nodes, p_edges in prefixes:
                room = self.l - 1 - len(p_edges)
                on_prefix = set(p_nodes)
                for s_nodes, s_edges in suffixes:
                    if len(s_edges) > room:
                        break
                    if on_prefix.isdisjoint(s_nodes):
                        found.append((self._path(p_nodes + s_nodes, p_edges + (ref,) + s_edges),
                                      sign))
        return found

    def _walks(self, start: int, backward: bool) -> list[tuple]:
        """(nodes, edges) of every vertex-simple walk of at most l-1 edges
        from start to a T node, or from an S node backward into start,
        shortest first; grown one edge per layer, once per start and direction."""
        got = self._walk_memo.get((start, backward))
        if got is None:
            end_color = "S" if backward else "T"
            read = self._steps.get
            got = []
            layer = [((start,), ())]
            for length in range(self.l):
                grown = []
                for nodes, edges in layer:
                    here = nodes[0] if backward else nodes[-1]
                    color, steps = read(here) or self._node(here)
                    if color == end_color:
                        got.append((nodes, edges))
                    if length == self.l - 1:
                        continue
                    for nxt, leaving, entering in steps:
                        if nxt not in nodes:
                            if backward:
                                grown.append(((nxt,) + nodes, (entering,) + edges))
                            else:
                                grown.append((nodes + (nxt,), edges + (leaving,)))
                layer = grown
            self._walk_memo[(start, backward)] = got
        return got

    def _path(self, nodes: tuple[int, ...], edges: tuple[DirectedEdgeRef, ...]) -> AugPathCandidate:
        u = make_path(nodes, edges)
        key = u.canonical_key
        if key not in self._signs:
            if self._node(nodes[0])[0] != "S" or self._node(nodes[-1])[0] != "T":
                raise AssertionError(f"path {key!r} does not run from S to T")
            for x, ref, y in zip(nodes, edges, nodes[1:]):
                e = self._edges[ref.edge_id]
                if (e.a, e.b) != ((x, y) if ref.orientation == AB else (y, x)):
                    raise AssertionError(f"edge {e.id} does not join {x} and {y} in path {key!r}")
            self._signs[key] = tuple(
                (ref.edge_id, 1 if ref.orientation == AB else -1) for ref in edges
            )
        return u

    def _node(self, v: int) -> tuple[str, tuple]:
        """(color, steps) of node v; a step is (other endpoint, ref leaving v,
        ref entering v)."""
        got = self._steps.get(v)
        if got is None:
            nd = self.g.node(v)
            steps = []
            for eid in self.g._incident[v]:
                e = self._edge(eid)
                ab, ba = self._refs[eid]
                steps.append((e.b, ab, ba) if e.a == v else (e.a, ba, ab))
            got = self._steps[v] = (nd.color, tuple(steps))
        return got

    def _edge(self, eid: int) -> Edge:
        got = self._edges.get(eid)
        if got is None:
            got = self.g.edge(eid)
            # Published after its refs: parallel_map threads share the tables.
            self._refs[eid] = (DirectedEdgeRef(eid, AB), DirectedEdgeRef(eid, BA))
            self._edges[eid] = got
        return got


class _SeedTables:
    """One seed's memo tables over an evaluator's paths, keyed by canonical key.

    Plain data: the evaluator's methods fill it, so no reference cycle keeps
    a finished evaluator alive until the cyclic collector runs.
    """

    def __init__(self, seed: int, s: int):
        self.seed = seed
        self.keys: dict[bytes, OrderKey] = {}
        # edge id -> (key, canonical key, sign) of the paths through it, in key order
        self.orders: dict[int, list[tuple[OrderKey, bytes, int]]] = {}
        self.depths: list[dict[bytes, int]] = [{} for _ in range(s + 1)]  # by cap k
        self.amounts: dict[bytes, int] = {}
