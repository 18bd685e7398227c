"""Label-ordered augmentation, its chain-skipping variant, and locality checks.

Both runs start from the zero flow and sweep every candidate path once in
increasing order-key order, augmenting by the path's residual capacity.  The
plain run (A1) processes everything; the skipping run (A2) refuses any path
whose chain depth reaches the threshold s, which is what confines each edge's
final value to a ball around it.  ``LocalEvaluator`` computes that value
without a sweep, as a memoised query tree over the paths through the edge and
their predecessors, reading nothing beyond s*(l-1) hops of the edge: one
evaluator per labelling seed, on a path index that depends on no seed and
that evaluators at several seeds share.  The index is the tree's one view
of the graph: the evaluator reads every node, edge and adjacency through
it.  A local query (``local_f2_edge``, and the tester's) is that tree on
an index of the whole graph: it reads only what the tree reads.  An
evaluator may instead answer on the subgraph a ball induces, keeping the
paths that lie inside the ball rather than building the subgraph.
``verify_locality`` answers each edge on g and records what the query
read; where the reads leave the edge's ball of radius s*(l-1), it answers
again on the ball.  It checks edge by edge that the value is the global
run's bit for bit, so the locality the queries rely on is checked, not
assumed.  A run returns its flow and its trace (``RunTrace``): the
paths in the order swept and one int per path.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator
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
    _by_id,
    _int_field,
    _orientation_error,
    _residual_flow,
    _residuals,
    ball_nodes,
    validate_flow,
)
from .path_engine import (
    _PATH_CACHE,
    AugPathCandidate,
    OrderKey,
    _chain_depths,
    _global_order,
    _PathIndex,
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


# A trace's record of a skipped path, in place of its amount.
_SKIPPED = -1


def _row(u: AugPathCandidate, amount: int) -> TraceEntry:
    """The trace row of path u with record amount; built without
    ``TraceEntry``'s Python-level ``__new__``."""
    if amount > 0:
        return tuple.__new__(TraceEntry, (u.canonical_key, AUGMENTED, amount))
    action = ZERO_CAPACITY if amount == 0 else SKIPPED_CHAIN
    return tuple.__new__(TraceEntry, (u.canonical_key, action, 0))


class _TraceRows:
    """A trace's rows, each built when it is read: ``len``, an int index
    and iteration, over the trace's two lists."""

    __slots__ = ("_order", "_amounts")

    def __init__(self, order: list[AugPathCandidate], amounts: list[int]):
        self._order = order
        self._amounts = amounts

    def __len__(self) -> int:
        return len(self._amounts)

    def __getitem__(self, i: int) -> TraceEntry:
        return _row(self._order[i], self._amounts[i])

    def __iter__(self) -> Iterator[TraceEntry]:
        return map(_row, self._order, self._amounts)


@dataclass(frozen=True)
class RunTrace:
    """Per-path audit of a run: the paths in the key order the sweep read
    them, and lined up with them one int per path, the amount augmented
    (0 where the path had no residual capacity) or ``_SKIPPED``.

    A sweep keeps these two flat lists rather than a ``TraceEntry`` per
    path: the cyclic collector never untracks a tuple subclass, so one row
    per path kept alive sets off full collections.  ``entries`` reads the
    rows, each built when it is read.  ``order`` is the seed's list in the
    path cache, which a live trace keeps after the cache has replaced it.
    Two traces are equal when their lists are.
    """

    order: list[AugPathCandidate]
    amounts: list[int]

    @property
    def entries(self) -> _TraceRows:
        return _TraceRows(self.order, self.amounts)

    def to_json_lines(self) -> str:
        return "".join(json.dumps({"key": ent.canonical_key.decode("ascii"),
                                   "action": ent.action, "amount": ent.amount}) + "\n"
                       for ent in self.entries)


def _sweep(
    g: ColoredGraph, l: int, seed: int, skip_threshold: int | None
) -> tuple[Flow, RunTrace]:
    """Shared A1/A2 engine; skip_threshold None means never skip.

    One pass over the paths in key order (``_global_order``), which the
    path cache keeps until a call on (g, l) at another seed, so A1 and A2
    at one seed label and sort the paths once.  The residual capacities of
    the arcs live in one flat table indexed by arc (``_residuals``): a
    path's amount is the least residual over its arcs, and augmenting by it
    moves that much from each arc to its reverse.  A2's chain depths are
    computed in the same pass, path by path, in a table of the same shape,
    capped at s (``_chain_depths``): a path is skipped iff its capped depth
    is s, and one whose arcs all read s already writes nothing.  The trace
    is that order and one int per path, lined up with it: the amount, or
    ``_SKIPPED``.

    An unskipped path whose first or last arc has no residual records
    amount 0 without the minimum over its arcs; most paths end so.  This is
    exact: residuals start at the capacities, which are at least 0, and an
    augmentation takes the least residual of its path from each of the
    path's arcs, so none goes below 0, and an end arc at 0 makes the
    minimum 0.  Every amount the minimum computes is still checked to be
    at least 0, and ``validate_flow`` checks the run's output on every
    edge, where a negative residual shows as a capacity exceeded.
    """
    order = _global_order(g, l, seed)
    res = _residuals(g)
    if skip_threshold is None:
        depths, skip_threshold = repeat(0), 1  # every path is below depth 1
    else:
        depths = _chain_depths(order, [0] * len(res) if type(res) is list
                               else dict.fromkeys(res, 0), skip_threshold)

    room = res.__getitem__
    amounts: list[int] = []
    append = amounts.append
    for u, depth in zip(order, depths):
        if depth >= skip_threshold:
            append(_SKIPPED)
            continue
        arcs = u.arcs
        if not (res[arcs[0]] and res[arcs[-1]]):
            append(0)
            continue
        amount = min(map(room, arcs))
        if amount < 0:
            raise AssertionError(f"negative amount {amount} on path {u.canonical_key!r}")
        if amount:
            for arc in arcs:
                res[arc] -= amount
                res[arc ^ 1] += amount
        append(amount)

    flow = _residual_flow(g, res)
    validate_flow(g, flow).raise_if_invalid("run output flow")
    return flow, RunTrace(order, amounts)


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
    on the ball itself.  e must be a ``DirectedEdgeRef``.
    """
    if not isinstance(e, DirectedEdgeRef):
        raise ValueError(f"bad field 'e': expected an edge, got {e!r}")
    return LocalEvaluator(_PathIndex(g, cfg.l), cfg.require_s(), cfg.seed).f2_on(e)


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

    One global A2, then one pass over the sample with one ``LocalEvaluator``
    on g, which records what each query read.  Where the edge's ball holds
    that read set, the value on g is the value on the subgraph the ball
    induces, so the check is that the reads lie in the ball and that the
    value equals the global run's.  Elsewhere a fresh evaluator on the ball
    answers, and its value is compared, and reported on a mismatch.  Both
    kinds of evaluator order paths by their ranks in the global run's key
    order (``_global_order`` at the local seed, which at the run's own seed
    is the order ``run_a2`` just swept), so no path is labelled twice and
    the tree compares ints.  Ranks order paths as ``path_key`` does: the
    sort breaks (length, label) ties stably on canonical keys, which are
    distinct.  What depends only on the graph is built once and shared by
    every call through the path cache: the balls once per (g, radius), and the
    ``_PathIndex`` once per (g, l), whatever the seed or s.  ``radius``
    (default ``_ball_radius``) and ``local_seed`` exist for negative
    controls, and each must be a plain int, the radius at least 0.  The
    mismatched-seed control fails only where ``run_a2`` depends on the
    seed: on AC-5's instance it does not, and
    ``test_mismatched_seed_negative_control_fails`` shows the control
    failing on a graph built for it.  An empty sample is refused: it would
    check nothing.
    """
    if isinstance(edge_sample, DirectedEdgeRef):
        raise ValueError(f"bad field 'edge_sample': expected a list of edges, got {edge_sample!r}")
    if not edge_sample:
        raise ValueError("bad field 'edge_sample': expected at least one edge, got none")
    for ref in edge_sample:
        if not isinstance(ref, DirectedEdgeRef):
            raise ValueError(f"bad field 'edge_sample': expected a list of edges, got item {ref!r}")
    l, s = cfg.l, cfg.require_s()
    where = "verify_locality"
    rad = (_ball_radius(l, s) if radius is None
           else _int_field({"radius": radius}, "radius", where, minimum=0))
    seed = (cfg.seed if local_seed is None
            else _int_field({"local_seed": local_seed}, "local_seed", where))

    f2_global, _ = run_a2(g, cfg)
    ranks = {u.canonical_key: i for i, u in enumerate(_global_order(g, l, seed))}
    per_graph = _PATH_CACHE.setdefault(g, {})
    index = per_graph.get((l, "tree"))
    if index is None:
        index = per_graph[l, "tree"] = _PathIndex(g, l)
    ev = LocalEvaluator(index, s, seed, keys=ranks)
    balls = per_graph.setdefault((rad, "balls"), {})
    mismatches = []
    for ref in edge_sample:
        ball = balls.get(ref.edge_id)
        if ball is None:
            ball = balls[ref.edge_id] = ball_nodes(g, ref, rad)
        got_local = ev.f2_on(ref)
        if not ev._holds_reads(ref.edge_id, ball):
            on_ball = LocalEvaluator(index, s, seed, ball=ball, keys=ranks)
            got_local = on_ball.f2_on(ref)
        got_global = int(f2_global.on(ref))
        if got_global != got_local:
            mismatches.append(LocalityMismatch(ref, got_global, got_local))
    return LocalityReport(checked=len(edge_sample), mismatches=tuple(mismatches))


# An evaluator's order key: a ``path_key``, or a rank in the global key order.
_Key = OrderKey | int


class LocalEvaluator:
    """The skipping run's value at an edge, evaluated as a memoised query tree.

    The value of A2 at e is the signed sum of the amounts of the unskipped
    paths through e, and neither a path's skip decision nor its amount needs
    the whole sweep (Nguyen-Onak's and Yoshida-Yamamoto-Ito's local
    simulation):

    * A path u is skipped iff its chain depth reaches s.  Its depth capped at
      k is h(u, 1) = 1 and h(u, k) = min(k, 1 + max h(v, k-1)) over the paths
      v with a smaller key that share an undirected edge with u (u's
      predecessors), so u is skipped iff h(u, s) = s.  This is the capped
      depth the global sweep computes (``_chain_depths`` with cap s).
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

    An evaluator is the query tree of one seed on ``index``, a
    ``_PathIndex`` on (g, l), which depends on no seed and is the tree's
    one view of the graph: the paths through each edge come from it, and
    every node, edge and adjacency the tree reads is read from the index's
    tables (``_node_by_id``, ``_edge_by_id``, ``_adj``).  So the evaluator
    holds no graph, and its l is the index's.  A local query builds a fresh
    index, so it costs what the paper bounds; the tester shares one across
    the evaluators of its seeds, and ``verify_locality`` one per (g, l).
    An evaluator given a ``ball`` answers on the subgraph the ball induces,
    which is never built: the paths of that subgraph through an edge are
    exactly the paths of g through it whose nodes all lie in the ball, so
    the evaluator keeps only those, before keying and sorting them, and an
    edge with an endpoint outside the ball, or a node outside it, raises
    ``ValueError``, as on the subgraph.

    The memo lives as long as the evaluator, keyed by canonical key.
    ``keys`` holds the order keys, which may be shared with another
    evaluator at the same seed: any strict order consistent with
    ``path_key``.  A path listed without one is keyed by ``path_key``, once;
    ``verify_locality`` passes its paths' ranks in the global key order
    instead.  ``lists`` holds each edge's (key, path, sign) list sorted by
    key, ``depths`` and ``amounts`` the capped depths (by cap k) and the
    amounts, and ``reads`` each depth's read set, by cap k as ``depths``:
    the nodes of the predecessors its computation read (those with a
    smaller key, up to an early return) and their own read sets.  A value
    is a function of what it read, and a ball's list of the paths through
    an edge is g's list filtered by the ball, so where a ball holds what a
    query on g read, the value on the subgraph the ball induces is the
    value on g (``_holds_reads``).  A path's key travels with it in its
    list entry, so the recursion over depths and amounts never looks one up.
    The graph is valid by construction, so the index's tables and the
    paths found on it are read unchecked, except the edge or node id a
    caller names, which is looked up as ``ColoredGraph.edge`` and ``.node``
    look it up (``_by_id``); l comes from the index, and s is checked as
    ``RunConfig`` checks it, a plain int of at least 1; every
    amount and returned value is checked against the invariants of a valid
    flow.
    """

    def __init__(self, index: _PathIndex, s: int, seed: int, *,
                 ball: frozenset[int] | None = None, keys: dict[bytes, _Key] | None = None):
        if type(s) is not int or s < 1:
            _int_field({"s": s}, "s", "LocalEvaluator", minimum=1)  # raises
        self.index = index
        self.s = s
        self.seed = seed
        self.ball = ball
        self.keys = {} if keys is None else keys
        self.lists: dict[int, list[tuple[_Key, AugPathCandidate, int]]] = {}
        self.depths: list[dict[bytes, int]] = [{} for _ in range(s + 1)]  # by cap k
        self.amounts: dict[bytes, int] = {}
        self.reads: list[dict[bytes, tuple[int, ...]]] = [{} for _ in range(s + 1)]  # by cap k

    def f2_on(self, e: DirectedEdgeRef) -> int:
        """A2's value at e under the evaluator's seed, on its graph."""
        edge = _by_id(self.index._edge_by_id, e.edge_id, "edge")
        ball = self.ball
        if ball is not None and (edge.a not in ball or edge.b not in ball):
            raise ValueError(f"unknown edge id {edge.id}")
        s = self.s
        total = 0
        for ku, u, sign in self._ordered(edge.id):
            if self._depth(ku, u, s) < s:
                total += sign * self._amount(ku, u)
        if not -edge.cap_ba <= total <= edge.cap_ab:
            raise AssertionError(f"value {total} on edge {edge.id} outside its capacities")
        if e.orientation == AB:
            return total
        if e.orientation != BA:
            raise _orientation_error(e)
        return -total

    def _holds_reads(self, eid: int, ball: frozenset[int]) -> bool:
        """Whether ball holds what the query at eid read: the nodes of every
        path through eid and the read sets of their depths at cap s.  A ball
        that holds every node of the graph holds any read set.

        An unskipped path's amount needs no read set of its own.  The amount
        of u reads the smaller-key paths through u's edges, then theirs,
        along chains of decreasing key, down to paths with none.  A path v
        reached at cap k under h(u, s) has h(v, k) <= h(u, s) - (s - k) < k,
        so no depth computation under u returns early: h(u, s) read every
        such chain, and its read set holds every node the amount read."""
        nodes = self.index._node_by_id
        if len(ball) >= len(nodes) and ball.issuperset(nodes):
            return True
        reads = self.reads[self.s]
        for _, u, _ in self._ordered(eid):
            if not (ball.issuperset(u.nodes) and ball.issuperset(reads.get(u.canonical_key, ()))):
                return False
        return True

    def outflow(self, v: int) -> int:
        """A2's net outflow at node v: the amounts of the unskipped paths
        that start at v minus those of the paths that end at v.

        A path that only passes through v enters and leaves it once, so it
        adds nothing, and its depth and amount are never asked for.  The
        paths that start or end at v are read from the ordered lists of v's
        incident edges: such a path is vertex-simple, so it uses exactly
        one of them and is counted once.
        """
        index = self.index
        color = _by_id(index._node_by_id, v, "node").color
        if self.ball is not None and v not in self.ball:
            raise ValueError(f"unknown node id {v!r}")
        edge, s = index._edge_by_id, self.s
        total = cap_out = cap_in = 0
        for arc in index._adj[v][1::2]:  # v's arcs, each leaving v
            e = edge[arc >> 1]
            if arc & 1:  # e read BA
                cap_out += e.cap_ba
                cap_in += e.cap_ab
            else:
                cap_out += e.cap_ab
                cap_in += e.cap_ba
            for ku, u, _ in self._ordered(e.id):
                nodes = u.nodes
                sign = 1 if nodes[0] == v else -1 if nodes[-1] == v else 0
                if sign and self._depth(ku, u, s) < s:
                    total += sign * self._amount(ku, u)
        low = -cap_in if color == "T" else 0
        high = cap_out if color == "S" else 0
        if not low <= total <= high:
            raise AssertionError(f"net outflow {total} at {color} node {v} outside [{low}, {high}]")
        return total

    def _ordered(self, eid: int) -> list[tuple[_Key, AugPathCandidate, int]]:
        """(key, path, sign) of the paths through eid on the evaluator's
        graph, in key order, each path keyed once."""
        got = self.lists.get(eid)
        if got is None:
            keys, ball = self.keys, self.ball
            through = self.index.through(eid)
            if ball is not None:
                through = [us for us in through if ball.issuperset(us[0].nodes)]
            got = []
            for u, sign in through:
                ck = u.canonical_key
                k = keys.get(ck)
                if k is None:
                    k = keys[ck] = path_key(u, self.seed)
                got.append((k, u, sign))
            got.sort()  # keys are distinct, so paths are never compared
            self.lists[eid] = got
        return got

    def _depth(self, ku: _Key, u: AugPathCandidate, k: int) -> int:
        """h(u, k): u's chain depth capped at k; ku is u's key."""
        if k == 1:
            return 1
        memo = self.depths[k]
        ck = u.canonical_key
        got = memo.get(ck)
        if got is None:
            seen: set[int] = set()
            got = memo[ck] = self._compute_depth(ku, u, k, seen)
            self.reads[k][ck] = tuple(seen)
        return got

    def _compute_depth(self, ku: _Key, u: AugPathCandidate, k: int, seen: set[int]) -> int:
        """h(u, k) for k >= 2, from u's predecessors; adds to seen the nodes
        of each predecessor read and that one's read set."""
        best = 0
        below = self.reads[k - 1]
        for arc in u.arcs:
            for kv, v, _ in self._ordered(arc >> 1):
                if kv >= ku:
                    break
                got = self._depth(kv, v, k - 1)
                seen.update(v.nodes, below.get(v.canonical_key, ()))
                if got == k - 1:
                    return k
                if got > best:
                    best = got
        return best + 1

    def _amount(self, ku: _Key, u: AugPathCandidate) -> int:
        """What A2 augments u by; u must be unskipped, and ku is its key."""
        ck = u.canonical_key
        got = self.amounts.get(ck)
        if got is None:
            edge = self.index._edge_by_id
            for arc in u.arcs:
                eid = arc >> 1
                f_ab = 0
                for kv, v, v_sign in self._ordered(eid):
                    if kv >= ku:
                        break
                    f_ab += v_sign * self._amount(kv, v)
                e = edge[eid]
                room = e.cap_ba + f_ab if arc & 1 else e.cap_ab - f_ab
                if got is None or room < got:
                    got = room
            if got is None or got < 0:
                raise AssertionError(f"negative amount {got} on path {ck!r}")
            self.amounts[ck] = got
        return got
