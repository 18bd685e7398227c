"""Independent brute-force implementations and references used as test oracles.

The brute-force oracles work from the raw node/edge lists with their own
traversal strategy, never through the library's adjacency, enumeration or DP
code paths.  The references are small helpers that only tests need, some of
them former library routes kept to check their replacements:

* ``full_scan_subgraph`` and ``ball_rerun_f2``: the subgraph scan and the A2
  rerun on a ball that ``induced_subgraph`` and ``LocalEvaluator`` replace;
* ``intersects`` and ``cut_capacity``: edge sharing of two paths and the
  capacity of a cut;
* ``assemble_fbar2`` and ``fbar2_value``: the seed-averaged A2 flow from m
  global runs, and its value;
* ``out_edges`` and ``out_edge_summand``: a node's incident edges oriented
  away from it, read off the adjacency, and the tester's per-vertex summand
  summed over the source's out-edges, the route that
  ``LocalEvaluator.outflow`` replaced;
* ``length_boundary_violations``: the boundary invariant of A1, from prefix
  runs;
* ``reference_sweep``: the A1/A2 sweep over ``DirectedEdgeRef``s, with a
  per-edge flow dict and a per-edge depth dict, that the arc-keyed
  residual sweep replaced;
* ``reference_walks``: the layered walk search of ``LocalEvaluator`` without
  pruning, over steps rebuilt from the edge list: every walk is grown into
  the last layer and only then dropped if it ends at an R node.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from itertools import combinations

from localflow.estimator_tester import TesterConfig
from localflow.exact_oracle import shortest_augmenting_path_length
from localflow.graph_core import (
    AB,
    BA,
    ColoredGraph,
    DirectedEdgeRef,
    Flow,
    ball_nodes,
    flow_value,
    induced_subgraph,
    validate_flow,
)
from localflow.local_flow import (
    AUGMENTED,
    SKIPPED_CHAIN,
    ZERO_CAPACITY,
    LocalEvaluator,
    RunConfig,
    RunTrace,
    TraceEntry,
    _ball_radius,
    run_a1,
    run_a2,
)
from localflow.path_engine import AugPathCandidate, enumerate_paths, path_key


def bfs_ball(g: ColoredGraph, start_nodes: list[int], r: int) -> set[int]:
    """Plain BFS over an adjacency map rebuilt from the edge list."""
    adj: dict[int, set[int]] = {nd.id: set() for nd in g.nodes}
    for e in g.edges:
        adj[e.a].add(e.b)
        adj[e.b].add(e.a)
    dist = {v: 0 for v in start_nodes}
    q = deque(start_nodes)
    while q:
        u = q.popleft()
        if dist[u] == r:
            continue
        for w in adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                q.append(w)
    return set(dist)


def full_scan_subgraph(g: ColoredGraph, node_ids: set[int]) -> ColoredGraph:
    """Induced subgraph by one filter pass over every node and edge of g."""
    nodes = tuple(nd for nd in g.nodes if nd.id in node_ids)
    edges = tuple(e for e in g.edges if e.a in node_ids and e.b in node_ids)
    return ColoredGraph(nodes, edges, g.degree_bound, g.capacity_bound_ticks, g.quantum)


def ball_rerun_f2(g: ColoredGraph, e: DirectedEdgeRef, cfg: RunConfig) -> int:
    """The A2 value at e from a whole A2 run on the ball a local query reads
    around e: every path in the ball enumerated, sorted, given a depth and
    swept, and the ball's flow validated."""
    l, s = cfg.l, cfg.require_s()
    sub = induced_subgraph(g, set(ball_nodes(g, e, _ball_radius(l, s))))
    f2, _ = run_a2(sub, RunConfig(l=l, s=s, seed=cfg.seed))
    validate_flow(sub, f2).raise_if_invalid("ball flow")
    return int(f2.on(e))


def intersects(u: AugPathCandidate, v: AugPathCandidate) -> bool:
    """True iff the two paths share an undirected edge (orientation ignored)."""
    return not u.edge_ids.isdisjoint(v.edge_ids)


def cut_capacity(g: ColoredGraph, node_set: frozenset[int] | set[int]) -> int:
    """Total capacity of directed edges leaving node_set."""
    total = 0
    for e in g.edges:
        if e.a in node_set and e.b not in node_set:
            total += e.cap_ab
        elif e.b in node_set and e.a not in node_set:
            total += e.cap_ba
    return total


def assemble_fbar2(g: ColoredGraph, cfg: TesterConfig) -> Flow:
    """The seed-averaged A2 flow, edge-wise, as an exact fractional-tick Flow,
    from the m global runs.  A convex combination of valid flows, so valid."""
    sums: dict[int, int] = {}
    for seed in cfg.seeds:
        f2, _ = run_a2(g, RunConfig(l=cfg.l, s=cfg.s, seed=seed))
        for eid, v in f2.values.items():
            sums[eid] = sums.get(eid, 0) + v
    return Flow({eid: Fraction(total, cfg.m) for eid, total in sums.items() if total != 0})


def out_edges(g: ColoredGraph, v: int) -> list[DirectedEdgeRef]:
    """Incident edges of v, each oriented away from v, in edge-id order."""
    g.node(v)  # raises on an unknown node id
    return [DirectedEdgeRef(arc >> 1, BA if arc & 1 else AB) for arc in g._adj[v][1::2]]


def out_edge_summand(g: ColoredGraph, v: int, cfg: TesterConfig,
                     evaluator: LocalEvaluator) -> Fraction:
    """The tester's per-vertex summand by its definition: I(v in S) times
    the seed mean of A2's values on v's out-edges, one edge query each."""
    if g.node(v).color != "S":
        return Fraction(0)
    total = sum(evaluator.f2_on(ref, seed) for ref in out_edges(g, v) for seed in cfg.seeds)
    return Fraction(total, cfg.m)


def fbar2_value(g: ColoredGraph, cfg: TesterConfig) -> Fraction:
    """Value of the seed-averaged A2 flow: the mean of the m runs' values."""
    return Fraction(flow_value(g, assemble_fbar2(g, cfg)))


def length_boundary_violations(g: ColoredGraph, cfg: RunConfig) -> list[int]:
    """The lengths j in 1..l after whose paths A1 leaves a residual S->T path
    of length <= j (empty = clean).  Keys order paths by length first, so the
    run capped at j processes exactly the full run's paths of length <= j, in
    the same order: its output is the full run's flow at boundary j."""
    bad = []
    for j in range(1, cfg.l + 1):
        f, _ = run_a1(g, RunConfig(l=j, seed=cfg.seed))
        if shortest_augmenting_path_length(g, f, j) is not None:
            bad.append(j)
    return bad


def reference_sweep(g: ColoredGraph, l: int, seed: int,
                    skip_threshold: int | None) -> tuple[Flow, RunTrace]:
    """A1 (skip_threshold None) or A2, one path at a time in ``path_key``
    order: depths from a dict of the best depth per undirected edge, rooms
    from the edge's capacities and the flow so far, by orientation string."""
    order = sorted(enumerate_paths(g, l), key=lambda u: path_key(u, seed))
    depths: dict[bytes, int] = {}
    best_at_edge: dict[int, int] = {}
    for u in order:
        d = 1 + max(best_at_edge.get(eid, 0) for eid in u.edge_ids)
        depths[u.canonical_key] = d
        for eid in u.edge_ids:
            best_at_edge[eid] = max(best_at_edge.get(eid, 0), d)

    f: dict[int, int] = {}
    entries = []
    for u in order:
        if skip_threshold is not None and depths[u.canonical_key] >= skip_threshold:
            entries.append(TraceEntry(u.canonical_key, SKIPPED_CHAIN, 0))
            continue
        rooms = []
        for ref in u.edges:
            e = g.edge(ref.edge_id)
            got = f.get(ref.edge_id, 0)
            rooms.append(e.cap_ab - got if ref.orientation == AB else e.cap_ba + got)
        amount = min(rooms)
        assert amount >= 0
        if amount > 0:
            for ref in u.edges:
                delta = amount if ref.orientation == AB else -amount
                f[ref.edge_id] = f.get(ref.edge_id, 0) + delta
            entries.append(TraceEntry(u.canonical_key, AUGMENTED, amount))
        else:
            entries.append(TraceEntry(u.canonical_key, ZERO_CAPACITY, 0))
    flow = Flow({eid: v for eid, v in f.items() if v != 0})
    validate_flow(g, flow).raise_if_invalid("reference sweep flow")
    return flow, RunTrace(tuple(entries))


def brute_min_cut(g: ColoredGraph) -> int:
    """Minimum capacity over all cuts A with S inside and T outside.

    By weak duality every valid flow value is bounded by every such cut, so a
    valid flow attaining this number is maximal.  Exhaustive over R subsets.
    """
    sources = set(g.nodes_of_color("S"))
    regulars = [nd.id for nd in g.nodes if nd.color == "R"]
    best = None
    for k in range(len(regulars) + 1):
        for chosen in combinations(regulars, k):
            cut_set = sources | set(chosen)
            cap = 0
            for e in g.edges:
                if e.a in cut_set and e.b not in cut_set:
                    cap += e.cap_ab
                elif e.b in cut_set and e.a not in cut_set:
                    cap += e.cap_ba
            if best is None or cap < best:
                best = cap
    return best if best is not None else 0


def dfs_max_flow_value(g: ColoredGraph) -> int:
    """Ford-Fulkerson with depth-first path search; independent of the
    library's BFS-based oracle."""
    # Arc store: per edge two arcs (AB at even index), plus virtual arcs.
    arcs_to: list[int] = []
    arcs_res: list[int] = []
    out: dict[int, list[int]] = {nd.id: [] for nd in g.nodes}
    out[-1] = []
    out[-2] = []

    def add(a: int, b: int, cab: int, cba: int) -> None:
        out[a].append(len(arcs_to))
        arcs_to.append(b)
        arcs_res.append(cab)
        out[b].append(len(arcs_to))
        arcs_to.append(a)
        arcs_res.append(cba)

    for e in g.edges:
        add(e.a, e.b, e.cap_ab, e.cap_ba)
    big = g.degree_bound * g.capacity_bound_ticks * max(g.n, 1) + 1
    for s in g.nodes_of_color("S"):
        add(-1, s, big, 0)
    for t in g.nodes_of_color("T"):
        add(t, -2, big, 0)

    def dfs(u: int, limit: int, seen: set[int]) -> int:
        if u == -2:
            return limit
        seen.add(u)
        for ai in out[u]:
            w = arcs_to[ai]
            if arcs_res[ai] > 0 and w not in seen:
                pushed = dfs(w, min(limit, arcs_res[ai]), seen)
                if pushed > 0:
                    arcs_res[ai] -= pushed
                    arcs_res[ai ^ 1] += pushed
                    return pushed
        return 0

    total = 0
    while True:
        pushed = dfs(-1, big, set())
        if pushed == 0:
            return total
        total += pushed


def naive_paths(g: ColoredGraph, l: int) -> set[tuple]:
    """Queue-driven enumeration of simple S->T directed paths, as
    (node, edge, node, ...) id tuples."""
    color = {nd.id: nd.color for nd in g.nodes}
    hops: dict[int, list[tuple[int, int]]] = {nd.id: [] for nd in g.nodes}
    for e in g.edges:
        hops[e.a].append((e.id, e.b))
        hops[e.b].append((e.id, e.a))

    found: set[tuple] = set()
    queue: deque[tuple[tuple, frozenset[int]]] = deque()
    for s in g.nodes_of_color("S"):
        queue.append(((s,), frozenset([s])))
    while queue:
        trail, seen = queue.popleft()
        here = trail[-1]
        length = len(trail) // 2
        if length > 0 and color[here] == "T":
            found.add(trail)
        if length == l:
            continue
        for eid, nxt in hops[here]:
            if nxt not in seen:
                queue.append((trail + (eid, nxt), seen | {nxt}))
    return found


def path_signature(u: AugPathCandidate) -> tuple:
    sig: list[int] = [u.nodes[0]]
    for ref, node in zip(u.edges, u.nodes[1:]):
        sig.append(ref.edge_id)
        sig.append(node)
    return tuple(sig)


def brute_chain_depths(paths: list[AugPathCandidate], seed: int) -> dict[bytes, int]:
    """Longest strictly-decreasing intersecting sequence from each path, by
    exhaustive DFS over all chains (no DP, no processing order)."""
    keys = {u.canonical_key: path_key(u, seed) for u in paths}

    def shares_edge(u: AugPathCandidate, v: AugPathCandidate) -> bool:
        return bool(set(r.edge_id for r in u.edges) & set(r.edge_id for r in v.edges))

    def longest_from(u: AugPathCandidate) -> int:
        best = 1
        for v in paths:
            if v is not u and keys[v.canonical_key] < keys[u.canonical_key] and shares_edge(u, v):
                got = 1 + longest_from(v)
                if got > best:
                    best = got
        return best

    return {u.canonical_key: longest_from(u) for u in paths}


def residual_sp_length(g: ColoredGraph, f_values: dict[int, int], l_max=None):
    """Shortest S->T length over edges with slack, via per-node Dijkstra-ish
    relaxation instead of multi-source BFS."""
    import heapq

    hops: dict[int, list[tuple[int, int, str]]] = {nd.id: [] for nd in g.nodes}
    for e in g.edges:
        hops[e.a].append((e.id, e.b, AB))
        hops[e.b].append((e.id, e.a, BA))
    targets = set(g.nodes_of_color("T"))
    heap = [(0, s) for s in g.nodes_of_color("S")]
    heapq.heapify(heap)
    dist: dict[int, int] = {}
    while heap:
        d, u = heapq.heappop(heap)
        if u in dist:
            continue
        dist[u] = d
        if u in targets:
            return d if l_max is None or d <= l_max else None
        for eid, w, orientation in hops[u]:
            e = g.edge(eid)
            v = f_values.get(eid, 0)
            used = v if orientation == AB else -v
            if used < (e.cap_ab if orientation == AB else e.cap_ba) and w not in dist:
                heapq.heappush(heap, (d + 1, w))
    return None


def reference_walks(g: ColoredGraph, l: int, v: int) -> tuple[list[tuple], list[tuple]]:
    """(into, out of) v: the (nodes, arcs) of every vertex-simple walk of at
    most l-1 edges from an S node into v, and from v to a T node, shortest
    first."""
    color = {nd.id: nd.color for nd in g.nodes}
    steps: dict[int, list[tuple[int, int]]] = {nd.id: [] for nd in g.nodes}
    for e in sorted(g.edges, key=lambda e: e.id):
        steps[e.a].append((e.b, 2 * e.id))
        steps[e.b].append((e.a, 2 * e.id + 1))
    into: list[tuple] = []
    out: list[tuple] = []
    layer = [((v,), ())]
    for length in range(l):
        grown = []
        for nodes, arcs in layer:
            if color[nodes[-1]] == "T":
                out.append((nodes, arcs))
            elif color[nodes[-1]] == "S":
                into.append((nodes[::-1], tuple(arc ^ 1 for arc in reversed(arcs))))
            if length == l - 1:
                continue
            for nxt, arc in steps[nodes[-1]]:
                if nxt not in nodes:
                    grown.append((nodes + (nxt,), arcs + (arc,)))
        layer = grown
    return into, out
