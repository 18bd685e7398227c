"""Independent brute-force implementations used as test oracles.

Everything here works from the raw node/edge lists with its own traversal
strategy, never through the library's adjacency, enumeration or DP code paths.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations

from localflow.graph_core import AB, BA, ColoredGraph, DirectedEdgeRef
from localflow.path_engine import AugPathCandidate, path_key


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


def naive_paths(
    g: ColoredGraph, l: int, interior_regular_only: bool = False
) -> set[tuple]:
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
        if length > 0 and interior_regular_only and color[here] != "R":
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
            if used < e.cap(orientation) and w not in dist:
                heapq.heappush(heap, (d + 1, w))
    return None
