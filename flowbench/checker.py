"""Output checks written from the raw node and edge lists alone.

Nothing here imports the program: the checks take plain lists and dicts, so a
fault in the program's own validation, max-flow or BFS code cannot hide a
fault in its outputs.  A network is ``nodes = [(id, color), ...]`` and
``edges = [(id, a, b, cap_ab, cap_ba), ...]``; a flow is ``{edge_id: f_ab}``
read in the a-to-b direction, missing edges reading 0.  Every check raises
``CheckFailed`` naming the first violation it finds.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from typing import Mapping, Sequence


class CheckFailed(AssertionError):
    pass


Nodes = Sequence[tuple[int, str]]
Edges = Sequence[tuple[int, int, int, int, int]]


def flow_value(nodes: Nodes, edges: Edges, flow: Mapping[int, int | Fraction]) -> int | Fraction:
    """Check capacity, conservation and the S/T signs; return the net outflow of S."""
    ids = {eid for eid, *_ in edges}
    for eid in flow:
        if eid not in ids:
            raise CheckFailed(f"flow on unknown edge {eid}")
    net = {v: 0 for v, _ in nodes}
    for eid, a, b, cap_ab, cap_ba in edges:
        f = flow.get(eid, 0)
        if f > cap_ab or -f > cap_ba:
            raise CheckFailed(f"edge {eid}: flow {f} outside [-{cap_ba}, {cap_ab}]")
        net[a] += f
        net[b] -= f
    value = 0
    for v, color in nodes:
        if color == "R" and net[v] != 0:
            raise CheckFailed(f"node {v}: regular node with net outflow {net[v]}")
        if color == "S":
            if net[v] < 0:
                raise CheckFailed(f"node {v}: source with net outflow {net[v]}")
            value += net[v]
        if color == "T" and net[v] > 0:
            raise CheckFailed(f"node {v}: target with net outflow {net[v]}")
    return value


def _residual_arcs(nodes: Nodes, edges: Edges, flow: Mapping[int, int]) -> dict[int, list[int]]:
    """Directed arcs with room left, as an adjacency list."""
    arcs: dict[int, list[int]] = {v: [] for v, _ in nodes}
    for eid, a, b, cap_ab, cap_ba in edges:
        f = flow.get(eid, 0)
        if f < cap_ab:
            arcs[a].append(b)
        if -f < cap_ba:
            arcs[b].append(a)
    return arcs


def residual_distances(nodes: Nodes, edges: Edges, flow: Mapping[int, int]) -> dict[int, int]:
    """Hop distance from the nearest source along residual arcs, for reached nodes."""
    arcs = _residual_arcs(nodes, edges, flow)
    dist = {v: 0 for v, color in nodes if color == "S"}
    queue = deque(dist)
    while queue:
        u = queue.popleft()
        for w in arcs[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def cut_capacity(edges: Edges, side: set[int]) -> int:
    """Capacity of the arcs leaving ``side``."""
    total = 0
    for _eid, a, b, cap_ab, cap_ba in edges:
        if a in side and b not in side:
            total += cap_ab
        elif b in side and a not in side:
            total += cap_ba
    return total


def check_max_flow(nodes: Nodes, edges: Edges, flow: Mapping[int, int], claimed: int) -> None:
    """The flow is valid, has the claimed value, and a residual cut certifies it."""
    value = flow_value(nodes, edges, flow)
    if value != claimed:
        raise CheckFailed(f"max flow claims {claimed} but its flow carries {value}")
    side = set(residual_distances(nodes, edges, flow))
    for v, color in nodes:
        if color == "T" and v in side:
            raise CheckFailed(f"no residual cut: target {v} is reachable from the sources")
    cut = cut_capacity(edges, side)
    if cut != claimed:
        raise CheckFailed(f"residual cut capacity {cut} differs from max flow {claimed}")


def check_no_short_path(nodes: Nodes, edges: Edges, flow: Mapping[int, int], l: int) -> None:
    """No residual source-to-target path of at most l edges remains."""
    dist = residual_distances(nodes, edges, flow)
    for v, color in nodes:
        if color == "T" and v in dist and dist[v] <= l:
            raise CheckFailed(f"residual path of length {dist[v]} <= {l} reaches target {v}")


def check_gap_bound(value: int, fstar: int, d: int, m: int, n: int, l: int) -> None:
    """The length-l bound |f1| >= f* - (d*M/l)*n."""
    if Fraction(value) < fstar - Fraction(d * m * n, l):
        raise CheckFailed(f"flow {value} below f* {fstar} - (d*M/l)*n")


def check_local_values(local: Mapping[int, int], global_flow: Mapping[int, int]) -> None:
    """Each locally computed a-to-b value equals the global run's value at that edge."""
    for eid, got in local.items():
        want = global_flow.get(eid, 0)
        if got != want:
            raise CheckFailed(f"edge {eid}: local value {got}, global value {want}")


def check_tester(
    nodes: Nodes,
    edges: Edges,
    sampled: Sequence[int],
    per_sample: Sequence[Fraction],
    estimate: Fraction,
    global_flows: Sequence[Mapping[int, int]],
    k: int,
) -> None:
    """k vertices of the graph were sampled, every summand matches the global
    runs, and the estimate is the summands' mean."""
    if len(sampled) != k or len(per_sample) != k:
        raise CheckFailed(f"tester report has {len(sampled)} samples and "
                          f"{len(per_sample)} summands, not k = {k}")
    color = dict(nodes)
    unknown = [v for v in sampled if v not in color]
    if unknown:
        raise CheckFailed(f"tester sampled {unknown[0]}, which is not a node of the graph")
    out: dict[int, list[tuple[int, int]]] = {v: [] for v in color}
    for eid, a, b, _cap_ab, _cap_ba in edges:
        out[a].append((eid, 1))
        out[b].append((eid, -1))
    want: dict[int, Fraction] = {}
    for v, got in zip(sampled, per_sample):
        if v not in want:
            if color[v] == "S":
                total = sum(sign * f.get(eid, 0) for f in global_flows for eid, sign in out[v])
                want[v] = Fraction(total, len(global_flows))
            else:
                want[v] = Fraction(0)
        if got != want[v]:
            raise CheckFailed(f"node {v}: tester summand {got}, global runs give {want[v]}")
    mean = sum(per_sample, Fraction(0)) / len(per_sample)
    if estimate != mean:
        raise CheckFailed(f"tester estimate {estimate} is not the summand mean {mean}")
