"""Colored bounded-degree networks, antisymmetric flows, and neighborhood balls.

A network's vertices are partitioned into regular (R), source (S) and target
(T) nodes.  Every undirected edge carries one integer capacity per direction,
measured in ticks; the real capacity of a direction is ``ticks * quantum``.
All arithmetic on capacities and flows is exact (int / Fraction), never float:
the locality checks downstream compare flow values bit for bit.

A ``ColoredGraph`` is valid by construction: its constructor checks the degree
and capacity bounds, ids, colors, endpoints and capacities, each number a true
int, and raises on any violation.
Graphs are immutable, so nothing downstream checks a graph again.

The constructor also builds the graph's one adjacency, which every layer
reads in place.  It is stored as arcs: edge e read AB (from a to b) is the
int 2*e and read BA is 2*e + 1, so an arc's edge is ``arc >> 1`` and its
reversal ``arc ^ 1``.  ``_adj[v]`` is the flat tuple (neighbour, arc,
neighbour, arc, ...) of the arcs leaving v, in edge-id order.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from operator import attrgetter
from typing import AbstractSet, Iterable, Mapping, NamedTuple, Sequence, Union

COLORS = ("R", "S", "T")

AB = "AB"
BA = "BA"

# Flow entries are exact: integer ticks for algorithm outputs, Fraction ticks
# for seed-averaged flows.
Ticks = Union[int, Fraction]


class DirectedEdgeRef(NamedTuple):
    """An undirected edge read in one of its two directions."""

    edge_id: int
    orientation: str  # AB or BA


def _orientation_error(ref: DirectedEdgeRef) -> ValueError:
    """The error for a ref whose orientation is neither AB nor BA."""
    return ValueError(f"bad field 'orientation': expected {AB!r} or {BA!r}, "
                      f"got {ref.orientation!r}")


@dataclass(frozen=True, slots=True)
class Node:
    id: int
    color: str


@dataclass(frozen=True, slots=True)
class Edge:
    id: int
    a: int
    b: int
    cap_ab: int
    cap_ba: int


@dataclass(frozen=True, eq=False)
class ColoredGraph:
    """Immutable network: R/S/T-colored nodes, two-way integer capacities.

    Node and edge ids are stable; subgraph extraction preserves them, which is
    what lets a local run and a global run agree on path labels.  Identity
    (not structure) is used for equality and hashing so graphs can key caches.
    Valid by construction: building a graph that breaks any rule of
    ``validate_graph`` raises ``ValueError``.
    """

    nodes: tuple[Node, ...]
    edges: tuple[Edge, ...]
    degree_bound: int
    capacity_bound_ticks: int
    quantum: Fraction = Fraction(1)

    # Derived lookups, built once at construction.
    _node_by_id: dict = field(init=False, repr=False)
    _edge_by_id: dict = field(init=False, repr=False)
    # node id -> (neighbour, arc, neighbour, arc, ...), arcs in edge-id order
    _adj: dict = field(init=False, repr=False)

    def __post_init__(self) -> None:
        nodes, edges = self.nodes, self.edges
        try:
            lookups = _lookups(nodes, edges)
        except TypeError:  # an unhashable id or endpoint, or ids that do not sort
            # Look up only the items whose ids and endpoints are ints, so that
            # validate_graph runs and names every field that is not.
            lookups = _lookups([nd for nd in nodes if type(nd.id) is int],
                               [e for e in edges if type(e.id) is type(e.a) is type(e.b) is int])
        for name, lookup in zip(("_node_by_id", "_edge_by_id", "_adj"), lookups):
            object.__setattr__(self, name, lookup)
        validate_graph(self).raise_if_invalid("graph")

    @property
    def n(self) -> int:
        return len(self.nodes)

    def node(self, node_id: int) -> Node:
        try:
            return self._node_by_id[node_id]
        except KeyError:
            raise ValueError(f"unknown node id {node_id}") from None

    def edge(self, edge_id: int) -> Edge:
        try:
            return self._edge_by_id[edge_id]
        except KeyError:
            raise ValueError(f"unknown edge id {edge_id}") from None

    @cached_property
    def _sorted_node_ids(self) -> tuple[int, ...]:
        """Every node id in ascending order, sorted once per graph on first use."""
        return tuple(sorted(self._node_by_id))

    def nodes_of_color(self, color: str) -> list[int]:
        return sorted(nd.id for nd in self.nodes if nd.color == color)


def _lookups(nodes: Sequence[Node], edges: Sequence[Edge]) -> tuple[dict, dict, dict]:
    """A graph's nodes and edges by id, and its adjacency."""
    node_by_id = {nd.id: nd for nd in nodes}
    edge_by_id = {e.id: e for e in edges}
    adj: dict = {v: [] for v in node_by_id}
    for e in sorted(edges, key=attrgetter("id")):
        a, b, arc = e.a, e.b, 2 * e.id
        if a in adj:
            adj[a] += (b, arc)
        if b in adj and b != a:
            adj[b] += (a, arc + 1)
    for v, steps in adj.items():
        adj[v] = tuple(steps)
    return node_by_id, edge_by_id, adj


@dataclass(frozen=True, eq=False)
class Flow:
    """Antisymmetric edge function in ticks: one stored value per edge.

    ``values[edge_id]`` is the flow read in the AB orientation; the BA reading
    is its negation by construction, so antisymmetry cannot be violated by any
    stored state.  Missing edges read as 0.
    """

    values: Mapping[int, Ticks]

    @staticmethod
    def zero() -> "Flow":
        return Flow({})

    def on(self, ref: DirectedEdgeRef) -> Ticks:
        v = self.values.get(ref.edge_id, 0)
        if ref.orientation == AB:
            return v
        if ref.orientation != BA:
            raise _orientation_error(ref)
        return -v

    def on_edge(self, edge_id: int) -> Ticks:
        return self.values.get(edge_id, 0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Flow):
            return NotImplemented
        keys = set(self.values) | set(other.values)
        return all(self.values.get(k, 0) == other.values.get(k, 0) for k in keys)

    __hash__ = None  # type: ignore[assignment]


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def raise_if_invalid(self, what: str) -> None:
        if self.violations:
            raise ValueError(f"invalid {what}: " + "; ".join(self.violations[:5]))


def validate_graph(g: ColoredGraph) -> ValidationReport:
    """Check every network invariant; violations are data, not exceptions.

    ColoredGraph's constructor runs it, so every graph that exists passes.
    A check is skipped when one of its operands is already reported as not
    an int, on which it could raise ``TypeError``.
    """
    bad: list[str] = []
    d, m = g.degree_bound, g.capacity_bound_ticks
    int_d, int_m = type(d) is int, type(m) is int  # bool is an int subclass; a float is not exact
    if not int_d:
        bad.append(f"graph field 'degree_bound' is {d!r}, not an int")
    elif d < 1:
        bad.append(f"degree bound {d} is not positive")
    if not int_m:
        bad.append(f"graph field 'capacity_bound_ticks' is {m!r}, not an int")
    elif m < 1:
        bad.append(f"capacity bound {m} is not positive")
    if type(g.quantum) not in (int, Fraction):  # bool is an int subclass; a float is not exact
        bad.append(f"tick quantum {g.quantum!r} is not an int or a Fraction")
    elif g.quantum <= 0:
        bad.append(f"tick quantum {g.quantum} is not positive")
    if len(g._node_by_id) != len(g.nodes):
        bad.extend(_duplicate_ids("node", g.nodes))
    adj = g._adj
    for nd in g.nodes:
        int_id = type(nd.id) is int
        if not int_id:
            bad.append(f"node field 'id' is {nd.id!r}, not an int")
        elif nd.id < 0:
            bad.append(f"negative node id {nd.id}")
        if nd.color not in COLORS:
            bad.append(f"node {nd.id} has unknown color {nd.color!r}")
        if int_id and int_d:
            deg = len(adj[nd.id]) // 2
            if deg > d:
                bad.append(f"degree bound exceeded at node {nd.id} ({deg} > {d})")
    if len(g._edge_by_id) != len(g.edges):
        bad.extend(_duplicate_ids("edge", g.edges))
    for e in g.edges:
        a, b = e.a, e.b
        ints = type(e.id) is type(a) is type(b) is type(e.cap_ab) is type(e.cap_ba) is int
        if not ints:
            bad.extend(f"edge {e.id!r} field {name!r} is {value!r}, not an int"
                       for name in ("id", "a", "b", "cap_ab", "cap_ba")
                       if type(value := getattr(e, name)) is not int)
        if (ints or type(a) is int) and a not in adj:
            bad.append(f"edge {e.id} endpoint a={a} is not a node")
        if (ints or type(b) is int) and b not in adj:
            bad.append(f"edge {e.id} endpoint b={b} is not a node")
        if a == b:
            bad.append(f"edge {e.id} is a self-loop at node {a}")
        if ((ints or type(e.cap_ab) is type(e.cap_ba) is int) and int_m
                and not (0 <= e.cap_ab <= m and 0 <= e.cap_ba <= m)):
            for cap, side in ((e.cap_ab, "ab"), (e.cap_ba, "ba")):
                if cap < 0:
                    bad.append(f"edge {e.id} cap_{side} is negative")
                elif cap > m:
                    bad.append(f"edge {e.id} cap_{side} above M ({cap} > {m})")
    return ValidationReport(tuple(bad))


def _duplicate_ids(kind: str, items: Iterable[Union[Node, Edge]]) -> list[str]:
    bad = []
    seen: set[int] = set()
    for item in items:
        if type(item.id) is not int:  # reported as not an int, and maybe unhashable
            continue
        if item.id in seen:
            bad.append(f"duplicate {kind} id {item.id}")
        seen.add(item.id)
    return bad


def induced_subgraph(g: ColoredGraph, node_ids: AbstractSet[int]) -> ColoredGraph:
    """Subgraph on node_ids keeping original node/edge ids, colors and caps.

    Built from the incidence lists of node_ids alone, so its cost depends on
    the size of the ball, not of g.  Nodes and edges come out in ascending id
    order; ids that are not nodes of g are ignored.
    """
    adj = g._adj
    kept = [v for v in node_ids if v in adj]
    edge_ids = set()
    for v in kept:
        steps = iter(adj[v])
        for w, arc in zip(steps, steps):
            if w in node_ids:
                edge_ids.add(arc >> 1)
    nodes = tuple(g._node_by_id[v] for v in sorted(kept))
    edges = tuple(g._edge_by_id[eid] for eid in sorted(edge_ids))
    return ColoredGraph(nodes, edges, g.degree_bound, g.capacity_bound_ticks, g.quantum)


def ball_nodes(g: ColoredGraph, center: Union[int, DirectedEdgeRef], r: int) -> frozenset[int]:
    """Node ids at hop distance <= r from a node or from either endpoint of an edge."""
    if r < 0:
        raise ValueError(f"bad field 'radius': expected an integer >= 0, got {r}")
    if isinstance(center, DirectedEdgeRef):
        e = g.edge(center.edge_id)
        seen = {e.a, e.b}
    else:
        g.node(center)
        seen = {center}
    adj = g._adj
    frontier = list(seen)
    for _ in range(r):
        nxt = []
        for u in frontier:
            for w in adj[u][::2]:
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        if not nxt:
            break
        frontier = nxt
    return frozenset(seen)


def _net_out(g: ColoredGraph, f: Flow, v: int) -> Ticks:
    get = f.values.get
    total: Ticks = 0
    for arc in g._adj[v][1::2]:
        x = get(arc >> 1, 0)
        total += -x if arc & 1 else x
    return total


class _Residuals(dict):
    """Residual capacity by arc under a flow (zero when none is given): the
    arc's capacity less the flow along it.  Read from g on first use, so a
    search or sweep holds entries only for the arcs it reaches."""

    def __init__(self, g: ColoredGraph, f: Flow | None = None):
        super().__init__()
        self.edge_by_id = g._edge_by_id
        self.start = {} if f is None else f.values

    def __missing__(self, arc: int) -> int:
        e = self.edge_by_id[arc >> 1]
        used = self.start.get(arc >> 1, 0)
        got = self[arc] = e.cap_ba + used if arc & 1 else e.cap_ab - used
        return got

    def flow(self) -> Flow:
        """The flow these residuals hold, read off the AB arcs: augmenting
        reaches both arcs of every edge it changes."""
        edge = self.edge_by_id
        values = dict(self.start)
        for arc, left in self.items():
            if not arc & 1:
                values[arc >> 1] = edge[arc >> 1].cap_ab - left
        return Flow({eid: v for eid, v in values.items() if v})


def validate_flow(g: ColoredGraph, f: Flow) -> ValidationReport:
    """Exact check of capacity, conservation and the S/T inequalities."""
    bad: list[str] = []
    for eid in f.values:
        if eid not in g._edge_by_id:
            raise ValueError(f"flow keyed on unknown edge id {eid}")
    for e in g.edges:
        v = f.on_edge(e.id)
        if v > e.cap_ab:
            bad.append(f"capacity violated on edge {e.id} (f_ab {v} > cap_ab {e.cap_ab})")
        if -v > e.cap_ba:
            bad.append(f"capacity violated on edge {e.id} (f_ba {-v} > cap_ba {e.cap_ba})")
    for nd in g.nodes:
        net = _net_out(g, f, nd.id)
        if nd.color == "R" and net != 0:
            bad.append(f"conservation violated at node {nd.id} (net out {net})")
        elif nd.color == "S" and net < 0:
            bad.append(f"source inequality violated at node {nd.id} (net out {net})")
        elif nd.color == "T" and net > 0:
            bad.append(f"target inequality violated at node {nd.id} (net out {net})")
    return ValidationReport(tuple(bad))


def flow_value(g: ColoredGraph, f: Flow) -> Ticks:
    """Total net outflow of the sources, in ticks; raises on an invalid flow."""
    validate_flow(g, f).raise_if_invalid("flow")
    return _source_outflow(g, f)


def _source_outflow(g: ColoredGraph, f: Flow) -> Ticks:
    """``flow_value`` of a flow already validated on g, read without a check."""
    total: Ticks = 0
    for s in g.nodes_of_color("S"):
        total += _net_out(g, f, s)
    return total


# ---------------------------------------------------------------------------
# JSON wire formats
# ---------------------------------------------------------------------------


def frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def graph_to_json(g: ColoredGraph, meta: Mapping | None = None) -> dict:
    obj = {
        "quantum": frac_str(g.quantum),
        "degree_bound": g.degree_bound,
        "capacity_bound_ticks": g.capacity_bound_ticks,
        "nodes": [{"id": nd.id, "color": nd.color} for nd in g.nodes],
        "edges": [
            {"id": e.id, "a": e.a, "b": e.b, "cap_ab": e.cap_ab, "cap_ba": e.cap_ba}
            for e in g.edges
        ],
    }
    if meta:
        obj["meta"] = dict(meta)
    return obj


def _require(obj: Mapping, key: str, where: str):
    """A required field of the JSON object obj, which is the item ``where``."""
    if not isinstance(obj, Mapping):
        raise ValueError(f"bad {where}: expected a JSON object, got {obj!r}")
    if key not in obj:
        raise ValueError(f"missing field {key!r} in {where}")
    return obj[key]


def _list_field(obj: Mapping, key: str, where: str) -> list:
    """A required field that is a JSON array."""
    value = _require(obj, key, where)
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"bad field {key!r} in {where}: expected a list, got {value!r}")
    return value


def _int_field(obj: Mapping, key: str, where: str, minimum: int | None = None) -> int:
    """A required integer field, at least ``minimum`` when one is given;
    floats, bools and numeric strings are refused."""
    value = _require(obj, key, where)
    # bool is an int subclass
    if type(value) is not int or (minimum is not None and value < minimum):
        expected = "an integer" if minimum is None else f"an integer >= {minimum}"
        raise ValueError(f"bad field {key!r} in {where}: expected {expected}, got {value!r}")
    return value


def _fraction_field(obj: Mapping, key: str, where: str) -> Fraction:
    """A required rational field: an integer, or a string such as "p/q"."""
    value = _require(obj, key, where)
    try:
        return Fraction(str(value))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad field {key!r} in {where}: {exc}") from None


def graph_from_json(obj: Mapping) -> ColoredGraph:
    quantum = _fraction_field(obj, "quantum", "graph")
    nodes = tuple(
        Node(_int_field(nd, "id", "node"), str(_require(nd, "color", "node")))
        for nd in _list_field(obj, "nodes", "graph")
    )
    edges = tuple(
        Edge(*(_int_field(e, key, "edge") for key in ("id", "a", "b", "cap_ab", "cap_ba")))
        for e in _list_field(obj, "edges", "graph")
    )
    return ColoredGraph(nodes, edges, _int_field(obj, "degree_bound", "graph"),
                        _int_field(obj, "capacity_bound_ticks", "graph"), quantum)


def flow_to_json(f: Flow) -> dict:
    vals = []
    for eid in sorted(f.values):
        v = f.values[eid]
        if v == 0:
            continue
        vals.append({"id": eid, "f_ab": int(v) if isinstance(v, int) else str(Fraction(v))})
    return {"edge_values": vals}


def flow_from_json(obj: Mapping) -> Flow:
    """Read a flow as ``flow_to_json`` writes it: each ``f_ab`` an integer or
    a rational as a "p/q" (or "p") string; floats, bools and other strings
    are refused, as are ids that are not integers and repeated ids."""
    values: dict[int, Ticks] = {}
    where = "flow edge value"
    for item in _list_field(obj, "edge_values", "flow"):
        raw = _require(item, "f_ab", where)
        if type(raw) is int:
            v: Ticks = raw
        elif isinstance(raw, str) and re.fullmatch(r"-?[0-9]+(/0*[1-9][0-9]*)?", raw):
            v = Fraction(raw)
        else:
            raise ValueError(
                f"bad field 'f_ab' in {where}: expected an integer or a 'p/q' string, got {raw!r}")
        eid = _int_field(item, "id", where)
        if eid in values:
            raise ValueError(f"bad field 'id' in {where}: repeated edge id {eid}")
        values[eid] = v
    return Flow(values)


def dumps_json(obj: dict) -> str:
    return json.dumps(obj, indent=2) + "\n"
