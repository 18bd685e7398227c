"""Property tests of the two JSON wire formats: graphs and instance specs.

A value written and read back is the same value, and a file with any integer
field replaced by a non-integer (a float, a bool, a numeric string, null) is
refused with a ValueError that names the field.  Examples are derandomized,
so every run checks the same ones.
"""

from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localflow.graph_core import (
    COLORS,
    ColoredGraph,
    Edge,
    Node,
    dumps_json,
    graph_from_json,
    graph_to_json,
)
from localflow.harness import FAMILIES, INT_PARAMS, InstanceSpec

FIXED = settings(max_examples=60, derandomize=True, database=None, deadline=None)

non_integers = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(),
    st.integers(-99, 99).map(str),
    st.none(),
)
fractions = st.builds(Fraction, st.integers(0, 20), st.integers(1, 20))


@st.composite
def graphs(draw) -> ColoredGraph:
    """Valid graphs: distinct ids, no self-loops, degrees and caps within bounds."""
    d = draw(st.integers(1, 4))
    m = draw(st.integers(1, 9))
    node_ids = draw(st.lists(st.integers(0, 10**6), max_size=8, unique=True))
    nodes = tuple(Node(v, draw(st.sampled_from(COLORS))) for v in node_ids)
    edges: list[Edge] = []
    degree = dict.fromkeys(node_ids, 0)
    if len(node_ids) >= 2:
        pairs = draw(st.lists(st.lists(st.sampled_from(node_ids), min_size=2, max_size=2,
                                       unique=True), max_size=12))
        edge_ids = draw(st.lists(st.integers(0, 10**6), min_size=len(pairs),
                                 max_size=len(pairs), unique=True))
        for eid, (a, b) in zip(edge_ids, pairs):
            if degree[a] < d and degree[b] < d:
                degree[a] += 1
                degree[b] += 1
                edges.append(Edge(eid, a, b, draw(st.integers(0, m)), draw(st.integers(0, m))))
    quantum = Fraction(draw(st.integers(1, 9)), draw(st.integers(1, 9)))
    return ColoredGraph(nodes, tuple(edges), d, m, quantum)


def through_json(obj: dict) -> dict:
    return json.loads(json.dumps(obj))


@FIXED
@given(graphs())
def test_graph_json_round_trip(g):
    again = graph_from_json(through_json(graph_to_json(g)))
    assert (again.nodes, again.edges) == (g.nodes, g.edges)
    assert (again.degree_bound, again.capacity_bound_ticks, again.quantum) == (
        g.degree_bound, g.capacity_bound_ticks, g.quantum)
    assert dumps_json(graph_to_json(again)) == dumps_json(graph_to_json(g))


@FIXED
@given(graphs(), st.data(), non_integers)
def test_graph_json_refuses_a_non_integer_field(g, data, bad):
    obj = through_json(graph_to_json(g))
    holders = [(obj, key, "graph") for key in ("degree_bound", "capacity_bound_ticks")]
    holders += [(nd, "id", "node") for nd in obj["nodes"]]
    holders += [(e, key, "edge") for e in obj["edges"]
                for key in ("id", "a", "b", "cap_ab", "cap_ba")]
    holder, key, where = data.draw(st.sampled_from(holders))
    holder[key] = bad
    with pytest.raises(ValueError, match=f"bad field '{key}' in {where}"):
        graph_from_json(through_json(obj))


@st.composite
def specs(draw) -> InstanceSpec:
    keys = draw(st.lists(st.sampled_from(INT_PARAMS), unique=True, max_size=4))
    params: dict = {key: draw(st.integers(-5, 50)) for key in keys}
    if draw(st.booleans()):
        params["bottlenecks"] = draw(st.lists(st.integers(0, 9), max_size=5))
    return InstanceSpec(
        family=draw(st.sampled_from(FAMILIES)),
        n=draw(st.integers(0, 10**4)),
        d=draw(st.integers(1, 8)),
        m_ticks=draw(st.integers(1, 20)),
        quantum=draw(fractions.filter(lambda q: q > 0)),
        rho_s=draw(fractions),
        rho_t=draw(fractions),
        gen_seed=draw(st.integers(0, 2**64)),
        params=params,
    )


@FIXED
@given(specs())
def test_spec_json_round_trip_property(spec):
    assert InstanceSpec.from_json(through_json(spec.to_json())) == spec


@FIXED
@given(specs(), st.data(), non_integers)
def test_spec_json_refuses_a_non_integer_field(spec, data, bad):
    obj = through_json(spec.to_json())
    holders = [(obj, key) for key in ("n", "d", "m_ticks", "gen_seed")]
    holders += [(obj["params"], key) for key in INT_PARAMS if key in obj["params"]]
    holders += [(b, i) for b in [obj["params"].get("bottlenecks")] if b for i in range(len(b))]
    holder, key = data.draw(st.sampled_from(holders))
    holder[key] = bad
    field = key if isinstance(key, str) else "bottlenecks"
    with pytest.raises(ValueError, match=f"bad field '{field}'"):
        InstanceSpec.from_json(through_json(obj))
