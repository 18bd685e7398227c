"""Property tests of the JSON wire formats: graphs, flows and instance specs.

A value written and read back is the same value, and a file with any integer
field replaced by a non-integer (a float, a bool, a numeric string, null) is
refused with a ValueError that names the field.  So is a file with an item
or a list replaced by a scalar, a flow that repeats an edge id, and a spec
whose rational field is not a rational.  Examples are derandomized, so every
run checks the same ones.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localflow.graph_core import (
    COLORS,
    ColoredGraph,
    Edge,
    Flow,
    Node,
    dumps_json,
    flow_from_json,
    flow_to_json,
    graph_from_json,
    graph_to_json,
)
from localflow.harness import FAMILIES, FAMILY_PARAMS, InstanceSpec

FIXED = settings(max_examples=60, derandomize=True, database=None, deadline=None)

non_integers = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(),
    st.integers(-99, 99).map(str),
    st.none(),
)
fractions = st.builds(Fraction, st.integers(0, 20), st.integers(1, 20))
# Neither a JSON object nor a list.
scalars = st.one_of(
    st.integers(-99, 99),
    st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(),
    st.text(max_size=3),
    st.none(),
)


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


@FIXED
@given(graphs(), st.data(), scalars)
def test_graph_json_refuses_a_scalar_item_or_list(g, data, bad):
    obj = through_json(graph_to_json(g))
    holders = [(obj, key, f"bad field '{key}' in graph: expected a list")
               for key in ("nodes", "edges")]
    holders += [(obj[key], i, f"bad {where}: expected a JSON object")
                for key, where in (("nodes", "node"), ("edges", "edge"))
                for i in range(len(obj[key]))]
    holder, key, message = data.draw(st.sampled_from(holders))
    holder[key] = bad
    with pytest.raises(ValueError, match=re.escape(message)):
        graph_from_json(through_json(obj))


flows = st.dictionaries(st.integers(-99, 99), st.integers(-9, 9).filter(bool), min_size=1).map(Flow)


@FIXED
@given(flows, st.data(), scalars)
def test_flow_json_refuses_a_scalar_item_or_a_repeated_id(f, data, bad):
    obj = through_json(flow_to_json(f))
    assert flow_from_json(obj) == f
    items = obj["edge_values"]
    at = data.draw(st.integers(0, len(items)))
    items.insert(at, dict(data.draw(st.sampled_from(items)), f_ab=data.draw(st.integers(-9, 9))))
    with pytest.raises(ValueError, match="bad field 'id' in flow edge value: repeated edge id"):
        flow_from_json(through_json(obj))
    items[at] = bad
    with pytest.raises(ValueError, match="bad flow edge value: expected a JSON object"):
        flow_from_json(through_json(obj))


@st.composite
def specs(draw) -> InstanceSpec:
    """Specs with params drawn from their family's own names and feasible
    color fractions, which the constructor requires."""
    family = draw(st.sampled_from(FAMILIES))
    keys = draw(st.lists(st.sampled_from(sorted(FAMILY_PARAMS[family])), unique=True))
    params: dict = {key: draw(st.lists(st.integers(0, 9), max_size=5) if key == "bottlenecks"
                              else st.integers(-5, 50)) for key in keys}
    unit = st.integers(1, 20).flatmap(lambda b: st.builds(Fraction, st.integers(0, b), st.just(b)))
    rho_s = draw(unit)
    return InstanceSpec(
        family=family,
        n=draw(st.integers(0, 10**4)),
        d=draw(st.integers(1, 8)),
        m_ticks=draw(st.integers(1, 20)),
        quantum=draw(fractions.filter(lambda q: q > 0)),
        rho_s=rho_s,
        rho_t=draw(unit) * (1 - rho_s),
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
    holders += [(obj["params"], key) for key in obj["params"] if key != "bottlenecks"]
    holders += [(b, i) for b in [obj["params"].get("bottlenecks")] if b for i in range(len(b))]
    holder, key = data.draw(st.sampled_from(holders))
    holder[key] = bad
    field = key if isinstance(key, str) else "bottlenecks"
    with pytest.raises(ValueError, match=f"bad field '{field}'"):
        InstanceSpec.from_json(through_json(obj))


@FIXED
@given(specs(), st.sampled_from(["quantum", "rho_s", "rho_t", "params"]),
       st.sampled_from(["1/0", "abc", "", "1/2/3", None, True, [1]]))
def test_spec_json_refuses_a_bad_rational_or_params(spec, key, bad):
    obj = through_json(spec.to_json())
    obj[key] = bad
    with pytest.raises(ValueError, match=f"bad field '{key}' in instance spec"):
        InstanceSpec.from_json(through_json(obj))
    with pytest.raises(ValueError, match="bad instance spec: expected a JSON object"):
        InstanceSpec.from_json(bad)
