from __future__ import annotations

import json
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import localflow.graph_core as graph_core_module
from conftest import build_graph, line_graph
from localflow.estimator_tester import TesterConfig, run_tester
from localflow.exact_oracle import max_flow, shortest_augmenting_path_length
from localflow.graph_core import (
    ColoredGraph,
    DirectedEdgeRef,
    Edge,
    Flow,
    Node,
    ball_nodes,
    dumps_json,
    flow_from_json,
    flow_to_json,
    flow_value,
    graph_from_json,
    graph_to_json,
    induced_subgraph,
    validate_flow,
    validate_graph,
)
from localflow.harness import InstanceSpec, generate
from localflow.local_flow import RunConfig, local_f2_edge, run_a2, verify_locality
from localflow.path_engine import enumerate_paths
from oracles import (
    bfs_ball,
    dfs_max_flow_value,
    full_scan_subgraph,
    naive_paths,
    out_edges,
    path_signature,
    residual_sp_length,
)


def test_minimal_network_is_valid():
    g = build_graph("ST", [(0, 1, 3, 3)], d=2)
    assert validate_graph(g).ok


def test_degree_bound_violation_names_node():
    with pytest.raises(ValueError, match="invalid graph: .*degree bound exceeded at node 1"):
        build_graph("SRRT", [(0, 1, 1, 1), (1, 2, 1, 1), (1, 3, 1, 1)], d=2)


def test_capacity_above_bound_names_edge():
    with pytest.raises(ValueError, match="invalid graph: .*cap_ab above M"):
        build_graph("ST", [(0, 1, 6, 3)], d=2, m=5)


def test_self_loop_rejected():
    with pytest.raises(ValueError, match="invalid graph: .*self-loop"):
        build_graph("ST", [(0, 0, 1, 1)], d=2)


def test_duplicate_and_unknown_ids_rejected():
    with pytest.raises(ValueError, match="invalid graph: ") as err:
        ColoredGraph(
            (Node(0, "S"), Node(0, "T")), (Edge(0, 0, 7, 1, 1),), degree_bound=2,
            capacity_bound_ticks=5,
        )
    assert "duplicate node id 0" in str(err.value)
    assert "endpoint b=7" in str(err.value)


def test_bad_color_rejected():
    with pytest.raises(ValueError, match="invalid graph: .*unknown color"):
        ColoredGraph((Node(0, "Q"),), (), 2, 5)


def test_parallel_edges_are_allowed():
    g = build_graph("ST", [(0, 1, 2, 2), (0, 1, 3, 3)], d=2)
    assert validate_graph(g).ok


def test_out_edges_isolated_node():
    g = build_graph("SRT", [(1, 2, 1, 1)], d=2)
    assert out_edges(g, 0) == []


def test_out_edges_star_orientations():
    g = build_graph("RSTT", [(0, 1, 1, 1), (0, 2, 1, 1), (3, 0, 1, 1)], d=3)
    refs = out_edges(g, 0)
    assert refs == [
        DirectedEdgeRef(0, "AB"),
        DirectedEdgeRef(1, "AB"),
        DirectedEdgeRef(2, "BA"),
    ]


def test_out_edges_unknown_node():
    g = line_graph("ST")
    with pytest.raises(ValueError, match="unknown node id 9"):
        out_edges(g, 9)


def ball(g: ColoredGraph, center, r: int) -> ColoredGraph:
    return induced_subgraph(g, ball_nodes(g, center, r))


def test_neighborhood_radius_zero():
    g = line_graph("SRT")
    sub = ball(g, 1, 0)
    assert [nd.id for nd in sub.nodes] == [1]
    assert sub.edges == ()


def test_neighborhood_radius_one_on_path():
    g = line_graph("SRRT")
    sub = ball(g, 1, 1)
    assert sorted(nd.id for nd in sub.nodes) == [0, 1, 2]
    assert sorted(e.id for e in sub.edges) == [0, 1]


def test_neighborhood_of_edge_uses_both_endpoints():
    g = line_graph("SRRRT")
    sub = ball(g, DirectedEdgeRef(1, "AB"), 1)
    assert sorted(nd.id for nd in sub.nodes) == [0, 1, 2, 3]
    # radius 0 around an edge keeps exactly its endpoints and the edge itself
    tight = ball(g, DirectedEdgeRef(1, "AB"), 0)
    assert sorted(nd.id for nd in tight.nodes) == [1, 2]
    assert [e.id for e in tight.edges] == [1]


def test_neighborhood_matches_bfs_oracle_on_grid():
    spec = InstanceSpec("grid", gen_seed=11, params={"rows": 20, "cols": 20})
    g, _ = generate(spec)
    rng = random.Random(5)
    for _ in range(12):
        center = rng.randrange(400)
        got = set(nd.id for nd in ball(g, center, 3).nodes)
        assert got == bfs_ball(g, [center], 3)


def test_neighborhood_monotone_in_radius_and_valid():
    spec = InstanceSpec("random_bounded", n=40, gen_seed=2)
    g, _ = generate(spec)
    prev: set[int] = set()
    for r in range(4):
        sub = ball(g, 0, r)
        ids = set(nd.id for nd in sub.nodes)
        assert prev <= ids
        prev = ids
        report = validate_graph(sub)
        assert report.ok
        assert sub.degree_bound == g.degree_bound
        assert sub.capacity_bound_ticks == g.capacity_bound_ticks


def test_neighborhood_unknown_center():
    g = line_graph("ST")
    with pytest.raises(ValueError, match="unknown node id 44"):
        ball(g, 44, 1)
    with pytest.raises(ValueError, match="unknown edge id 44"):
        ball_nodes(g, DirectedEdgeRef(44, "AB"), 1)


def test_zero_flow_is_valid_everywhere():
    g = build_graph("SRTT", [(0, 1, 2, 0), (1, 2, 2, 2), (1, 3, 1, 1)], d=3)
    assert validate_flow(g, Flow.zero()).ok


def test_capacity_violation_detected():
    g = build_graph("ST", [(0, 1, 3, 3)], d=2)
    report = validate_flow(g, Flow({0: 4}))
    assert any("capacity violated on edge 0" in v for v in report.violations)


def test_reverse_capacity_checked():
    g = build_graph("TS", [(0, 1, 2, 3)], d=2)
    assert validate_flow(g, Flow({0: -3})).ok
    report = validate_flow(g, Flow({0: -4}))
    assert any("f_ba" in v for v in report.violations)


def test_unit_path_flow_conserves_at_regular_node():
    g = line_graph("SRT", cap=2)
    f = Flow({0: 1, 1: 1})
    assert validate_flow(g, f).ok
    assert flow_value(g, f) == 1


def test_conservation_violation_detected():
    g = line_graph("SRT", cap=2)
    report = validate_flow(g, Flow({0: 1}))
    assert any("conservation violated at node 1" in v for v in report.violations)


def test_source_and_target_inequalities():
    g = line_graph("SRT", cap=2)
    # pushing backward: source absorbs, target emits
    report = validate_flow(g, Flow({0: -1, 1: -1}))
    assert any("source inequality violated at node 0" in v for v in report.violations)
    assert any("target inequality violated at node 2" in v for v in report.violations)


def test_flow_on_unknown_edge_raises():
    g = line_graph("ST")
    with pytest.raises(ValueError, match="unknown edge id 7"):
        validate_flow(g, Flow({7: 1}))


def test_antisymmetry_is_structural():
    f = Flow({3: 2})
    ref = DirectedEdgeRef(3, "AB")
    assert f.on(ref) == 2
    assert f.on(DirectedEdgeRef(3, "BA")) == -2


@pytest.mark.parametrize("orientation", ["ab", "ba", "", "BA ", None])
def test_flow_on_refuses_an_unknown_orientation(orientation):
    with pytest.raises(ValueError, match="bad field 'orientation': expected 'AB' or 'BA', got "):
        Flow({3: 2}).on(DirectedEdgeRef(3, orientation))


def test_flow_value_examples():
    g = line_graph("SRT", cap=4)
    assert flow_value(g, Flow.zero()) == 0
    assert flow_value(g, Flow({0: 1, 1: 1})) == 1
    # two sources, each pushing 2 ticks into its own target
    g2 = build_graph("STST", [(0, 1, 2, 2), (2, 3, 2, 2)], d=2)
    assert flow_value(g2, Flow({0: 2, 1: 2})) == 4


def test_flow_value_linear_on_disjoint_bundles():
    g = build_graph(
        "SRTSRT",
        [(0, 1, 3, 3), (1, 2, 3, 3), (3, 4, 5, 5), (4, 5, 5, 5)],
        d=2,
    )
    f = Flow({0: 3, 1: 3})
    f2 = Flow({2: 5, 3: 5})
    both = Flow({**f.values, **f2.values})
    assert flow_value(g, both) == flow_value(g, f) + flow_value(g, f2)


def test_flow_value_rejects_invalid_flow():
    g = line_graph("SRT", cap=1)
    with pytest.raises(ValueError, match="invalid flow"):
        flow_value(g, Flow({0: 1}))


def test_graph_json_round_trip_is_byte_stable():
    spec = InstanceSpec(
        "random_bounded", n=25, gen_seed=9, quantum=Fraction(3, 4), m_ticks=5
    )
    g, _ = generate(spec)
    text = dumps_json(graph_to_json(g))
    g2 = graph_from_json(json.loads(text))
    assert dumps_json(graph_to_json(g2)) == text
    assert g2.quantum == Fraction(3, 4)


def test_flow_json_round_trip():
    f = Flow({2: 3, 5: -1, 9: 0})
    obj = flow_to_json(f)
    assert {item["id"] for item in obj["edge_values"]} == {2, 5}
    f2 = flow_from_json(obj)
    assert f2 == f


def test_fractional_flow_serializes_exactly():
    f = Flow({1: Fraction(5, 3), 2: Fraction(-4), 3: Fraction(-1, 2)})
    f2 = flow_from_json(json.loads(json.dumps(flow_to_json(f))))
    assert f2.values == f.values


def test_graph_json_missing_field_named():
    with pytest.raises(ValueError, match="quantum"):
        graph_from_json({"nodes": [], "edges": []})
    with pytest.raises(ValueError, match="missing field 'color'"):
        graph_from_json(
            {"quantum": "1/1", "degree_bound": 2, "capacity_bound_ticks": 1,
             "nodes": [{"id": 0}], "edges": []}
        )


@pytest.mark.parametrize(
    "where, field",
    [("edge", f) for f in ("id", "a", "b", "cap_ab", "cap_ba")]
    + [("node", "id"), ("graph", "degree_bound"), ("graph", "capacity_bound_ticks")]
    + [("flow edge value", "id")],
)
@pytest.mark.parametrize("bad", [2.9, 1.0, True, False, "3"])
def test_graph_json_rejects_non_integer_fields(where, field, bad):
    obj = graph_to_json(line_graph("SRT"))
    flow = flow_to_json(Flow({0: 1, 1: 1}))
    target = {"graph": obj, "node": obj["nodes"][0], "edge": obj["edges"][0],
              "flow edge value": flow["edge_values"][0]}[where]
    target[field] = bad
    with pytest.raises(ValueError, match=f"bad field '{field}' in {where}"):
        graph_from_json(obj)
        flow_from_json(flow)


@pytest.mark.parametrize("bad", [True, 1.5, "1.5", "1/0", " 3", None])
def test_flow_json_rejects_a_value_that_is_not_a_rational(bad):
    with pytest.raises(ValueError, match="bad field 'f_ab' in flow edge value"):
        flow_from_json({"edge_values": [{"id": 0, "f_ab": bad}]})


@pytest.mark.parametrize("read, change, message", [
    (graph_from_json, {"nodes": [5]}, "bad node: expected a JSON object, got 5"),
    (graph_from_json, {"edges": [7]}, "bad edge: expected a JSON object, got 7"),
    (graph_from_json, {"nodes": 5}, "bad field 'nodes' in graph: expected a list, got 5"),
    (flow_from_json, {"edge_values": [3]}, "bad flow edge value: expected a JSON object, got 3"),
    (flow_from_json, {"edge_values": [{"id": 1, "f_ab": 2}, {"id": 1, "f_ab": 3}]},
     "bad field 'id' in flow edge value: repeated edge id 1"),
])
def test_json_rejects_a_malformed_item_naming_where_it_is(read, change, message):
    obj = graph_to_json(line_graph("SRT")) if read is graph_from_json else {}
    with pytest.raises(ValueError, match=re.escape(message)):
        read({**obj, **change})


def _subgraph_shape(h: ColoredGraph) -> tuple:
    return (
        [(nd.id, nd.color) for nd in h.nodes],
        [(e.id, e.a, e.b, e.cap_ab, e.cap_ba) for e in h.edges],
        h.degree_bound,
        h.capacity_bound_ticks,
        h.quantum,
    )


@pytest.mark.parametrize(
    "spec",
    [
        InstanceSpec("grid", d=5, m_ticks=6, quantum=Fraction(2, 3), gen_seed=4,
                     params={"rows": 5, "cols": 7}),
        InstanceSpec("random_bounded", n=60, m_ticks=3, quantum=Fraction(1, 2),
                     gen_seed=12, params={"rounds": 3}),
    ],
)
def test_induced_subgraph_matches_full_scan_on_every_ball(spec):
    g, _ = generate(spec)
    centers = [nd.id for nd in g.nodes] + [DirectedEdgeRef(e.id, "AB") for e in g.edges]
    for r in range(5):
        for center in centers:
            ball = set(ball_nodes(g, center, r))
            got = induced_subgraph(g, ball)
            assert _subgraph_shape(got) == _subgraph_shape(full_scan_subgraph(g, ball))


@pytest.mark.parametrize(
    "nodes, edges, d, m, quantum, message",
    [
        ((Node(0, "S"), Node(0, "T"), Node(-1, "Q")), (), 2, 5, Fraction(1),
         "invalid graph: duplicate node id 0; negative node id -1; "
         "node -1 has unknown color 'Q'"),
        ((Node(0, "S"), Node(1, "R"), Node(2, "R"), Node(3, "T")),
         (Edge(0, 0, 1, 1, 1), Edge(0, 1, 2, 1, 1), Edge(1, 1, 3, 1, 1)), 2, 5, Fraction(1),
         "invalid graph: degree bound exceeded at node 1 (3 > 2); duplicate edge id 0"),
        ((Node(0, "S"), Node(1, "T")), (Edge(0, 0, 7, 6, -1), Edge(1, 1, 1, 0, 0)), 4, 5,
         Fraction(1),
         "invalid graph: edge 0 endpoint b=7 is not a node; edge 0 cap_ab above M (6 > 5); "
         "edge 0 cap_ba is negative; edge 1 is a self-loop at node 1"),
        ((Node(0, "S"),), (), 0, 0, Fraction(-1),
         "invalid graph: degree bound 0 is not positive; capacity bound 0 is not positive; "
         "tick quantum -1 is not positive"),
        ((Node(0, "S"),), (), 2, 5, 0.5,
         "invalid graph: tick quantum 0.5 is not an int or a Fraction"),
        ((Node(0, "S"),), (), 2, 5, True,
         "invalid graph: tick quantum True is not an int or a Fraction"),
        ((Node(0, "S"), Node(1, "T")), (Edge(0, 0, 1, 2, 2.5),), 2.5, 5.0, Fraction(1),
         "invalid graph: graph field 'degree_bound' is 2.5, not an int; "
         "graph field 'capacity_bound_ticks' is 5.0, not an int; "
         "edge 0 field 'cap_ba' is 2.5, not an int"),
        ((Node(0.0, "S"), Node(1, "T")), (Edge(0, 0, 1.0, 1, 1),), 2, 5, Fraction(1),
         "invalid graph: node field 'id' is 0.0, not an int; edge 0 field 'b' is 1.0, not an int"),
        ((Node(0, "S"), Node(1, "T")), (Edge(True, 0, 1, False, 1),), 2, 5, Fraction(1),
         "invalid graph: edge True field 'id' is True, not an int; "
         "edge True field 'cap_ab' is False, not an int"),
        # Values that do not sort, compare with ints or hash: each is named,
        # and the checks that would compare or look it up are skipped.
        ((Node(0, "S"), Node(1, "T")), (Edge("a", 0, 1, 1, 1), Edge(1, 0, 1, 1, 1)), 2, 5,
         Fraction(1), "invalid graph: edge 'a' field 'id' is 'a', not an int"),
        ((Node(0, "S"), Node(1, "T")), (Edge(0, 0, 1, 1, 1),), "4", "5", Fraction(1),
         "invalid graph: graph field 'degree_bound' is '4', not an int; "
         "graph field 'capacity_bound_ticks' is '5', not an int"),
        ((Node(0, "S"), Node(1, "T")), (Edge(0, 0, 1, "1", 1), Edge(1, 0, 1, 6, 1)), 2, 5,
         Fraction(1), "invalid graph: edge 0 field 'cap_ab' is '1', not an int; "
         "edge 1 cap_ab above M (6 > 5)"),
        ((Node([0], "S"), Node(1, "T")), (Edge(0, [0], 1, 1, 1), Edge([2], 1, 3, 1, 1)), 2, 5,
         Fraction(1), "invalid graph: node field 'id' is [0], not an int; "
         "edge 0 field 'a' is [0], not an int; edge [2] field 'id' is [2], not an int; "
         "edge [2] endpoint b=3 is not a node"),
    ],
    ids=["nodes", "degree-and-edge-ids", "edges", "bounds", "float-quantum", "bool-quantum",
         "float-caps-and-bounds", "float-ids", "bool-ids", "str-and-int-edge-ids",
         "str-bounds", "str-cap", "unhashable-ids"],
)
def test_construction_names_every_violation_in_order(nodes, edges, d, m, quantum, message):
    with pytest.raises(ValueError) as err:
        ColoredGraph(nodes, edges, d, m, quantum)
    assert str(err.value) == message


def test_every_route_that_builds_a_graph_rejects_bad_input():
    # ColoredGraph(...) itself: the tests above.
    obj = graph_to_json(line_graph("SRT"))
    obj["edges"][0]["b"] = 0
    with pytest.raises(ValueError, match="invalid graph: edge 0 is a self-loop at node 0"):
        graph_from_json(obj)
    obj = graph_to_json(line_graph("SRT"))
    obj["edges"][1]["cap_ba"] = 6
    with pytest.raises(ValueError, match=r"invalid graph: edge 1 cap_ba above M \(6 > 5\)"):
        graph_from_json(obj)

    with pytest.raises(ValueError, match="invalid graph: capacity bound 0 is not positive"):
        generate(InstanceSpec("random_bounded", n=10, m_ticks=0))
    with pytest.raises(ValueError, match="invalid graph: degree bound 0 is not positive"):
        generate(InstanceSpec("random_bounded", n=10, d=0))


def test_an_existing_graph_is_never_validated_again(monkeypatch):
    g, _ = generate(InstanceSpec("random_bounded", n=40, gen_seed=6, rho_s=Fraction(1, 4),
                                 rho_t=Fraction(1, 4), params={"rounds": 3}))
    validated: list[ColoredGraph] = []
    real = graph_core_module.validate_graph

    def counting(h):
        validated.append(h)
        return real(h)

    # Every module holding the function, not just graph_core: a check that
    # imported it by name is counted too.
    for module in [m for name, m in sys.modules.items() if name.startswith("localflow")]:
        if getattr(module, "validate_graph", None) is real:
            monkeypatch.setattr(module, "validate_graph", counting)

    tester_cfg = TesterConfig(l=3, s=2, seeds=(1, 2), k=50)
    run_cfg = RunConfig(l=3, s=2, seed=1)
    refs = [DirectedEdgeRef(e.id, "AB") for e in g.edges]
    run_tester(g, tester_cfg)
    run_a2(g, run_cfg)
    enumerate_paths(g, 4)
    max_flow(g)
    # Local queries run the tree on g, and verify_locality reads each ball in
    # place, so they build no graph either.
    local_f2_edge(g, refs[0], run_cfg)
    verify_locality(g, run_cfg, refs, radius=2)
    assert validated == []  # none of these builds a graph


@st.composite
def graphs_in_any_order(draw) -> ColoredGraph:
    """Valid graphs with edges in any id order, negative and sparse ids,
    parallel edges and isolated nodes."""
    d = draw(st.integers(1, 4))
    node_ids = draw(st.lists(st.integers(0, 10**6), min_size=1, max_size=8, unique=True))
    nodes = tuple(Node(v, draw(st.sampled_from("SRT"))) for v in node_ids)
    pairs = draw(st.lists(st.tuples(st.sampled_from(node_ids), st.sampled_from(node_ids)),
                          max_size=14))
    edge_ids = draw(st.lists(st.integers(-40, 40), min_size=len(pairs), max_size=len(pairs),
                             unique=True))
    degree = dict.fromkeys(node_ids, 0)
    edges = []
    for eid, (a, b) in zip(edge_ids, pairs):
        if a != b and degree[a] < d and degree[b] < d:
            degree[a] += 1
            degree[b] += 1
            edges.append(Edge(eid, a, b, draw(st.integers(0, 3)), draw(st.integers(0, 3))))
    return ColoredGraph(nodes, tuple(edges), d, 3)


def shuffled_grid(seed: int) -> ColoredGraph:
    """A generated 7x8 grid whose edge tuple is shuffled out of id order."""
    g, _ = generate(InstanceSpec("grid", gen_seed=seed, params={"rows": 7, "cols": 8}))
    edges = list(g.edges)
    random.Random(seed).shuffle(edges)
    return ColoredGraph(g.nodes, tuple(edges), g.degree_bound, g.capacity_bound_ticks)


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(graphs_in_any_order())
@example(shuffled_grid(1))
@example(ColoredGraph(  # unsorted, negative and sparse ids, parallel edges, isolated node 9
    (Node(4, "S"), Node(0, "R"), Node(7, "T"), Node(9, "R")),
    (Edge(5, 0, 7, 2, 1), Edge(-3, 4, 0, 1, 2), Edge(12, 7, 0, 3, 0), Edge(-8, 4, 7, 1, 1)),
    3, 3))
def test_adjacency_is_the_edge_list_read_per_node(g):
    for nd in g.nodes:
        v = nd.id
        incident = sorted(e.id for e in g.edges if v in (e.a, e.b))
        expected = []
        for eid in incident:
            e = g.edge(eid)
            expected += [e.b, 2 * eid] if e.a == v else [e.a, 2 * eid + 1]
        assert g._adj[v] == tuple(expected)
        assert out_edges(g, v) == [
            DirectedEdgeRef(eid, "AB" if g.edge(eid).a == v else "BA") for eid in incident]
    assert set(g._adj) == {nd.id for nd in g.nodes}
    # Every layer that reads the adjacency agrees with a reference that does not.
    for nd in g.nodes:
        assert ball_nodes(g, nd.id, 2) == bfs_ball(g, [nd.id], 2)
        ball = set(ball_nodes(g, nd.id, 1))
        got, want = induced_subgraph(g, ball), full_scan_subgraph(g, ball)
        assert (got.nodes, got.edges) == (tuple(sorted(want.nodes, key=lambda x: x.id)),
                                          tuple(sorted(want.edges, key=lambda x: x.id)))
    assert {path_signature(u) for u in enumerate_paths(g, 3)} == naive_paths(g, 3)
    best = max_flow(g)
    assert best.value == dfs_max_flow_value(g)
    # The search reads the adjacency, so the edge tuple's order cannot matter.
    by_id = ColoredGraph(g.nodes, tuple(sorted(g.edges, key=lambda e: e.id)), g.degree_bound,
                         g.capacity_bound_ticks)
    assert best.flow == max_flow(by_id).flow
    assert shortest_augmenting_path_length(g, Flow.zero()) == residual_sp_length(g, {})
    assert validate_flow(g, best.flow).ok
