from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings

from conftest import build_graph, count_flow_validations, line_graph, sparse_id_graph
from localflow.exact_oracle import _shortest_augmenting_path_length, max_flow
from localflow.graph_core import ColoredGraph, Flow, flow_value, validate_flow
from localflow.harness import InstanceSpec, default_specs, generate
from localflow.local_flow import RunConfig, run_a1, run_a2
from oracles import (
    brute_min_cut,
    cut_capacity,
    dfs_max_flow_value,
    edmonds_karp,
    residual_sp_length,
)
from test_json_properties import graphs
from test_local_flow import ac5_instance


def small_random_specs(count: int, start_seed: int = 0):
    for i in range(count):
        yield InstanceSpec(
            "random_bounded",
            n=6 + (i % 7),
            d=3 + (i % 2),
            m_ticks=3,
            gen_seed=start_seed + i,
            rho_s=Fraction(3, 10),
            rho_t=Fraction(3, 10),
        )


def test_max_flow_validates_its_flow_once(monkeypatch):
    g, _ = generate(InstanceSpec("grid", params={"rows": 6, "cols": 8}, gen_seed=3))
    calls = count_flow_validations(monkeypatch)
    result = max_flow(g)
    assert result.value > 0
    assert calls == [result.flow]
    calls.clear()
    assert flow_value(g, result.flow) == result.value  # a flow from outside is checked
    assert len(calls) == 1


def test_single_edge_value_equals_capacity():
    g = build_graph("ST", [(0, 1, 7, 0)], d=2, m=7)
    result = max_flow(g)
    assert result.value == 7
    assert result.flow.on_edge(0) == 7


def test_disjoint_paths_sum_their_bottlenecks():
    spec = InstanceSpec("path_bundle", params={"bottlenecks": [2, 3, 4], "path_len": 3})
    g, meta = generate(spec)
    assert max_flow(g).value == meta["known_max_flow_ticks"] == 9


def test_no_sources_or_no_targets_means_zero():
    assert max_flow(line_graph("RRT")).value == 0
    assert max_flow(line_graph("SRR")).value == 0


def test_matches_brute_min_cut_on_small_instances():
    for spec in small_random_specs(40):
        g, _ = generate(spec)
        assert max_flow(g).value == brute_min_cut(g)


def test_matches_dfs_ford_fulkerson():
    for spec in small_random_specs(25, start_seed=500):
        g, _ = generate(spec)
        assert max_flow(g).value == dfs_max_flow_value(g)


def test_output_flow_is_valid_and_value_consistent():
    for spec in small_random_specs(10, start_seed=100):
        g, _ = generate(spec)
        result = max_flow(g)
        assert validate_flow(g, result.flow).ok
        assert flow_value(g, result.flow) == result.value


def test_min_cut_certificate():
    for spec in small_random_specs(25, start_seed=200):
        g, _ = generate(spec)
        result = max_flow(g)
        assert set(g.nodes_of_color("S")) <= set(result.residual_cut)
        assert not set(g.nodes_of_color("T")) & set(result.residual_cut)
        assert cut_capacity(g, result.residual_cut) == result.value


def test_certificate_idempotence():
    for spec in small_random_specs(10, start_seed=300):
        g, _ = generate(spec)
        result = max_flow(g)
        assert residual_sp_length(g, result.flow.values) is None


def test_upper_bounds_every_run_output():
    for spec in small_random_specs(8, start_seed=400):
        g, _ = generate(spec)
        best = max_flow(g).value
        for seed in (1, 2):
            f1, _ = run_a1(g, RunConfig(l=4, seed=seed))
            f2, _ = run_a2(g, RunConfig(l=4, s=2, seed=seed))
            assert flow_value(g, f1) <= best
            assert flow_value(g, f2) <= best


def assert_same_as_edmonds_karp(g: ColoredGraph) -> None:
    """Dinic's value and cut are Edmonds-Karp's; its flow is a valid flow of
    that value, though not always the same flow."""
    got, want = max_flow(g), edmonds_karp(g)
    assert (got.value, got.residual_cut) == (want.value, want.residual_cut)
    assert validate_flow(g, got.flow).ok and flow_value(g, got.flow) == got.value


@pytest.mark.parametrize("spec", [
    *default_specs(),  # every family: path_bundle, random_bounded, grid, layered
    InstanceSpec("grid", params={"rows": 30, "cols": 40}, gen_seed=3),
], ids=InstanceSpec.instance_id)
def test_dinic_equals_edmonds_karp_on_every_family(spec):
    assert_same_as_edmonds_karp(generate(spec)[0])


def test_dinic_equals_edmonds_karp_on_ac5_and_sparse_ids():
    assert_same_as_edmonds_karp(ac5_instance())
    assert_same_as_edmonds_karp(sparse_id_graph())


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(graphs())
def test_dinic_equals_edmonds_karp_on_arbitrary_graphs(g):
    assert_same_as_edmonds_karp(g)


def test_shortest_augmenting_path_basics():
    g = line_graph("SRT", cap=2)
    assert _shortest_augmenting_path_length(g, Flow.zero()) == 2
    saturated = build_graph("ST", [(0, 1, 3, 0)], d=2)
    assert _shortest_augmenting_path_length(saturated, Flow({0: 3})) is None


def test_shortest_augmenting_path_respects_l_max():
    g = line_graph("SRRT", cap=1)
    assert _shortest_augmenting_path_length(g, Flow.zero(), l_max=0) is None
    assert _shortest_augmenting_path_length(g, Flow.zero(), l_max=2) is None
    assert _shortest_augmenting_path_length(g, Flow.zero(), l_max=3) == 3
    assert _shortest_augmenting_path_length(g, Flow.zero()) == 3


def test_residual_path_uses_reverse_slack():
    # Saturating the forward direction still leaves the reverse direction:
    # a path from the second source must push against edge 0's flow.
    g = build_graph("STS", [(0, 1, 1, 1), (2, 1, 1, 1)], d=2)
    f = Flow({0: 1})
    assert _shortest_augmenting_path_length(g, f) == 1


def test_shortest_augmenting_path_matches_independent_search():
    for spec in small_random_specs(20, start_seed=600):
        g, _ = generate(spec)
        flows = [Flow.zero()]
        for seed in (1, 2):
            f1, _ = run_a1(g, RunConfig(l=3, seed=seed))
            flows.append(f1)
        for f in flows:
            vals = {eid: int(v) for eid, v in f.values.items()}
            for l_max in (None, 2, 4):
                assert _shortest_augmenting_path_length(g, f, l_max) == residual_sp_length(
                    g, vals, l_max
                )


def test_invalid_inputs_raise():
    with pytest.raises(ValueError, match="invalid graph"):
        build_graph("ST", [(0, 1, 9, 9)], d=2, m=5)  # caps above bound


def test_known_tricky_topology_frozen_value():
    # Diamond with a cross edge and asymmetric reverse capacities; expected
    # value computed independently by brute_min_cut during development.
    g = build_graph(
        "SRRT",
        [(0, 1, 3, 0), (0, 2, 2, 1), (1, 2, 1, 1), (1, 3, 2, 0), (2, 3, 3, 0)],
        d=3,
        m=3,
    )
    assert brute_min_cut(g) == 5
    assert max_flow(g).value == 5
