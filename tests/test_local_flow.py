from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import localflow.local_flow as local_flow_module
import localflow.path_engine as path_engine_module
from conftest import build_graph, line_graph, seed_sensitive_graph
from localflow.exact_oracle import max_flow, shortest_augmenting_path_length
from localflow.graph_core import (
    ColoredGraph,
    DirectedEdgeRef,
    Flow,
    ball_nodes,
    flow_value,
    induced_subgraph,
    validate_flow,
)
from localflow.harness import InstanceSpec, default_specs, generate, max_depth_per_edge
from localflow.local_flow import (
    AUGMENTED,
    SKIPPED_CHAIN,
    ZERO_CAPACITY,
    LocalEvaluator,
    RunConfig,
    _ball_radius,
    length_cap,
    local_f2_edge,
    run_a1,
    run_a2,
    verify_locality,
)
from localflow.path_engine import _simple_walks, chain_depth_all, enumerate_paths, path_key
from oracles import (
    ball_rerun_f2,
    length_boundary_violations,
    naive_paths,
    out_edges,
    path_signature,
    reference_sweep,
    reference_walks,
)
from test_json_properties import graphs


def random_spec(i: int, n: int = 20, **kw) -> InstanceSpec:
    merged = dict(n=n, d=4, m_ticks=4, rho_s=Fraction(1, 4), rho_t=Fraction(1, 4),
                  params={"rounds": 4})
    merged.update(kw)
    return InstanceSpec("random_bounded", gen_seed=2000 + i, **merged)


@pytest.mark.parametrize("spec", default_specs(), ids=InstanceSpec.instance_id)
def test_sweeps_equal_the_reference_sweep(spec):
    g, _ = generate(spec)
    actions = set()
    for l in (3, 6):
        for seed in (1, 2, 3):
            for run, s in ((run_a1, None), (run_a2, 2), (run_a2, 3)):
                flow, trace = run(g, RunConfig(l=l, s=s, seed=seed))
                want_flow, want_trace = reference_sweep(g, l, seed, s)
                assert flow.values == want_flow.values
                assert trace == want_trace
                actions.update(entry.action for entry in trace.entries)
    # The bundle's paths share no edge, so none is skipped or left without room.
    bundle = spec.family == "path_bundle"
    assert actions == ({AUGMENTED} if bundle else {AUGMENTED, SKIPPED_CHAIN, ZERO_CAPACITY})


def test_sweep_order_ties_fall_back_to_the_canonical_key(monkeypatch):
    # With every label equal, paths of one length tie on (length, label), and
    # only the canonical key orders them.
    g, _ = generate(InstanceSpec("grid", params={"rows": 6, "cols": 8}, gen_seed=3))
    paths = enumerate_paths(g, 5)
    monkeypatch.setattr(path_engine_module, "_labeller", lambda seed: lambda key: 0)
    lengths = [u.length for u in paths]
    assert len(lengths) > len(set(lengths))  # some do tie
    expected = [u.canonical_key for u in sorted(paths, key=lambda u: (u.length, u.canonical_key))]
    for run, s in ((run_a1, None), (run_a2, 3)):
        flow, trace = run(g, RunConfig(l=5, s=s, seed=1))
        assert [entry.canonical_key for entry in trace.entries] == expected
        want_flow, want_trace = reference_sweep(g, 5, 1, s)
        assert flow.values == want_flow.values and trace == want_trace


def test_length_cap_from_epsilon():
    g = line_graph("SRT", cap=4, d=4, m=5)
    # ceil(2 * 4 * 5 / (1/2)) = 80
    assert length_cap(g, Fraction(1, 2)) == 80
    # ceil(40/13) = 4
    assert length_cap(g, Fraction(13)) == 4
    assert length_cap(g, 13) == 4


def test_length_cap_respects_quantum():
    g = build_graph("ST", [(0, 1, 3, 3)], d=2, m=4, quantum=Fraction(1, 2))
    # M = 4 * 1/2 = 2, so l = ceil(2*2*2 / 1) = 8
    assert length_cap(g, Fraction(1)) == 8
    assert length_cap(g, 1) == 8


@pytest.mark.parametrize("epsilon", [0, -1, Fraction(0), Fraction(-1, 2), 0.5, True, "1"])
def test_length_cap_refuses_a_bad_epsilon(epsilon):
    with pytest.raises(ValueError, match="bad field 'epsilon'"):
        length_cap(line_graph("SRT"), epsilon)


def test_config_validation_errors():
    g = line_graph("SRT")
    with pytest.raises(TypeError):
        RunConfig()
    with pytest.raises(ValueError, match="needs s"):
        run_a2(g, RunConfig(l=2))
    with pytest.raises(ValueError, match="bad field 'l' in run config: expected an integer >= 1"):
        RunConfig(l=0)
    with pytest.raises(ValueError, match="bad field 's' in run config: expected an integer >= 1"):
        RunConfig(l=2, s=0)


def test_run_a1_without_sources_or_targets():
    f, trace = run_a1(line_graph("RRT"), RunConfig(l=3))
    assert f == Flow.zero()
    assert trace.entries == ()


def test_run_a1_saturates_single_path():
    g = line_graph("SRT", cap=4)
    f1, trace = run_a1(g, RunConfig(l=2, seed=0))
    assert flow_value(g, f1) == 4 == max_flow(g).value
    assert [e.action for e in trace.entries] == [AUGMENTED]
    assert trace.entries[0].amount == 4


def test_a1_zero_capacity_paths_are_recorded_not_dropped():
    # Two parallel routes into a shared bottleneck: the loser is a no-op.
    g = build_graph(
        "SSRT", [(0, 2, 5, 5), (1, 2, 5, 5), (2, 3, 5, 5)], d=3, m=5
    )
    f1, trace = run_a1(g, RunConfig(l=2, seed=1))
    actions = [e.action for e in trace.entries]
    assert actions.count(AUGMENTED) == 1
    assert actions.count(ZERO_CAPACITY) == 1
    assert flow_value(g, f1) == 5


def test_a1_meets_length_gap_bound_and_leaves_no_short_path():
    for i in range(12):
        g, _ = generate(random_spec(i, n=26))
        fstar = max_flow(g).value
        for l in (2, 4):
            for seed in (1, 2):
                f1, _ = run_a1(g, RunConfig(l=l, seed=seed))
                assert validate_flow(g, f1).ok
                bound = Fraction(g.degree_bound * g.capacity_bound_ticks * g.n, l)
                assert Fraction(int(flow_value(g, f1))) >= fstar - bound
                assert shortest_augmenting_path_length(g, f1, l) is None


def test_no_augmenting_path_survives_any_length_boundary():
    for i in range(10):
        g, _ = generate(random_spec(100 + i, n=22))
        assert length_boundary_violations(g, RunConfig(l=4, seed=i)) == []


def test_run_a2_equals_a1_when_threshold_exceeds_depths():
    for i in range(6):
        g, _ = generate(random_spec(200 + i, n=18))
        paths = enumerate_paths(g, 3)
        if not paths:
            continue
        deepest = max(chain_depth_all(paths, 9).values())
        f1, _ = run_a1(g, RunConfig(l=3, seed=9))
        f2, _ = run_a2(g, RunConfig(l=3, s=deepest + 1, seed=9))
        assert f2 == f1


def test_run_a2_with_s_one_skips_everything():
    g = line_graph("SRT", cap=4)
    f2, trace = run_a2(g, RunConfig(l=2, s=1, seed=3))
    assert f2 == Flow.zero()
    assert [e.action for e in trace.entries] == [SKIPPED_CHAIN]


def test_run_a2_never_beats_a1_and_gap_shrinks_with_s():
    g, _ = generate(random_spec(300, n=30, m_ticks=5))
    gaps: dict[int, Fraction] = {}
    seeds = range(50)
    v1 = {}
    for seed in seeds:
        f1, _ = run_a1(g, RunConfig(l=4, seed=seed))
        v1[seed] = int(flow_value(g, f1))
    for s in (2, 6):
        total = 0
        for seed in seeds:
            f2, _ = run_a2(g, RunConfig(l=4, s=s, seed=seed))
            v2 = int(flow_value(g, f2))
            assert v2 <= v1[seed]
            total += v1[seed] - v2
        gaps[s] = Fraction(total, len(list(seeds)))
    assert gaps[6] <= gaps[2]


def test_skip_set_ignores_capacities():
    g, _ = generate(random_spec(400, n=20))
    _, trace = run_a2(g, RunConfig(l=3, s=2, seed=5))
    skipped = {e.canonical_key for e in trace.entries if e.action == SKIPPED_CHAIN}
    # Same topology, different capacities.
    from localflow.graph_core import ColoredGraph, Edge

    new_edges = tuple(
        Edge(e.id, e.a, e.b, (e.cap_ab + 3) % 5, (e.cap_ba + 1) % 5) for e in g.edges
    )
    g2 = ColoredGraph(g.nodes, new_edges, g.degree_bound, g.capacity_bound_ticks, g.quantum)
    _, trace2 = run_a2(g2, RunConfig(l=3, s=2, seed=5))
    skipped2 = {e.canonical_key for e in trace2.entries if e.action == SKIPPED_CHAIN}
    assert skipped == skipped2


def test_runs_are_deterministic():
    g, _ = generate(random_spec(500, n=24))
    cfg = RunConfig(l=4, s=2, seed=8)
    first = run_a2(g, cfg)
    second = run_a2(g, cfg)
    assert first[0] == second[0]
    assert first[1] == second[1]


def test_trace_follows_key_order_and_covers_every_candidate():
    g, _ = generate(random_spec(550, n=22))
    cfg = RunConfig(l=3, s=2, seed=4)
    paths = enumerate_paths(g, 3)
    from localflow.path_engine import path_key

    expected = [u.canonical_key for u in sorted(paths, key=lambda u: path_key(u, 4))]
    _, trace = run_a2(g, cfg)
    assert [e.canonical_key for e in trace.entries] == expected


def test_local_trace_is_the_global_trace_restricted_to_the_ball():
    g, _ = generate(random_spec(560, n=40, params={"rounds": 2}))
    cfg = RunConfig(l=3, s=2, seed=6)
    _, global_trace = run_a2(g, cfg)
    ref = DirectedEdgeRef(g.edges[0].id, "AB")
    from localflow.graph_core import ball_nodes, induced_subgraph

    sub = induced_subgraph(g, set(ball_nodes(g, ref, 6)))
    _, local_trace = run_a2(sub, cfg)
    local_keys = [e.canonical_key for e in local_trace.entries]
    global_keys = [e.canonical_key for e in global_trace.entries]
    assert set(local_keys) <= set(global_keys)
    kept = [k for k in global_keys if k in set(local_keys)]
    assert kept == local_keys  # same relative order


def test_local_f2_far_edge_is_zero():
    g = line_graph("SRRRRT", cap=3)
    cfg = RunConfig(l=2, s=2, seed=1)
    middle = DirectedEdgeRef(2, "AB")
    assert local_f2_edge(g, middle, cfg) == 0
    f2, _ = run_a2(g, cfg)
    assert f2.on(middle) == 0


def test_local_equals_global_when_ball_covers_graph():
    g, _ = generate(random_spec(600, n=14))
    cfg = RunConfig(l=3, s=2, seed=4)
    f2, _ = run_a2(g, cfg)
    for e in g.edges:
        ref = DirectedEdgeRef(e.id, "AB")
        assert local_f2_edge(g, ref, cfg) == f2.on(ref)


def test_local_equals_global_on_random_triples():
    import random

    rng = random.Random(0)
    checked = 0
    for i in range(25):
        g, _ = generate(random_spec(700 + i, n=24))
        if not g.edges:
            continue
        for seed in (1, 2):
            cfg = RunConfig(l=3, s=2, seed=seed)
            f2, _ = run_a2(g, cfg)
            for _ in range(3):
                e = g.edges[rng.randrange(len(g.edges))]
                ref = DirectedEdgeRef(e.id, rng.choice(["AB", "BA"]))
                assert local_f2_edge(g, ref, cfg) == f2.on(ref)
                checked += 1
    assert checked >= 100


def test_local_f2_unknown_edge():
    g = line_graph("SRT")
    with pytest.raises(ValueError, match="unknown edge id 12"):
        local_f2_edge(g, DirectedEdgeRef(12, "AB"), RunConfig(l=2, s=2))


def test_verify_locality_full_edge_set_passes():
    g, _ = generate(random_spec(800, n=30))
    cfg = RunConfig(l=3, s=2, seed=6)
    refs = [DirectedEdgeRef(e.id, "AB") for e in g.edges]
    report = verify_locality(g, cfg, refs)
    assert report.passed
    assert report.checked == len(refs)


def test_verify_locality_refuses_an_empty_sample():
    # A check of no edge cannot fail, so it shows nothing.
    g = line_graph("SRT")
    with pytest.raises(ValueError, match="bad field 'edge_sample'"):
        verify_locality(g, RunConfig(l=2, s=2, seed=0), [])


def test_verify_locality_reruns_are_equal():
    g, _ = generate(random_spec(900, n=40))
    cfg = RunConfig(l=3, s=2, seed=2)
    refs = [DirectedEdgeRef(e.id, "AB") for e in g.edges]
    assert verify_locality(g, cfg, refs) == verify_locality(g, cfg, refs)


def test_mismatched_seed_negative_control_fails():
    g = seed_sensitive_graph()
    refs = [DirectedEdgeRef(e.id, "AB") for e in g.edges]
    found = None
    for a in range(12):
        for b in range(a + 1, 12):
            fa, _ = run_a2(g, RunConfig(l=3, s=5, seed=a))
            fb, _ = run_a2(g, RunConfig(l=3, s=5, seed=b))
            if fa != fb:
                found = (a, b)
                break
        if found:
            break
    assert found is not None, "expected some seed pair to disagree on this instance"
    a, b = found
    report = verify_locality(g, RunConfig(l=3, s=5, seed=a), refs, local_seed=b)
    assert not report.passed


def test_too_small_radius_is_detected():
    # With radius 1 the ball around the first edge cannot see the target, so
    # the local value collapses to 0 while the global run pushes capacity.
    g = line_graph("SRRT", cap=3)
    cfg = RunConfig(l=3, s=2, seed=0)
    ref = DirectedEdgeRef(0, "AB")
    f2, _ = run_a2(g, cfg)
    assert f2.on(ref) == 3
    report = verify_locality(g, cfg, [ref], radius=1)
    assert len(report.mismatches) == 1
    assert report.mismatches[0].global_value == 3
    assert report.mismatches[0].local_value == 0


def test_edges_where_runs_differ_carry_a_deep_path():
    hits = 0
    for i in range(15):
        g, _ = generate(random_spec(1000 + i, n=26, m_ticks=5))
        for seed in (1, 2, 3):
            s = 2
            f1, _ = run_a1(g, RunConfig(l=4, seed=seed))
            f2, _ = run_a2(g, RunConfig(l=4, s=s, seed=seed))
            if f1 == f2:
                continue
            deep = max_depth_per_edge(g, 4, seed)
            for e in g.edges:
                if f1.on_edge(e.id) != f2.on_edge(e.id):
                    assert deep.get(e.id, 0) >= s
                    hits += 1
    assert hits >= 5


class WatchedTuple(tuple):
    """A tuple that counts how often it is iterated or searched."""

    def __iter__(self):
        self.scans += 1
        return super().__iter__()

    def __contains__(self, item):
        self.scans += 1
        return super().__contains__(item)


def watch_scans(g: ColoredGraph) -> tuple[WatchedTuple, WatchedTuple]:
    """Swap g's node and edge tuples for counting ones; returns them."""
    watched = []
    for name in ("nodes", "edges"):
        t = WatchedTuple(getattr(g, name))
        t.scans = 0
        object.__setattr__(g, name, t)
        watched.append(t)
    return watched[0], watched[1]


def test_local_queries_never_scan_the_whole_graph(monkeypatch):
    g, _ = generate(random_spec(571, n=400, params={"rounds": 2}))
    refs = [DirectedEdgeRef(e.id, o) for e, o in zip(g.edges[::40], ("AB", "BA") * 10)]
    cfg = RunConfig(l=3, s=2, seed=8)
    balls: list[DirectedEdgeRef] = []
    real_ball_nodes = local_flow_module.ball_nodes

    def counting(h, center, r):
        balls.append(center)
        return real_ball_nodes(h, center, r)

    monkeypatch.setattr(local_flow_module, "ball_nodes", counting)
    nodes, edges = watch_scans(g)
    local = [local_f2_edge(g, ref, cfg) for ref in refs]
    assert balls == []  # a local query runs the tree on g, which reads only its ball
    ev = LocalEvaluator(g, 3, 2)
    cached = [ev.f2_on(ref, 8) for ref in refs]
    assert (nodes.scans, edges.scans) == (0, 0)
    f2, _ = run_a2(g, cfg)
    assert local == cached == [f2.on(ref) for ref in refs]


def test_evaluator_enumerates_paths_through_each_edge_once(monkeypatch):
    enumerated: list[int] = []
    real = LocalEvaluator._enumerate_through

    def counting(self, eid):
        enumerated.append(eid)
        return real(self, eid)

    monkeypatch.setattr(LocalEvaluator, "_enumerate_through", counting)
    g, _ = generate(random_spec(572, n=60, params={"rounds": 2}))
    edge_ids = [e.id for e in g.edges[:12]]
    ev = LocalEvaluator(g, 3, 2)
    for seed in (1, 2, 3):
        for eid in edge_ids:
            ab = ev.f2_on(DirectedEdgeRef(eid, "AB"), seed)
            assert ev.f2_on(DirectedEdgeRef(eid, "BA"), seed) == -ab
    assert len(enumerated) == len(set(enumerated))
    assert set(edge_ids) <= set(enumerated)


def ac5_instance() -> ColoredGraph:
    """The largest instance of acceptance check AC-5 (l=6, s=3)."""
    g, _ = generate(InstanceSpec("random_bounded", n=300, gen_seed=8026,
                                 params={"rounds": 2}))
    return g


@pytest.mark.parametrize("spec,l,s", [
    (None, 6, 3),
    (InstanceSpec("random_bounded", n=40, gen_seed=8031, params={"rounds": 3}), 4, 3),
    (InstanceSpec("grid", gen_seed=8032, params={"rows": 4, "cols": 7}), 5, 2),
    (InstanceSpec("path_bundle",
                  params={"bottlenecks": [2, 3, 1], "path_len": 5}), 6, 2),
], ids=["ac5", "random_bounded", "grid", "path_bundle"])
def test_query_tree_matches_global_run_and_ball_rerun(spec, l, s):
    g = ac5_instance() if spec is None else generate(spec)[0]
    ev = LocalEvaluator(g, l, s)
    on_balls = LocalEvaluator(g, l, s)  # its own memo, which each new ball drops
    nonzero = 0
    for seed in (1, 2, 3, 4, 5):
        cfg = RunConfig(l=l, s=s, seed=seed)
        f2, _ = run_a2(g, cfg)
        for e in g.edges:
            for orientation in ("AB", "BA"):
                ref = DirectedEdgeRef(e.id, orientation)
                want = f2.on(ref)
                assert ev.f2_on(ref, seed) == want, (ref, seed)
                ball = ball_nodes(g, ref, _ball_radius(l, s))
                assert on_balls.f2_on(ref, seed, ball) == want, (ref, seed)
                assert local_f2_edge(g, ref, cfg) == want, (ref, seed)
                assert ball_rerun_f2(g, ref, cfg) == want, (ref, seed)
                nonzero += want != 0
    assert nonzero > 0


def test_query_tree_stays_within_radius_s_times_l_minus_one():
    g = ac5_instance()
    l, s = 6, 3
    by_ball: dict[frozenset[int], list[int]] = {}
    for e in g.edges:
        by_ball.setdefault(ball_nodes(g, DirectedEdgeRef(e.id, "AB"), s * (l - 1)), []).append(e.id)
    assert len(by_ball) > 1  # the balls are proper, so the test can fail
    evaluators = {}
    for ball, eids in by_ball.items():
        ev = LocalEvaluator(induced_subgraph(g, set(ball)), l, s)
        for eid in eids:
            evaluators[eid] = ev
    for seed in (1, 2, 3, 4, 5):
        f2, _ = run_a2(g, RunConfig(l=l, s=s, seed=seed))
        for e in g.edges:
            ref = DirectedEdgeRef(e.id, "AB")
            assert evaluators[e.id].f2_on(ref, seed) == f2.on(ref), (ref, seed)


def test_radii_wider_than_the_default_match_too():
    """The balls of radius s*l - 1 and s*l hold the ball of radius
    s*(l-1), so on AC-5's instance they give no mismatch either."""
    g = ac5_instance()
    l, s = 6, 3
    refs = [DirectedEdgeRef(e.id, "AB") for e in g.edges]
    for seed in (1, 2, 3, 4, 5):
        for radius in (s * l - 1, s * l):
            assert verify_locality(g, RunConfig(l=l, s=s, seed=seed), refs, radius=radius).passed


def test_verify_locality_at_l_one_reads_only_the_edge():
    # l=1 gives radius 0, a ball of the edge's two endpoints; the only paths
    # are single S-T edges, which share no edge, so each carries its capacity.
    g = build_graph("STSRT", [(0, 1, 3, 1), (2, 1, 2, 2), (2, 3, 4, 4), (3, 4, 1, 1),
                              (0, 4, 2, 0), (4, 2, 1, 5)])
    cfg = RunConfig(l=1, s=2, seed=3)
    refs = [DirectedEdgeRef(e.id, o) for e in g.edges for o in ("AB", "BA")]
    assert _ball_radius(1, 2) == 0
    assert all(ball_nodes(g, ref, 0) == {g.edge(ref.edge_id).a, g.edge(ref.edge_id).b}
               for ref in refs)
    f2, _ = run_a2(g, cfg)
    assert [f2.on_edge(e.id) for e in g.edges] == [3, 2, 0, 0, 2, -5]
    assert verify_locality(g, cfg, refs).passed
    assert [local_f2_edge(g, ref, cfg) for ref in refs] == [f2.on(ref) for ref in refs]


def test_local_queries_build_no_graph(monkeypatch):
    g, _ = generate(random_spec(573, n=60, params={"rounds": 2}))
    refs = [DirectedEdgeRef(e.id, "AB") for e in g.edges]
    cfg = RunConfig(l=3, s=2, seed=5)
    f2, _ = run_a2(g, cfg)
    built: list[ColoredGraph] = []
    real = ColoredGraph.__post_init__

    def counting(h):
        built.append(h)
        real(h)

    monkeypatch.setattr(ColoredGraph, "__post_init__", counting)
    assert [local_f2_edge(g, ref, cfg) for ref in refs] == [f2.on(ref) for ref in refs]
    assert verify_locality(g, cfg, refs).passed
    assert built == []


@pytest.mark.parametrize("spec,l,s", [
    (None, 6, 3),
    (InstanceSpec("grid", gen_seed=8032, params={"rows": 4, "cols": 7}), 5, 2),
], ids=["ac5", "grid"])
def test_ball_view_equals_evaluator_on_induced_subgraph(spec, l, s):
    """Every radius up to s*l, the too-small ones of the negative controls
    too, all answered by one evaluator on g."""
    g = ac5_instance() if spec is None else generate(spec)[0]
    refs = [DirectedEdgeRef(e.id, o) for e in g.edges for o in ("AB", "BA")]
    view = LocalEvaluator(g, l, s)
    for radius in range(s * l + 1):
        by_ball: dict[frozenset[int], list[DirectedEdgeRef]] = {}
        for ref in refs:
            by_ball.setdefault(ball_nodes(g, ref, radius), []).append(ref)
        for ball, ball_refs in by_ball.items():
            sub = LocalEvaluator(induced_subgraph(g, ball), l, s)
            for seed in (1, 2, 3):
                for ref in ball_refs:
                    assert view.f2_on(ref, seed, ball) == sub.f2_on(ref, seed), (ref, radius, seed)


def test_ball_view_refuses_an_edge_outside_the_ball():
    g = line_graph("SRRRT")
    ball = ball_nodes(g, DirectedEdgeRef(0, "AB"), 1)  # nodes 0, 1, 2
    sub = LocalEvaluator(induced_subgraph(g, ball), 3, 2)
    view = LocalEvaluator(g, 3, 2)
    for eid in (2, 3, 12):  # one endpoint outside, both outside, no such edge
        for query in (lambda ref: view.f2_on(ref, 1, ball), lambda ref: sub.f2_on(ref, 1)):
            with pytest.raises(ValueError, match=f"unknown edge id {eid}"):
                query(DirectedEdgeRef(eid, "AB"))
    assert view.f2_on(DirectedEdgeRef(1, "BA"), 1, ball) == 0
    assert view.f2_on(DirectedEdgeRef(2, "AB"), 1) == 0  # g itself has edge 2


def test_each_path_is_built_once_and_each_node_searched_once(monkeypatch):
    g, _ = generate(random_spec(574, n=60, params={"rounds": 3}))
    refs = [DirectedEdgeRef(e.id, o) for e in g.edges[:20] for o in ("AB", "BA")]

    def counts() -> tuple[int, int, int, int]:
        built: list[bytes] = []
        searched: list[int] = []
        real_make_path = local_flow_module.make_path
        real_walks = LocalEvaluator._walks

        def making(nodes, edges):
            u = real_make_path(nodes, edges)
            built.append(u.canonical_key)
            return u

        def walking(self, v, *rest, **kw):
            before = len(self._walk_memo)
            got = real_walks(self, v, *rest, **kw)
            if len(self._walk_memo) > before:
                searched.append(v)
            return got

        monkeypatch.setattr(local_flow_module, "make_path", making)
        monkeypatch.setattr(LocalEvaluator, "_walks", walking)
        ev = LocalEvaluator(g, 4, 3)
        for seed in (1, 2):
            for ref in refs:
                ev.f2_on(ref, seed)
        monkeypatch.undo()
        assert len(built) == len(set(built)) == len(ev._paths)  # one make_path per path
        assert len(searched) == len(set(searched))  # one walk search per node
        # ... and only of endpoints of the edges whose paths were listed
        listed = {v for eid in ev._through for v in (g.edge(eid).a, g.edge(eid).b)}
        assert set(searched) <= listed
        return len(built), len(searched), len(listed), len(ev._through)

    first = counts()
    assert first == counts()  # deterministic
    assert first[0] > 0 and first[1] > 0


def test_verify_locality_searches_each_node_and_builds_each_path_once(monkeypatch):
    """One evaluator serves every ball: on AC-5's instance, whose 300 edges
    have 292 distinct balls, each of the 300 nodes is searched once and each
    of the 196 paths is built and labelled once."""
    g = ac5_instance()
    refs = [DirectedEdgeRef(e.id, "AB") for e in g.edges]
    searched: list[int] = []
    built: list[bytes] = []
    hashed: list[bytes] = []
    real_walks = LocalEvaluator._walks
    real_make_path = local_flow_module.make_path
    real_path_key = local_flow_module.path_key

    def walking(self, v):
        if v not in self._walk_memo:
            searched.append(v)
        return real_walks(self, v)

    def making(nodes, arcs):
        u = real_make_path(nodes, arcs)
        built.append(u.canonical_key)
        return u

    def keying(u, seed):
        hashed.append(u.canonical_key)
        return real_path_key(u, seed)

    monkeypatch.setattr(LocalEvaluator, "_walks", walking)
    monkeypatch.setattr(local_flow_module, "make_path", making)
    monkeypatch.setattr(local_flow_module, "path_key", keying)
    assert verify_locality(g, RunConfig(l=6, s=3, seed=1), refs).passed
    assert (g.n, len(g.edges), len(enumerate_paths(g, 6))) == (300, 300, 196)
    assert len({ball_nodes(g, ref, 18) for ref in refs}) == 292
    assert (len(searched), len(built), len(hashed)) == (300, 196, 196)
    assert len(set(searched)) == 300 and len(set(built)) == len(set(hashed)) == 196


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(graphs(), st.integers(1, 3), st.integers(1, 3), st.data())
def test_one_evaluator_answers_each_ball_as_a_fresh_one_on_its_subgraph(g, l, s, data):
    """No memo leaks between balls or seeds: queries on g and on balls of
    every radius up to s*l, interleaved in a drawn order with mixed seeds.
    The answers on g, on every ball that holds the radius-s*(l-1) ball, and
    of ``local_f2_edge`` are the global run's, and so is every node's
    ``outflow``, queried among them."""
    f2 = {seed: run_a2(g, RunConfig(l=l, s=s, seed=seed))[0] for seed in (1, 2, 3)}
    queries = []
    for e in g.edges:
        for orientation in ("AB", "BA"):
            ref = DirectedEdgeRef(e.id, orientation)
            for seed in (1, 2, 3):
                assert local_f2_edge(g, ref, RunConfig(l=l, s=s, seed=seed)) == f2[seed].on(ref)
            wide = ball_nodes(g, ref, _ball_radius(l, s))
            balls = dict.fromkeys(ball_nodes(g, ref, r) for r in range(s * l + 1))
            queries += [(ref, seed, ball, ball is None or ball >= wide)
                        for ball in (None, *balls) for seed in (1, 2, 3)]
    # A node's net outflow, as a query of its own between the edge queries.
    queries += [(v, seed, None, True) for v in sorted(nd.id for nd in g.nodes)
                for seed in (1, 2, 3)]
    net = {seed: net_outflows(g, f) for seed, f in f2.items()}
    ev = LocalEvaluator(g, l, s)
    for ref, seed, ball, global_value in data.draw(st.permutations(queries)):
        if isinstance(ref, int):  # a node id
            assert ev.outflow(ref, seed) == net[seed][ref], (ref, seed)
            assert sum(ev.f2_on(out, seed) for out in out_edges(g, ref)) == net[seed][ref]
            continue
        sub = g if ball is None else induced_subgraph(g, ball)
        got = ev.f2_on(ref, seed, ball)
        assert got == LocalEvaluator(sub, l, s).f2_on(ref, seed)
        if global_value:
            assert got == f2[seed].on(ref), (ref, seed, ball)


def test_one_evaluator_holds_the_tables_of_one_ball_at_a_time():
    """Ball B1 under seeds 1 and 2, then B2, then B1 again: every answer is a
    fresh evaluator's on the subgraph the ball induces, and after every query
    the memo tables are those of the current ball alone, one per seed."""
    g, _ = generate(random_spec(7, n=40))
    l, s = 4, 2
    first, last = (DirectedEdgeRef(e.id, "AB") for e in (g.edges[0], g.edges[-1]))
    b1, b2 = ball_nodes(g, first, 2), ball_nodes(g, last, 2)
    assert b1 != b2
    ev = LocalEvaluator(g, l, s)
    answers = []
    for ball, seeds in ((b1, (1, 2)), (b2, (1,)), (b1, (1,))):
        sub = induced_subgraph(g, ball)
        fresh = LocalEvaluator(sub, l, s)
        for i, seed in enumerate(seeds):
            for e in sub.edges:
                ref = DirectedEdgeRef(e.id, "AB")
                answers.append(ev.f2_on(ref, seed, ball))
                assert answers[-1] == fresh.f2_on(ref, seed)
                assert ev._ball == ball and set(ev._tables) == set(seeds[:i + 1])
                inside = {u.canonical_key for u in ev._paths.values() if ball.issuperset(u.nodes)}
                for t in ev._tables.values():
                    assert all(ball.issuperset(u.nodes)
                               for got in t.orders.values() for _, u, _ in got)
                    assert set(t.amounts).union(*t.depths) <= inside
    assert any(answers)


def net_outflows(g: ColoredGraph, f: Flow) -> dict[int, int]:
    """Each node's net outflow under f, summed over the edge list."""
    net = dict.fromkeys((nd.id for nd in g.nodes), 0)
    for e in g.edges:
        net[e.a] += f.on_edge(e.id)
        net[e.b] -= f.on_edge(e.id)
    return net


@pytest.mark.parametrize("spec,l,s", [
    (InstanceSpec("path_bundle", params={"bottlenecks": [2, 0, 4], "path_len": 4}), 6, 2),
    (InstanceSpec("grid", params={"rows": 5, "cols": 6}, gen_seed=3), 5, 2),
    (InstanceSpec("random_bounded", n=50, gen_seed=5, params={"rounds": 3}), 4, 3),
    (InstanceSpec("layered", params={"layers": 5, "width": 4}, gen_seed=4), 5, 2),
], ids=["path_bundle", "grid", "random_bounded", "layered"])
def test_outflow_is_the_net_outflow_of_the_global_run(spec, l, s):
    """At every node and seed, ``outflow`` equals the net outflow of
    ``run_a2``'s flow and the sum of ``f2_on`` over the node's out-edges.
    On the grid and random_bounded instances some paths pass through S or
    T nodes, which must add nothing."""
    g, _ = generate(spec)
    ev = LocalEvaluator(g, l, s)
    by_color = {"R": set(), "S": set(), "T": set()}
    for seed in (1, 2, 3):
        f2, _ = run_a2(g, RunConfig(l=l, s=s, seed=seed))
        for v, want in net_outflows(g, f2).items():
            assert ev.outflow(v, seed) == want, (v, seed)
            assert sum(ev.f2_on(ref, seed) for ref in out_edges(g, v)) == want, (v, seed)
            by_color[g.node(v).color].add(want)
    assert by_color["R"] == {0} and max(by_color["S"]) > 0 and min(by_color["T"]) < 0
    with pytest.raises(ValueError, match="unknown node id -1"):
        ev.outflow(-1, 1)


def test_outflow_checks_its_result_against_the_nodes_invariant(monkeypatch):
    """An amount that broke the flow's invariants would be caught: an S
    node's net outflow below 0 or above the capacity leaving it, a T node's
    below minus the capacity entering it."""
    g = line_graph("SRT", cap=3)
    assert LocalEvaluator(g, 2, 2).outflow(0, 1) == 3
    for amount in (-1, 4):
        monkeypatch.setattr(LocalEvaluator, "_amount", lambda self, t, u, amount=amount: amount)
        with pytest.raises(AssertionError, match=rf"outflow {amount} at S node 0 outside \[0, 3\]"):
            LocalEvaluator(g, 2, 2).outflow(0, 1)
    with pytest.raises(AssertionError, match=r"net outflow -4 at T node 2 outside \[-3, 0\]"):
        LocalEvaluator(g, 2, 2).outflow(2, 1)


def test_an_unknown_orientation_is_refused_not_read_as_ba():
    """Every edge query refuses a ref whose orientation is neither AB nor BA."""
    g = ac5_instance()
    cfg = RunConfig(l=4, s=2, seed=1)
    ref = DirectedEdgeRef(g.edges[0].id, "ab")
    msg = "bad field 'orientation': expected 'AB' or 'BA', got 'ab'"
    with pytest.raises(ValueError, match=msg):
        LocalEvaluator(g, cfg.l, cfg.s).f2_on(ref, cfg.seed)
    with pytest.raises(ValueError, match=msg):
        local_f2_edge(g, ref, cfg)
    with pytest.raises(ValueError, match=msg):
        verify_locality(g, cfg, [ref])


@pytest.mark.parametrize("spec", [
    InstanceSpec("path_bundle", params={"bottlenecks": [2, 0, 4], "path_len": 4}),
    InstanceSpec("grid", params={"rows": 5, "cols": 6}, gen_seed=3),
    InstanceSpec("random_bounded", n=50, gen_seed=5, params={"rounds": 3}),
    InstanceSpec("layered", params={"layers": 5, "width": 4}, gen_seed=4),
], ids=lambda spec: spec.family)
def test_walk_search_equals_the_reference_search(spec):
    g, _ = generate(spec)
    center = DirectedEdgeRef(g.edges[len(g.edges) // 2].id, "AB")
    balls = [ball_nodes(g, center, radius) for radius in range(4)]
    for l in range(1, 7):
        ev = LocalEvaluator(g, l, 2)
        for v in sorted(nd.id for nd in g.nodes):
            assert ev._walks(v) == reference_walks(g, l, v), (l, v)
            # The same search at the global list's cap l, walks to S nodes unreversed.
            to_s, to_t = _simple_walks(g, v, l)
            back = [(nodes[::-1], tuple(arc ^ 1 for arc in reversed(arcs))) for nodes, arcs in to_s]
            assert (back, to_t) == reference_walks(g, l + 1, v), (l, v)
        # A ball's list of the paths through an edge holds the paths of the
        # subgraph the ball induces, in key order, each with its direction.
        for ball in balls:
            sub = induced_subgraph(g, ball)
            want = naive_paths(sub, l)
            ev.f2_on(center, 1, ball)
            t = ev._tables[1]
            for e in sub.edges:
                got = ev._ordered(t, e.id)
                assert [k for k, _, _ in got] == sorted(path_key(u, 1) for _, u, _ in got)
                through = set()
                for sig in want:
                    if e.id in sig[1::2]:
                        before = sig[2 * sig[1::2].index(e.id)]
                        through.add((sig, 1 if before == e.a else -1))
                assert {(path_signature(u), sign) for _, u, sign in got} == through, (l, e.id)
