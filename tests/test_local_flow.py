from __future__ import annotations

import gc
import json
import random
import re
import weakref
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import localflow.local_flow as local_flow_module
import localflow.path_engine as path_engine_module
from conftest import build_graph, line_graph, seed_sensitive_graph, sparse_id_graph
from localflow.estimator_tester import TesterConfig, run_tester
from localflow.exact_oracle import max_flow
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
    RunTrace,
    TraceEntry,
    _ball_radius,
    length_cap,
    local_f2_edge,
    run_a1,
    run_a2,
    verify_locality,
)
from localflow.path_engine import (
    OrderKey,
    _global_order,
    _PathIndex,
    _simple_walks,
    chain_depth_all,
    enumerate_paths,
    path_key,
)
from oracles import (
    ball_rerun_f2,
    length_boundary_violations,
    naive_paths,
    out_edges,
    path_signature,
    reference_sweep,
    reference_amount_reads,
    reference_locality_report,
    reference_walks,
    residual_sp_length,
)
from test_acceptance import SEEDS, _locality_suite
from test_json_properties import graphs


def random_spec(i: int, n: int = 20, **kw) -> InstanceSpec:
    merged = dict(n=n, d=4, m_ticks=4, rho_s=Fraction(1, 4), rho_t=Fraction(1, 4),
                  params={"rounds": 4})
    merged.update(kw)
    return InstanceSpec("random_bounded", gen_seed=2000 + i, **merged)


def table_shapes(monkeypatch) -> list[type]:
    """The type of every residual table ``local_flow`` builds from now on."""
    shapes: list[type] = []
    real_residuals = local_flow_module._residuals

    def recording(g, f=None):
        res = real_residuals(g, f)
        shapes.append(type(res))
        return res

    monkeypatch.setattr(local_flow_module, "_residuals", recording)
    return shapes


def sweeps_equal_the_reference_sweep(g: ColoredGraph, ls, seeds) -> set[str]:
    """Check every A1 and A2 (s = 2, 3) run on g against ``reference_sweep``;
    the actions their traces hold."""
    actions = set()
    for l in ls:
        for seed in seeds:
            for run, s in ((run_a1, None), (run_a2, 2), (run_a2, 3)):
                flow, trace = run(g, RunConfig(l=l, s=s, seed=seed))
                want_flow, want_rows = reference_sweep(g, l, seed, s)
                assert flow.values == want_flow.values
                assert tuple(trace.entries) == want_rows
                actions.update(entry.action for entry in trace.entries)
    return actions


@pytest.mark.parametrize("spec", default_specs(), ids=InstanceSpec.instance_id)
def test_sweeps_equal_the_reference_sweep(spec, monkeypatch):
    g, _ = generate(spec)
    shapes = table_shapes(monkeypatch)
    actions = sweeps_equal_the_reference_sweep(g, (3, 6), (1, 2, 3))
    # The bundle's paths share no edge, so none is skipped or left without room.
    bundle = spec.family == "path_bundle"
    assert actions == ({AUGMENTED} if bundle else {AUGMENTED, SKIPPED_CHAIN, ZERO_CAPACITY})
    assert set(shapes) == {list}  # generated edge ids are 0..|E|-1


def test_sweeps_on_sparse_ids_equal_the_reference_sweep(monkeypatch):
    shapes = table_shapes(monkeypatch)
    assert sweeps_equal_the_reference_sweep(sparse_id_graph(), (1, 2, 3), (1, 2, 3))
    assert set(shapes) == {dict}


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(graphs(), st.integers(1, 4), st.integers(0, 3))
def test_sweeps_on_arbitrary_graphs_equal_the_reference_sweep(g, l, seed):
    with pytest.MonkeyPatch.context() as monkeypatch:
        shapes = table_shapes(monkeypatch)
        sweeps_equal_the_reference_sweep(g, (l,), (seed,))
    dense = sorted(e.id for e in g.edges) == list(range(len(g.edges)))
    assert set(shapes) == {list if dense else dict}


def counted_orders(monkeypatch) -> list[tuple[int, int]]:
    """The (path count, seed) of every ``_key_order`` call made from now on:
    the sweeps and ``verify_locality`` order paths through ``_global_order``."""
    calls: list[tuple[int, int]] = []
    real_key_order = path_engine_module._key_order

    def counting(paths, seed):
        calls.append((len(paths), seed))
        return real_key_order(paths, seed)

    monkeypatch.setattr(path_engine_module, "_key_order", counting)
    return calls


def kept_orders(g: ColoredGraph) -> dict[int, int]:
    """l -> the seed of the key order the path cache keeps for (g, l)."""
    return {key[0]: kept[0] for key, kept in path_engine_module._PATH_CACHE[g].items()
            if type(key) is tuple and key[1] == "order"}


def test_a_sweep_at_the_last_seed_on_g_and_l_sorts_nothing(monkeypatch):
    g, _ = generate(InstanceSpec("grid", params={"rows": 6, "cols": 8}, gen_seed=3))
    n4, n5 = len(enumerate_paths(g, 4)), len(enumerate_paths(g, 5))
    calls = counted_orders(monkeypatch)
    a1 = run_a1(g, RunConfig(l=5, seed=1))
    a2 = run_a2(g, RunConfig(l=5, s=3, seed=1))
    assert calls == [(n5, 1)]
    assert run_a1(g, RunConfig(l=5, seed=1)) == a1
    assert calls == [(n5, 1)]
    run_a2(g, RunConfig(l=5, s=3, seed=2))  # another seed
    run_a2(g, RunConfig(l=4, s=3, seed=2))  # another l
    assert calls == [(n5, 1), (n5, 2), (n4, 2)]
    assert kept_orders(g) == {5: 2, 4: 2}
    assert run_a2(g, RunConfig(l=5, s=3, seed=1)) == a2
    assert calls[-1] == (n5, 1)
    assert kept_orders(g) == {5: 1, 4: 2}


def test_sweeps_in_any_interleaving_equal_sweeps_on_a_fresh_graph(monkeypatch):
    spec = random_spec(7, n=40)
    runs = [(run, l, s, seed) for run, s in ((run_a1, None), (run_a2, 2))
            for l in (3, 4) for seed in (1, 2, 3)]
    fresh = {run: run[0](generate(spec)[0], RunConfig(l=run[1], s=run[2], seed=run[3]))
             for run in runs}
    for shuffle_seed in range(4):
        g, _ = generate(spec)
        calls = counted_orders(monkeypatch)
        order = runs * 2
        random.Random(shuffle_seed).shuffle(order)
        last: dict[int, int] = {}
        for run in order:
            _, l, s, seed = run
            assert run[0](g, RunConfig(l=l, s=s, seed=seed)) == fresh[run]
            last[l] = seed
            assert kept_orders(g) == last  # one order per (g, l): the last seed's
        # an order is computed exactly when the seed differs from the last at l
        changes = 0
        seen: dict[int, int] = {}
        for _, l, _, seed in order:
            changes += seen.get(l) != seed
            seen[l] = seed
        assert len(calls) == changes


class ZeroLabelState:
    """A labelling state whose digest reads label 0, whatever it is fed."""

    def update(self, data: bytes) -> None:
        pass

    def digest(self) -> bytes:
        return bytes(8)


def test_sweep_order_ties_fall_back_to_the_canonical_key(monkeypatch):
    # With every label equal, paths of one length tie on (length, label), and
    # only the canonical key orders them.
    g, _ = generate(InstanceSpec("grid", params={"rows": 6, "cols": 8}, gen_seed=3))
    paths = enumerate_paths(g, 5)
    monkeypatch.setattr(path_engine_module, "_labeller", lambda seed: ZeroLabelState)
    lengths = [u.length for u in paths]
    assert len(lengths) > len(set(lengths))  # some do tie
    expected = [u.canonical_key for u in sorted(paths, key=lambda u: (u.length, u.canonical_key))]
    for run, s in ((run_a1, None), (run_a2, 3)):
        flow, trace = run(g, RunConfig(l=5, s=s, seed=1))
        assert [entry.canonical_key for entry in trace.entries] == expected
        want_flow, want_rows = reference_sweep(g, 5, 1, s)
        assert flow.values == want_flow.values and tuple(trace.entries) == want_rows


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
    assert list(trace.entries) == []


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


def ci_grid() -> ColoredGraph:
    """The 6x8 grid the CI's hash-seed step runs on: 450 paths at l=6."""
    return generate(InstanceSpec("grid", params={"rows": 6, "cols": 8}, gen_seed=3))[0]


def test_trace_rows_read_as_the_tuple_of_rows():
    g = ci_grid()
    _, trace = run_a2(g, RunConfig(l=6, s=3, seed=1))
    rows = reference_sweep(g, 6, 1, 3)[1]
    entries = trace.entries
    assert len(entries) == len(rows) == 450
    assert {row.action for row in rows} == {AUGMENTED, SKIPPED_CHAIN, ZERO_CAPACITY}
    for i in (0, 1, 449, -1, -2, -450):
        assert entries[i] == rows[i] and type(entries[i]) is TraceEntry
    for i in (450, -451):
        with pytest.raises(IndexError):
            entries[i]
    assert tuple(entries) == rows
    assert trace.to_json_lines() == "".join(
        json.dumps({"key": row.canonical_key.decode("ascii"), "action": row.action,
                    "amount": row.amount}) + "\n" for row in rows)


def test_trace_of_a_run_with_no_paths_is_empty():
    for run in (run_a1, run_a2):
        _, trace = run(line_graph("RRT"), RunConfig(l=3, s=2))
        assert len(trace.entries) == 0 and list(trace.entries) == []
        assert trace == RunTrace([], [])
        assert trace.to_json_lines() == ""


def test_a_kept_trace_outlives_its_seed_in_the_path_cache():
    """A trace holds its own seed's key order, which the path cache drops
    when a call on (g, l) at another seed replaces it."""
    g = ci_grid()
    _, kept = run_a1(g, RunConfig(l=6, seed=1))
    _, other = run_a1(g, RunConfig(l=6, seed=2))
    assert path_engine_module._PATH_CACHE[g][6, "order"][0] == 2
    assert tuple(kept.entries) == reference_sweep(g, 6, 1, None)[1]
    assert tuple(other.entries) == reference_sweep(g, 6, 2, None)[1]
    assert kept != other


def test_kept_traces_add_no_object_per_path_to_the_collector():
    """A sweep's trace is two flat lists, not a row per path: the cyclic
    collector never untracks a tuple subclass, so rows kept alive would
    each add to every full collection."""
    g = ci_grid()
    paths = len(enumerate_paths(g, 6))
    assert paths == 450
    gc.disable()
    try:
        gc.collect()
        before = len(gc.get_objects())
        kept = [run_a2(g, RunConfig(l=6, s=3, seed=seed))[1] for seed in (1, 2, 3)]
        gc.collect()
        assert len(gc.get_objects()) - before < paths
    finally:
        gc.enable()
    assert all(len(trace.entries) == paths for trace in kept)


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
                assert residual_sp_length(g, f1.values, l) is None


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


@pytest.mark.parametrize("bad_id", [True, 5.0, "5"])
def test_edge_queries_refuse_an_edge_id_that_is_no_plain_int(bad_id):
    """``True`` and ``5.0`` would otherwise be answered as edges 1 and 5, by
    a local query and by ``verify_locality``, also once edge 1's and edge
    5's balls are cached."""
    g, _ = generate(random_spec(575, n=30))
    cfg = RunConfig(l=3, s=2, seed=1)
    assert verify_locality(g, cfg, [DirectedEdgeRef(1, "AB"), DirectedEdgeRef(5, "AB")]).passed
    ref = DirectedEdgeRef(bad_id, "AB")
    msg = re.escape(f"unknown edge id {bad_id!r}")
    with pytest.raises(ValueError, match=msg):
        local_f2_edge(g, ref, cfg)
    with pytest.raises(ValueError, match=msg):
        LocalEvaluator(g, cfg.l, cfg.s, cfg.seed).f2_on(ref)
    with pytest.raises(ValueError, match=msg):
        verify_locality(g, cfg, [ref])


def test_verify_locality_refuses_a_bare_edge_as_its_sample():
    g = line_graph("SRT")
    ref = DirectedEdgeRef(0, "AB")
    with pytest.raises(ValueError, match=re.escape(
            "bad field 'edge_sample': expected a list of edges, got DirectedEdgeRef(")):
        verify_locality(g, RunConfig(l=2, s=2, seed=0), ref)
    assert verify_locality(g, RunConfig(l=2, s=2, seed=0), [ref]).passed


@pytest.mark.parametrize("sample", [[(0, "AB")], [DirectedEdgeRef(0, "AB"), (1, "AB")],
                                    [DirectedEdgeRef(0, "AB"), None], [0]])
def test_verify_locality_refuses_a_sample_item_that_is_no_edge(sample):
    """Each item of the sample must be a ``DirectedEdgeRef``: a plain tuple
    is refused by name before anything runs, not read as one."""
    g = ac5_instance()
    with pytest.raises(ValueError, match=re.escape(
            f"bad field 'edge_sample': expected a list of edges, got item {sample[-1]!r}")):
        verify_locality(g, RunConfig(l=6, s=3, seed=1), sample)
    assert g not in path_engine_module._PATH_CACHE

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
    ev = LocalEvaluator(g, 3, 2, 8)
    cached = [ev.f2_on(ref) for ref in refs]
    assert (nodes.scans, edges.scans) == (0, 0)
    f2, _ = run_a2(g, cfg)
    assert local == cached == [f2.on(ref) for ref in refs]


def test_evaluator_enumerates_paths_through_each_edge_once(monkeypatch):
    enumerated: list[int] = []
    listed: dict[int, tuple] = {}
    real = _PathIndex.through

    def counting(self, eid):
        if eid not in self._through:
            enumerated.append(eid)
        got = real(self, eid)
        assert listed.setdefault(eid, got) is got  # a later call returns the same list
        return got

    monkeypatch.setattr(_PathIndex, "through", counting)
    g, _ = generate(random_spec(572, n=60, params={"rounds": 2}))
    edge_ids = [e.id for e in g.edges[:12]]
    index = _PathIndex(g, 3)
    for seed in (1, 2, 3):
        ev = LocalEvaluator(g, 3, 2, seed, index=index)
        for eid in edge_ids:
            ab = ev.f2_on(DirectedEdgeRef(eid, "AB"))
            assert ev.f2_on(DirectedEdgeRef(eid, "BA")) == -ab
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
    index = _PathIndex(g, l)
    nonzero = 0
    for seed in (1, 2, 3, 4, 5):
        cfg = RunConfig(l=l, s=s, seed=seed)
        f2, _ = run_a2(g, cfg)
        ev = LocalEvaluator(g, l, s, seed, index=index)
        for e in g.edges:
            on_ball = ball_evaluator(g, l, s, seed, ball_nodes(g, DirectedEdgeRef(e.id, "AB"),
                                                                _ball_radius(l, s)))
            for orientation in ("AB", "BA"):
                ref = DirectedEdgeRef(e.id, orientation)
                want = f2.on(ref)
                assert ev.f2_on(ref) == want, (ref, seed)
                assert on_ball.f2_on(ref) == want, (ref, seed)
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
    f2s = {seed: run_a2(g, RunConfig(l=l, s=s, seed=seed))[0] for seed in (1, 2, 3, 4, 5)}
    for ball, eids in by_ball.items():
        sub = induced_subgraph(g, set(ball))
        index = _PathIndex(sub, l)
        for seed, f2 in f2s.items():
            ev = LocalEvaluator(sub, l, s, seed, index=index)
            for eid in eids:
                ref = DirectedEdgeRef(eid, "AB")
                assert ev.f2_on(ref) == f2.on(ref), (ref, seed)


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


def ball_evaluator(g: ColoredGraph, l: int, s: int, seed: int,
                   ball: frozenset[int]) -> LocalEvaluator:
    """An evaluator at seed on the subgraph ``ball`` induces that shares the
    path cache's index on (g, l), as ``verify_locality``'s ball evaluators do."""
    return LocalEvaluator(g, l, s, seed, ball=ball, index=shared_index(g, l))


def shared_index(g: ColoredGraph, l: int) -> _PathIndex:
    """The path cache's index on (g, l), which ``verify_locality`` shares."""
    per_graph = path_engine_module._PATH_CACHE.setdefault(g, {})
    return per_graph.setdefault((l, "tree"), _PathIndex(g, l))


def counted_evaluators(monkeypatch) -> list[LocalEvaluator]:
    """Every ``LocalEvaluator`` made from now on, in the order made."""
    made: list[LocalEvaluator] = []
    real_init = LocalEvaluator.__init__

    def counting(self, *args, **kw):
        made.append(self)
        real_init(self, *args, **kw)

    monkeypatch.setattr(LocalEvaluator, "__init__", counting)
    return made


def ball_evaluators(made: list[LocalEvaluator]) -> list[LocalEvaluator]:
    """Those of ``made`` that answer on a ball: ``verify_locality`` makes one
    for each query that read outside its ball."""
    return [ev for ev in made if ev.ball is not None]


def alternating_refs(g: ColoredGraph) -> list[DirectedEdgeRef]:
    return [DirectedEdgeRef(e.id, ("AB", "BA")[i % 2]) for i, e in enumerate(g.edges)]


@pytest.mark.parametrize("spec,l,s", [
    (None, 6, 3),
    (InstanceSpec("grid", params={"rows": 6, "cols": 8}, gen_seed=3), 4, 3),
], ids=["ac5", "grid"])
def test_verify_locality_reports_equal_the_reference_at_every_radius(spec, l, s, monkeypatch):
    """The whole report, each mismatch's local value too, is the one a fresh
    evaluator per edge on its ball's subgraph gives: at the default radius,
    where no query reads outside its ball, so no ball evaluator is made, at
    l-1, where some do, and at 1 and 0, where the balls drop paths through
    the edge."""
    g = ac5_instance() if spec is None else generate(spec)[0]
    refs = alternating_refs(g)
    made = counted_evaluators(monkeypatch)
    on_balls, mismatched = {}, {}
    for radius in (s * (l - 1), l - 1, 1, 0):
        del made[:]
        for seed in (1, 2):
            cfg = RunConfig(l=l, s=s, seed=seed)
            report = verify_locality(g, cfg, refs, radius=radius)
            assert report == reference_locality_report(g, cfg, refs, radius), (radius, seed)
            mismatched[radius] = mismatched.get(radius, 0) + len(report.mismatches)
        on_balls[radius] = len(ball_evaluators(made))
    assert on_balls[s * (l - 1)] == mismatched[s * (l - 1)] == 0
    assert 0 < on_balls[l - 1] < 2 * len(refs)
    assert mismatched[1] and mismatched[0]
    if spec is not None:  # the grid: a mismatch whose local value is not 0
        assert mismatched[l - 1]


def test_reads_stay_inside_the_default_radius_on_the_ac5_corpus(monkeypatch):
    """On every instance and seed of acceptance check AC-5, at radius
    s*(l-1), every query's read set lies in its ball, so ``verify_locality``
    makes no ball evaluator.  This is stronger than AC-5's equal values: a
    read beyond the radius fails it even where the value happens to agree."""
    made = counted_evaluators(monkeypatch)
    checked = 0
    for spec, l, s in _locality_suite():
        g, _ = generate(spec)
        refs = [DirectedEdgeRef(e.id, "AB") for e in g.edges]
        for seed in SEEDS:
            assert verify_locality(g, RunConfig(l=l, s=s, seed=seed), refs).passed
            checked += len(refs)
    assert checked == 16355 and len(made) == 20 * len(SEEDS)
    assert ball_evaluators(made) == []


class RecordingTable(dict):
    """A graph table that records each key it is indexed by."""

    def __init__(self, table: dict):
        super().__init__(table)
        self.read: set[int] = set()

    def __getitem__(self, key):
        self.read.add(key)
        return dict.__getitem__(self, key)


@pytest.mark.parametrize("l, s", [(3, 2), (4, 2), (6, 3)])
def test_the_query_tree_touches_nothing_beyond_its_radius(l, s):
    """What a fresh query's path index touches, not only what its values
    read: every node whose colour it reads lies within s*(l-1) hops of the
    edge, and every node whose adjacency it reads within s*(l-1) - 1, so
    each neighbour that adjacency names lies within s*(l-1) too.  At (3, 2)
    and (4, 2) colour reads reach the bound on both instances."""
    radius = _ball_radius(l, s)
    for g in (ac5_instance(), ci_grid()):
        reached = False
        for e in g.edges:
            ref = DirectedEdgeRef(e.id, "AB")
            inner, ball = ball_nodes(g, ref, radius - 1), ball_nodes(g, ref, radius)
            for seed in (1, 2, 3):
                index = _PathIndex(g, l)
                index._adj = adj = RecordingTable(g._adj)
                index._node_by_id = colours = RecordingTable(g._node_by_id)
                LocalEvaluator(g, l, s, seed, index=index).f2_on(ref)
                assert colours.read <= ball, (e.id, seed)
                assert adj.read <= inner, (e.id, seed)
                reached = reached or not colours.read <= inner
        if (l, s) != (6, 3):
            assert reached, g.n


def test_read_sets_do_not_depend_on_the_order_of_queries():
    """An evaluator whose first queries name no ball, plain ``f2_on`` and
    ``outflow`` on AC-5's instance, holds a read set for every depth it
    computed, and each amount it computed for a path unskipped at cap s read
    inside that path's depth read set; so, after them, every edge's ball of
    radius s*(l-1) holds what its query read, and ``verify_locality``'s
    check of every edge would make no ball evaluator.  No ball holds every
    node of g, so no answer comes from the test for a ball that is g."""
    g = ac5_instance()
    l, s = 6, 3
    ev = LocalEvaluator(g, l, s, 1)
    for e in g.edges[::10]:
        ev.f2_on(DirectedEdgeRef(e.id, "AB"))
    for v in sorted(nd.id for nd in g.nodes)[::10]:
        ev.outflow(v)
    assert ev.amounts and ev.depths[s]
    assert all(set(ev.reads[k]) == set(ev.depths[k]) for k in range(1, s + 1))
    unskipped = [u for _, u, _ in chain.from_iterable(ev.lists.values())
                 if u.canonical_key in ev.amounts and ev.depths[s].get(u.canonical_key, s) < s]
    assert unskipped and all(reference_amount_reads(ev, u) <= set(ev.reads[s][u.canonical_key])
                             for u in unskipped)
    for e in g.edges:
        ref = DirectedEdgeRef(e.id, "AB")
        ball = ball_nodes(g, ref, _ball_radius(l, s))
        ev.f2_on(ref)
        assert len(ball) < g.n and ev._holds_reads(e.id, ball), e.id


def test_an_amount_reads_inside_its_paths_depth_read_set():
    """``_holds_reads`` checks depth read sets alone: for every path
    unskipped at cap s, the nodes its amount reads, recomputed from the
    sorted lists, lie in its depth read set at cap s.  On AC-5's corpus and
    CI's 6x8 grid (l=4), at s = 2, 3 and 4, seeds 1 and 2, with every edge
    of each graph queried first, so each unskipped path is checked."""
    graphs = [(generate(spec)[0], l) for spec, l, _ in _locality_suite()]
    graphs.append((generate(InstanceSpec("grid", params={"rows": 6, "cols": 8}, gen_seed=3))[0], 4))
    checked = unskipped = 0
    for g, l in graphs:
        for s in (2, 3, 4):
            index = _PathIndex(g, l)
            for seed in (1, 2):
                ev = LocalEvaluator(g, l, s, seed, index=index)
                for e in g.edges:
                    ev.f2_on(DirectedEdgeRef(e.id, "AB"))
                depths = chain_depth_all(enumerate_paths(g, l), seed).values()
                unskipped += sum(depth < s for depth in depths)
                listed = {u.canonical_key: u for got in ev.lists.values() for _, u, _ in got}
                for ck, depth in ev.depths[s].items():
                    if depth < s:
                        checked += 1
                        reads = reference_amount_reads(ev, listed[ck])
                        assert reads <= set(ev.reads[s][ck]), (ck, s, seed)
    assert checked == unskipped > 0  # every unskipped path of every graph


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(graphs(), st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.data())
def test_verify_locality_reports_equal_the_reference_on_arbitrary_graphs(g, l, s, seed, data):
    """The report is the reference's at every radius and local seed, and at
    s*(l-1) every query's read set lies in its ball, so no ball evaluator is
    made: a read beyond the radius fails this even where its value happens
    to agree."""
    if not g.edges:
        return
    radius = data.draw(st.sampled_from((s * (l - 1), l - 1, 1, 0)))
    local_seed = data.draw(st.integers(1, 3))
    refs = alternating_refs(g)
    cfg = RunConfig(l=l, s=s, seed=seed)
    with pytest.MonkeyPatch.context() as mp:
        made = counted_evaluators(mp)
        report = verify_locality(g, cfg, refs, radius=radius, local_seed=local_seed)
    assert report == reference_locality_report(g, cfg, refs, radius, local_seed)
    if radius == s * (l - 1):
        assert ball_evaluators(made) == []


def ranks_answer_as_path_keys(g: ColoredGraph, l: int, s: int, seed: int) -> None:
    """An evaluator on g keyed by ranks in the global key order, as
    ``verify_locality``'s are, and one keyed by ``path_key``, as a local
    query's is, give the same value on every edge, both ways, the same
    outflow at every node, and the same read sets, which decide where
    ``verify_locality`` makes a ball evaluator."""
    ranks = {u.canonical_key: i for i, u in enumerate(_global_order(g, l, seed))}
    ranked, keyed = LocalEvaluator(g, l, s, seed, keys=ranks), LocalEvaluator(g, l, s, seed)
    for e in g.edges:
        for orientation in ("AB", "BA"):
            ref = DirectedEdgeRef(e.id, orientation)
            assert ranked.f2_on(ref) == keyed.f2_on(ref), (ref, l, s, seed)
    for nd in g.nodes:
        assert ranked.outflow(nd.id) == keyed.outflow(nd.id), (nd.id, l, s, seed)
    if g.nodes:
        assert ranked.reads == keyed.reads
        assert all(type(k) is OrderKey for k in keyed.keys.values())
        for eid, got in keyed.lists.items():
            assert [(u, sign) for _, u, sign in ranked.lists[eid]] == \
                [(u, sign) for _, u, sign in got]


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(graphs(), st.integers(1, 3), st.integers(2, 3), st.integers(0, 3))
def test_ranks_in_the_global_order_answer_as_path_keys_on_arbitrary_graphs(g, l, s, seed):
    """Ranks and ``path_key`` give equal values, outflows and read sets."""
    ranks_answer_as_path_keys(g, l, s, seed)


def test_ranks_in_the_global_order_answer_as_path_keys_on_the_ac5_corpus():
    """The same on every instance of acceptance check AC-5, at its l and at
    s = 2 and 3, seed 1."""
    for spec, l, _ in _locality_suite():
        g, _ = generate(spec)
        for s in (2, 3):
            ranks_answer_as_path_keys(g, l, s, 1)


def test_a_local_seed_report_is_the_references_at_that_seed():
    """On CI's 6x8 grid and on a graph built for it, where A2 depends on the
    seed, ``verify_locality`` with a local seed, whose evaluators rank paths
    by that seed's global order, gives the reference's report at that seed,
    mismatches and their local values included."""
    grid = generate(InstanceSpec("grid", params={"rows": 6, "cols": 8}, gen_seed=3))[0]
    mismatched = 0
    for g, l, s in ((grid, 4, 3), (seed_sensitive_graph(), 3, 5)):
        refs = alternating_refs(g)
        for seed, local_seed in ((1, 2), (2, 1), (0, 3)):
            cfg = RunConfig(l=l, s=s, seed=seed)
            for radius in (s * (l - 1), l - 1):
                report = verify_locality(g, cfg, refs, radius=radius, local_seed=local_seed)
                assert report == reference_locality_report(g, cfg, refs, radius, local_seed)
                mismatched += len(report.mismatches)
    assert mismatched


def test_ba_refs_are_negated_and_bad_orientations_refused_on_g(monkeypatch):
    """On AC-5's instance at the default radius ``verify_locality`` answers
    every query from its evaluator on g, and there a BA ref reads the
    negated value and an orientation that is neither AB nor BA is refused."""
    g = ac5_instance()
    l, s = 6, 3
    cfg = RunConfig(l=l, s=s, seed=1)
    f2, _ = run_a2(g, cfg)
    made = counted_evaluators(monkeypatch)
    ev = LocalEvaluator(g, l, s, 1)
    nonzero = 0
    for e in g.edges:
        ab, ba = DirectedEdgeRef(e.id, "AB"), DirectedEdgeRef(e.id, "BA")
        got = ev.f2_on(ba)
        assert got == -ev.f2_on(ab) == f2.on(ba)
        nonzero += got != 0
        with pytest.raises(ValueError, match="bad field 'orientation'"):
            ev.f2_on(DirectedEdgeRef(e.id, "ab"))
    assert verify_locality(g, cfg, [DirectedEdgeRef(e.id, "BA") for e in g.edges]).passed
    with pytest.raises(ValueError, match="bad field 'orientation'"):
        verify_locality(g, cfg, [DirectedEdgeRef(e.id, "ab") for e in g.edges])
    assert nonzero and ball_evaluators(made) == []


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
    too: an evaluator on a ball answers as one on the subgraph it induces."""
    g = ac5_instance() if spec is None else generate(spec)[0]
    refs = [DirectedEdgeRef(e.id, o) for e in g.edges for o in ("AB", "BA")]
    for radius in range(s * l + 1):
        by_ball: dict[frozenset[int], list[DirectedEdgeRef]] = {}
        for ref in refs:
            by_ball.setdefault(ball_nodes(g, ref, radius), []).append(ref)
        for ball, ball_refs in by_ball.items():
            induced = induced_subgraph(g, ball)
            index = _PathIndex(induced, l)
            for seed in (1, 2, 3):
                sub = LocalEvaluator(induced, l, s, seed, index=index)
                on_ball = ball_evaluator(g, l, s, seed, ball)
                for ref in ball_refs:
                    assert on_ball.f2_on(ref) == sub.f2_on(ref), (ref, radius, seed)


def test_ball_view_refuses_an_edge_outside_the_ball():
    """An evaluator on a ball refuses an edge or a node outside the ball, as
    one on the subgraph the ball induces does."""
    g = line_graph("SRRRT")
    ball = ball_nodes(g, DirectedEdgeRef(0, "AB"), 1)  # nodes 0, 1, 2
    sub = LocalEvaluator(induced_subgraph(g, ball), 3, 2, 1)
    on_ball = LocalEvaluator(g, 3, 2, 1, ball=ball)
    for ev in (on_ball, sub):
        for eid in (2, 3, 12):  # one endpoint outside, both outside, no such edge
            with pytest.raises(ValueError, match=f"unknown edge id {eid}"):
                ev.f2_on(DirectedEdgeRef(eid, "AB"))
        for v in (3, 12):  # outside the ball, no such node
            with pytest.raises(ValueError, match=f"unknown node id {v}"):
                ev.outflow(v)
    assert on_ball.f2_on(DirectedEdgeRef(1, "BA")) == on_ball.outflow(0) == 0
    assert LocalEvaluator(g, 3, 2, 1).f2_on(DirectedEdgeRef(2, "AB")) == 0  # g has edge 2


def test_a_ball_of_as_many_ids_as_g_has_nodes_is_not_taken_for_g():
    """A ball that holds every node of g is g, so it holds the query's reads
    unchecked; one of the same size that names an id outside g and misses
    the target is not, and an evaluator on it answers as one on the
    subgraph it induces."""
    g = line_graph("SRRT", cap=3)
    ref = DirectedEdgeRef(0, "AB")
    ev = LocalEvaluator(g, 3, 2, 1)
    assert ev.f2_on(ref) == 3
    assert ev._holds_reads(0, frozenset({0, 1, 2, 3}))
    foreign = frozenset({0, 1, 2, 99})
    assert len(foreign) == g.n
    assert not ev._holds_reads(0, foreign)
    assert LocalEvaluator(g, 3, 2, 1, ball=foreign).f2_on(ref) == \
        LocalEvaluator(induced_subgraph(g, foreign), 3, 2, 1).f2_on(ref) == 0


def arc_ends(g: ColoredGraph, arc: int) -> tuple[int, int]:
    """The node an arc leaves and the node it enters."""
    e = g.edge(arc >> 1)
    return (e.b, e.a) if arc & 1 else (e.a, e.b)


def counted_branches(monkeypatch) -> list[int]:
    """The arc of every branch search ``path_engine`` makes from now on."""
    searched: list[int] = []
    real_walks = path_engine_module._simple_walks

    def walking(adj, node, start, cap, into):
        if start[1]:
            searched.append(start[1][0])
        return real_walks(adj, node, start, cap, into)

    monkeypatch.setattr(path_engine_module, "_simple_walks", walking)
    return searched


def test_each_path_is_built_once_and_each_arc_searched_once(monkeypatch):
    g, _ = generate(random_spec(574, n=60, params={"rounds": 3}))
    refs = [DirectedEdgeRef(e.id, o) for e in g.edges[:20] for o in ("AB", "BA")]

    def counts() -> tuple[int, int, int, int]:
        built: list[bytes] = []
        real_make_path = path_engine_module.make_path

        def making(nodes, edges):
            u = real_make_path(nodes, edges)
            built.append(u.canonical_key)
            return u

        monkeypatch.setattr(path_engine_module, "make_path", making)
        searched = counted_branches(monkeypatch)
        index = _PathIndex(g, 4)
        for seed in (1, 2):
            ev = LocalEvaluator(g, 4, 3, seed, index=index)
            for ref in refs:
                ev.f2_on(ref)
        monkeypatch.undo()
        assert len(built) == len(set(built)) == len(index._paths)  # one make_path per path
        assert len(searched) == len(set(searched)) == len(index._branches)  # one search per arc
        # ... and only of arcs that leave an endpoint of a listed edge for a
        # stop other than that edge's other endpoint
        listed = {arc_ends(g, 2 * eid + o) for eid in index._through for o in (0, 1)}
        for arc in searched:
            v, w = arc_ends(g, arc)
            assert any(tail == v and head != w for tail, head in listed), arc
        return len(built), len(searched), len(listed), len(index._through)

    first = counts()
    assert first == counts()  # deterministic
    assert first[0] > 0 and first[1] > 0


def test_an_edge_with_no_path_grows_one_branch_per_endpoint(monkeypatch):
    """On a cycle, where every node has degree 2, listing the paths through
    an edge that carries none grows, at each endpoint, the one branch that
    points away from the edge, and none toward the other endpoint: a walk
    from one endpoint whose first stop is the other meets every walk out of
    the other."""
    # Edge i joins nodes i and i+1 mod 12; S at 0, T at 1, so edge 6 (6-7)
    # lies on no S->T path of at most 11 edges.
    g = build_graph("ST" + "R" * 10, [(i, (i + 1) % 12, 1, 1) for i in range(12)], d=2)

    def searched_arcs() -> list[int]:
        searched = counted_branches(monkeypatch)
        ev = LocalEvaluator(g, 4, 2, 1)
        assert ev.f2_on(DirectedEdgeRef(6, "AB")) == 0
        monkeypatch.undo()
        assert ev.index._through == {6: ()}
        assert sorted(ev.index._branches) == sorted(searched)
        return searched

    first = searched_arcs()
    assert [arc_ends(g, arc) for arc in first] == [(6, 5), (7, 8)]
    assert not {2 * 6, 2 * 6 + 1} & set(first)  # neither arc of the edge itself
    assert searched_arcs() == first


class CountingState:
    """A labelling state that records each canonical key it is fed, with
    its seed, and hashes it as the real state does."""

    def __init__(self, state, seed: int, labelled: list[tuple[bytes, int]]):
        self.state, self.seed, self.labelled = state, seed, labelled

    def update(self, canonical_key: bytes) -> None:
        self.labelled.append((canonical_key, self.seed))
        self.state.update(canonical_key)

    def digest(self) -> bytes:
        return self.state.digest()


def counted_labels(monkeypatch) -> list[tuple[bytes, int]]:
    """The (canonical key, seed) of every path label made from now on:
    ``path_key`` and ``_key_order`` both label from ``_labeller``'s state."""
    labelled: list[tuple[bytes, int]] = []
    real_labeller = path_engine_module._labeller

    def labeller(seed):
        copy = real_labeller(seed)
        return lambda: CountingState(copy(), seed, labelled)

    monkeypatch.setattr(path_engine_module, "_labeller", labeller)
    return labelled


def counted_path_keys(monkeypatch) -> list[bytes]:
    """The canonical key of every ``path_key`` call ``local_flow`` makes from now on."""
    keyed: list[bytes] = []
    real_path_key = local_flow_module.path_key

    def counting(u, seed):
        keyed.append(u.canonical_key)
        return real_path_key(u, seed)

    monkeypatch.setattr(local_flow_module, "path_key", counting)
    return keyed


def test_verify_locality_searches_each_arc_and_builds_each_path_once(monkeypatch):
    """One evaluator serves every ball: on AC-5's instance, whose 300 edges
    have 292 distinct balls, each arc whose node has a neighbour other than
    the arc's head (596 of the 600) is searched once, and each of the 196
    paths is built once, and labelled once per seed, across the global run
    and every evaluator.  The evaluators rank paths by the global
    run's key order, so ``path_key`` never runs."""
    g = ac5_instance()
    refs = [DirectedEdgeRef(e.id, "AB") for e in g.edges]
    built: list[bytes] = []
    real_make_path = path_engine_module.make_path

    def making(nodes, arcs):
        u = real_make_path(nodes, arcs)
        built.append(u.canonical_key)
        return u

    growable = [arc for v in sorted(g._adj) for arc in g._adj[v][1::2]
                if set(g._adj[v][::2]) - {arc_ends(g, arc)[1]}]
    assert (g.n, len(g.edges), len(enumerate_paths(g, 6)), len(growable)) == (300, 300, 196, 596)
    # The global list is built before make_path is counted: it is the index's builds that count.
    searched = counted_branches(monkeypatch)
    monkeypatch.setattr(path_engine_module, "make_path", making)
    labelled = counted_labels(monkeypatch)
    keyed = counted_path_keys(monkeypatch)
    assert verify_locality(g, RunConfig(l=6, s=3, seed=1), refs).passed
    assert len({ball_nodes(g, ref, 18) for ref in refs}) == 292
    assert (len(searched), len(built), len(labelled)) == (len(growable), 196, 196)
    assert sorted(searched) == sorted(growable) and len(set(built)) == len(set(labelled)) == 196
    assert {seed for _, seed in labelled} == {1}

    # A later call on (g, l) reuses the walks and paths, whatever its seed, s
    # and radius, and labels each path once under its own seed.
    del searched[:], built[:], labelled[:]
    cfg = RunConfig(l=6, s=2, seed=4)
    warm = verify_locality(g, cfg, refs, radius=5)
    assert (len(searched), len(built), len(labelled), len(set(labelled))) == (0, 0, 196, 196)
    assert {seed for _, seed in labelled} == {4}

    # With a local seed, the global run reads the kept order at the run's
    # seed, and the evaluators' ranks label each path under the local seed.
    del labelled[:]
    control = verify_locality(g, cfg, refs, local_seed=2)
    assert len(labelled) == len(set(labelled)) == 196
    assert {seed for _, seed in labelled} == {2}
    assert keyed == []
    monkeypatch.undo()
    assert warm == verify_locality(ac5_instance(), cfg, refs, radius=5)
    assert control == verify_locality(ac5_instance(), cfg, refs, local_seed=2)


def test_verify_locality_shares_tables_per_l_and_answers_as_on_a_fresh_graph():
    """One graph checked at l=4, then at l=6, then at l=4 again with a too
    small radius and a mismatched local seed: each report is the one a fresh
    copy of the graph gives, and each l has its own tables."""
    g = ac5_instance()
    refs = [DirectedEdgeRef(e.id, o) for e in g.edges for o in ("AB", "BA")]
    calls = [(RunConfig(l=4, s=3, seed=1), {}), (RunConfig(l=6, s=3, seed=2), {}),
             (RunConfig(l=4, s=2, seed=3), {"radius": 1, "local_seed": 5})]
    reports = [verify_locality(g, cfg, refs, **kw) for cfg, kw in calls]
    assert reports == [verify_locality(ac5_instance(), cfg, refs, **kw) for cfg, kw in calls]
    assert reports[0].passed and reports[1].passed and not reports[2].passed
    tables = path_engine_module._PATH_CACHE[g]
    assert max(map(len, tables[4, "tree"]._paths)) <= 4 < max(map(len, tables[6, "tree"]._paths))


def test_a_call_that_raises_leaves_only_complete_shared_tables(monkeypatch):
    """A verify_locality call cut off half way through listing the paths of
    an edge shares nothing half built: the next call gives a fresh copy's
    report, and every list of paths through an edge is a fresh evaluator's."""
    g = ac5_instance()
    refs = [DirectedEdgeRef(e.id, "AB") for e in g.edges]
    cfg = RunConfig(l=6, s=3, seed=1)
    real_make_path = path_engine_module.make_path
    built: list[tuple[int, ...]] = []

    def failing(nodes, arcs):
        if len(built) == 100:
            raise RuntimeError("cut off")
        built.append(nodes)
        return real_make_path(nodes, arcs)

    enumerate_paths(g, 6)  # the global list, so that the cut falls in the index
    monkeypatch.setattr(path_engine_module, "make_path", failing)
    with pytest.raises(RuntimeError, match="cut off"):
        verify_locality(g, cfg, refs)
    monkeypatch.undo()
    index = path_engine_module._PATH_CACHE[g][6, "tree"]
    assert len(index._paths) == 100 and index._through
    assert verify_locality(g, cfg, refs) == verify_locality(ac5_instance(), cfg, refs)
    fresh = _PathIndex(g, 6)
    assert all(fresh.through(eid) == got for eid, got in index._through.items())
    for arc in index._branches:
        fresh._walks(arc_ends(g, arc)[0], None)
    assert all(fresh._branches[arc] == got for arc, got in index._branches.items())


def test_local_queries_and_the_tester_stay_cold_after_verify_locality(monkeypatch):
    """``local_f2_edge`` and ``run_tester`` build a fresh evaluator per call:
    on a graph that ``verify_locality`` has warmed they search as many arcs
    and build as many paths as on a fresh copy."""
    l, s = 6, 3
    refs = [DirectedEdgeRef(e.id, "AB") for e in ac5_instance().edges[::30]]
    real_make_path = path_engine_module.make_path

    def counts(g: ColoredGraph) -> tuple[int, int]:
        built: list[tuple[int, ...]] = []

        def making(nodes, arcs):
            built.append(nodes)
            return real_make_path(nodes, arcs)

        searched = counted_branches(monkeypatch)
        monkeypatch.setattr(path_engine_module, "make_path", making)
        for ref in refs:
            local_f2_edge(g, ref, RunConfig(l=l, s=s, seed=1))
        run_tester(g, TesterConfig(l=l, s=s, seeds=(1, 2), k=50))
        monkeypatch.undo()
        return len(searched), len(built)

    warm = ac5_instance()
    assert verify_locality(warm, RunConfig(l=l, s=s, seed=1),
                           [DirectedEdgeRef(e.id, "AB") for e in warm.edges]).passed
    assert path_engine_module._PATH_CACHE[warm][l, "tree"]._branches
    cold = counts(ac5_instance())
    assert cold[0] > 0 and cold[1] > 0
    assert counts(warm) == cold


def test_the_path_cache_lets_go_of_its_graph():
    g = ac5_instance()
    refs = [DirectedEdgeRef(e.id, "AB") for e in g.edges]
    enumerate_paths(g, 6)
    assert verify_locality(g, RunConfig(l=6, s=3, seed=1), refs).passed
    assert set(path_engine_module._PATH_CACHE[g]) == {6, (6, "order"), (6, "tree"), (15, "balls")}
    alive = weakref.ref(g)
    del g
    gc.collect()
    assert alive() is None


def counted_balls(monkeypatch) -> list[tuple[int, int]]:
    """The (edge id, radius) of every ``ball_nodes`` call ``local_flow`` makes
    from now on."""
    calls: list[tuple[int, int]] = []
    real_ball_nodes = local_flow_module.ball_nodes

    def counting(h, center, r):
        calls.append((center.edge_id, r))
        return real_ball_nodes(h, center, r)

    monkeypatch.setattr(local_flow_module, "ball_nodes", counting)
    return calls


def test_verify_locality_builds_each_ball_once_per_radius(monkeypatch):
    """A ball depends only on (g, edge, radius): a later call at the same
    radius, whatever its seed, s or orientation, builds none, and a call at
    a new radius builds one per edge."""
    spec = random_spec(573, n=60, params={"rounds": 2})
    g, _ = generate(spec)
    refs = [DirectedEdgeRef(e.id, "AB") for e in g.edges]
    flipped = [DirectedEdgeRef(ref.edge_id, "BA") for ref in refs]
    cfg = RunConfig(l=3, s=2, seed=1)
    # every config's default radius s*(l-1) is 4
    later = [(cfg, flipped), (RunConfig(l=3, s=2, seed=2), refs),
             (RunConfig(l=5, s=1, seed=3), refs)]
    fresh = [verify_locality(generate(spec)[0], c, r) for c, r in [(cfg, refs), *later]]
    calls = counted_balls(monkeypatch)
    assert verify_locality(g, cfg, refs) == fresh[0]
    assert calls == [(ref.edge_id, 4) for ref in refs]
    del calls[:]
    assert [verify_locality(g, c, r) for c, r in later] == fresh[1:]
    assert calls == []
    assert (verify_locality(g, cfg, refs, radius=2)
            == verify_locality(generate(spec)[0], cfg, refs, radius=2))
    assert calls == [(ref.edge_id, 2) for ref in refs] * 2  # g's, then the fresh copy's
    balls = path_engine_module._PATH_CACHE[g]
    for rad in (2, 4):
        assert balls[rad, "balls"] == {ref.edge_id: ball_nodes(g, ref, rad) for ref in refs}


def test_an_unknown_edge_stores_no_ball(monkeypatch):
    g = ac5_instance()
    refs = [DirectedEdgeRef(e.id, "AB") for e in g.edges[:100]]
    cfg = RunConfig(l=6, s=3, seed=1)
    calls = counted_balls(monkeypatch)
    with pytest.raises(ValueError, match="unknown edge id 9999"):
        verify_locality(g, cfg, refs + [DirectedEdgeRef(9999, "AB")])
    assert 9999 not in path_engine_module._PATH_CACHE[g][15, "balls"]
    assert len(calls) == len(refs) + 1
    refs = [DirectedEdgeRef(e.id, "AB") for e in g.edges]
    assert verify_locality(g, cfg, refs) == verify_locality(ac5_instance(), cfg, refs)


@pytest.mark.parametrize("field,value", [
    *(("radius", value) for value in (True, 2.0, "3", -1)),
    *(("local_seed", value) for value in (True, 2.0, "3")),
])
def test_verify_locality_refuses_a_radius_or_local_seed_that_is_no_plain_int(field, value):
    """``radius=True`` is not radius 1: it is refused before anything is
    computed or cached for g, so the two never share a cached ball."""
    g = line_graph("SRRT", cap=3)
    with pytest.raises(ValueError, match=f"bad field '{field}'"):
        verify_locality(g, RunConfig(l=3, s=2, seed=0), [DirectedEdgeRef(0, "AB")],
                        **{field: value})
    assert g not in path_engine_module._PATH_CACHE


def test_a_negative_local_seed_is_a_seed_like_any_other():
    # RunConfig takes any int seed, so local_seed does too.
    g = seed_sensitive_graph()
    refs = [DirectedEdgeRef(e.id, "AB") for e in g.edges]
    cfg = RunConfig(l=3, s=5, seed=-1)
    assert verify_locality(g, cfg, refs, local_seed=-1) == verify_locality(g, cfg, refs)
    assert verify_locality(g, cfg, refs).passed


def test_each_edge_is_keyed_and_sorted_once_per_seed_across_every_ball(monkeypatch):
    """On AC-5's instance at radius l-1, ``verify_locality`` checks every
    edge under two seeds.  Each path is labelled once per seed, across the
    global run, the evaluator on g and every ball evaluator, which share the
    ranks of the global key order, so ``path_key`` never runs; each list of
    the paths through an edge on a ball is the seed's sorted list on g
    filtered by the ball; and at this radius some queries read outside their
    ball, and a ball evaluator is made for those alone."""
    g = ac5_instance()
    l, s, rad = 6, 3, 5
    refs = [DirectedEdgeRef(e.id, "AB") for e in g.edges]
    labelled = counted_labels(monkeypatch)
    keyed = counted_path_keys(monkeypatch)
    made = counted_evaluators(monkeypatch)
    reports = [verify_locality(g, RunConfig(l=l, s=s, seed=seed), refs, radius=rad)
               for seed in (1, 2)]
    monkeypatch.undo()
    on_g = {ev.seed: ev for ev in made if ev.ball is None}
    on_balls = [(ev.ball, ev.seed, ev) for ev in ball_evaluators(made)]
    assert sorted(on_g) == [1, 2] and len(made) == 2 + len(on_balls)
    keys = [on_g[seed].keys for seed in (1, 2)]
    assert all(t.keys is keys[seed - 1] for _, seed, t in on_balls)
    assert len(labelled) == len(set(labelled)) == len(keys[0]) + len(keys[1])
    assert keyed == []
    assert set(keys[0]) == set(keys[1]) == {u.canonical_key for u in on_g[1].index._paths.values()}
    # On g a query reads the sorted lists unfiltered.
    assert all(len(got) == len(on_g[seed].index.through(eid))
               for seed in (1, 2) for eid, got in on_g[seed].lists.items())
    for seed, ev in on_g.items():
        outside = [ref for ref in refs
                   if not ev._holds_reads(ref.edge_id, ball_nodes(g, ref, rad))]
        assert 0 < len(outside) < len(refs)
        assert [ball for ball, at, _ in on_balls if at == seed] == \
            [ball_nodes(g, ref, rad) for ref in outside]
    filtered = 0
    for ball, seed, t in on_balls:
        for eid, got in t.lists.items():
            full = on_g[seed]._ordered(eid)
            assert got == [kus for kus in full if ball.issuperset(kus[1].nodes)]
            filtered += len(got) < len(full)
    assert filtered
    for seed, report in zip((1, 2), reports):
        cfg = RunConfig(l=l, s=s, seed=seed)
        assert report == reference_locality_report(g, cfg, refs, rad)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(graphs(), st.integers(1, 3), st.integers(1, 3), st.data())
def test_one_evaluator_answers_each_ball_as_a_fresh_one_on_its_subgraph(g, l, s, data):
    """No memo leaks between the evaluators of different seeds, nor between
    those on g and on balls, all of which share walks and paths: queries on
    g and on balls of every radius up to s*l, each ball with one evaluator
    per seed, interleaved in a drawn order with mixed seeds.  Each answers as a fresh
    evaluator on the subgraph its ball induces, and those on g, on every
    ball that holds the radius-s*(l-1) ball, and of ``local_f2_edge`` are
    the global run's; so is every node's ``outflow`` on g, queried among
    them, and on a ball it is a fresh evaluator's on the subgraph."""
    f2 = {seed: run_a2(g, RunConfig(l=l, s=s, seed=seed))[0] for seed in (1, 2, 3)}
    queries = []
    index = _PathIndex(g, l)
    on: dict[tuple[frozenset[int] | None, int], LocalEvaluator] = {
        (None, seed): LocalEvaluator(g, l, s, seed, index=index) for seed in (1, 2, 3)}
    for e in g.edges:
        for orientation in ("AB", "BA"):
            ref = DirectedEdgeRef(e.id, orientation)
            for seed in (1, 2, 3):
                assert local_f2_edge(g, ref, RunConfig(l=l, s=s, seed=seed)) == f2[seed].on(ref)
            wide = ball_nodes(g, ref, _ball_radius(l, s))
            balls = dict.fromkeys(ball_nodes(g, ref, r) for r in range(s * l + 1))
            queries += [(ref, seed, ball, ball is None or ball >= wide)
                        for ball in (None, *balls) for seed in (1, 2, 3)]
            for ball in balls:
                for seed in (1, 2, 3):
                    if (ball, seed) not in on:
                        on[ball, seed] = ball_evaluator(g, l, s, seed, ball)
    # A node's net outflow, as a query of its own between the edge queries.
    queries += [(v, seed, ball, ball is None) for ball, seed in on
                for v in sorted(ball or g._node_by_id)]
    net = {seed: net_outflows(g, f) for seed, f in f2.items()}
    for ref, seed, ball, global_value in data.draw(st.permutations(queries)):
        ev = on[ball, seed]
        sub = g if ball is None else induced_subgraph(g, ball)
        if isinstance(ref, int):  # a node id
            got = ev.outflow(ref)
            assert got == LocalEvaluator(sub, l, s, seed).outflow(ref)
            if global_value:
                assert got == net[seed][ref], (ref, seed)
                assert sum(ev.f2_on(out) for out in out_edges(g, ref)) == got
            continue
        got = ev.f2_on(ref)
        assert got == LocalEvaluator(sub, l, s, seed).f2_on(ref)
        if global_value:
            assert got == f2[seed].on(ref), (ref, seed, ball)


def test_one_evaluator_holds_the_tables_of_one_ball_at_a_time():
    """Ball B1 under seeds 1 and 2, then B2, then B1 again, at a radius below
    l-1, where queries read outside their balls, one evaluator per seed
    asked on a ball's index: every answer is a fresh evaluator's on the
    subgraph the ball induces, an evaluator on a ball holds the paths inside
    it alone, and every evaluator, on g or on a ball, holds a read set for
    every depth it holds."""
    g, _ = generate(random_spec(7, n=40))
    l, s = 4, 2
    first, last = (DirectedEdgeRef(e.id, "AB") for e in (g.edges[0], g.edges[-1]))
    b1, b2 = ball_nodes(g, first, 2), ball_nodes(g, last, 2)
    assert b1 != b2
    on_g_index = _PathIndex(g, l)
    on_g = {seed: LocalEvaluator(g, l, s, seed, index=on_g_index) for seed in (1, 2)}
    answers, tables, outside = [], [], 0
    for ball, seeds in ((b1, (1, 2)), (b2, (1,)), (b1, (1,))):
        sub = induced_subgraph(g, ball)
        index, sub_index = _PathIndex(g, l), _PathIndex(sub, l)
        evs = []
        for seed in seeds:
            fresh = LocalEvaluator(sub, l, s, seed, index=sub_index)
            ev = LocalEvaluator(g, l, s, seed, ball=ball, index=index)
            evs.append(ev)
            for e in sub.edges:
                ref = DirectedEdgeRef(e.id, "AB")
                answers.append(ev.f2_on(ref))
                assert answers[-1] == fresh.f2_on(ref)
                on_g[seed].f2_on(ref)
                outside += not on_g[seed]._holds_reads(e.id, ball)
        assert [ev.seed for ev in evs] == list(seeds)
        inside = {u.canonical_key for u in index._paths.values() if ball.issuperset(u.nodes)}
        for t in evs:
            assert all(ball.issuperset(u.nodes) for got in t.lists.values() for _, u, _ in got)
            assert set(t.amounts).union(*t.depths) <= inside
        tables += evs
    assert any(answers) and outside
    for t in [*tables, *on_g.values()]:
        assert t.amounts and [set(got) for got in t.reads] == [set(), set(), set(t.depths[2])]


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
    index = _PathIndex(g, l)
    by_color = {"R": set(), "S": set(), "T": set()}
    for seed in (1, 2, 3):
        f2, _ = run_a2(g, RunConfig(l=l, s=s, seed=seed))
        ev = LocalEvaluator(g, l, s, seed, index=index)
        for v, want in net_outflows(g, f2).items():
            assert ev.outflow(v) == want, (v, seed)
            assert sum(ev.f2_on(ref) for ref in out_edges(g, v)) == want, (v, seed)
            by_color[g.node(v).color].add(want)
    assert by_color["R"] == {0} and max(by_color["S"]) > 0 and min(by_color["T"]) < 0
    with pytest.raises(ValueError, match="unknown node id -1"):
        ev.outflow(-1)


def test_outflow_checks_its_result_against_the_nodes_invariant(monkeypatch):
    """An amount that broke the flow's invariants would be caught: an S
    node's net outflow below 0 or above the capacity leaving it, a T node's
    below minus the capacity entering it."""
    g = line_graph("SRT", cap=3)
    assert LocalEvaluator(g, 2, 2, 1).outflow(0) == 3
    for amount in (-1, 4):
        monkeypatch.setattr(LocalEvaluator, "_amount", lambda self, ku, u, amount=amount: amount)
        with pytest.raises(AssertionError, match=rf"outflow {amount} at S node 0 outside \[0, 3\]"):
            LocalEvaluator(g, 2, 2, 1).outflow(0)
    with pytest.raises(AssertionError, match=r"net outflow -4 at T node 2 outside \[-3, 0\]"):
        LocalEvaluator(g, 2, 2, 1).outflow(2)


def test_f2_on_checks_its_value_and_each_amount_it_builds_on(monkeypatch):
    """A value outside the edge's capacities, or a path whose predecessors
    leave it a negative residual, would be caught: reached through an
    ``_amount`` that gives one path more than its bottleneck."""
    g = line_graph("SRT", cap=3)
    monkeypatch.setattr(LocalEvaluator, "_amount", lambda self, ku, u: 4)
    with pytest.raises(AssertionError, match="value 4 on edge 0 outside its capacities"):
        LocalEvaluator(g, 2, 2, 1).f2_on(DirectedEdgeRef(0, "AB"))
    monkeypatch.undo()
    # Paths 0-2-3 and 1-2-3 share edge 2; at s=3 neither is skipped.
    g = build_graph("SSRT", [(0, 2, 3, 3), (1, 2, 3, 3), (2, 3, 3, 3)])
    first = min(path_key(u, 1) for u in enumerate_paths(g, 2))
    real = LocalEvaluator._amount

    def overflowing(self, ku, u):
        return real(self, ku, u) if ku != first else 4

    monkeypatch.setattr(LocalEvaluator, "_amount", overflowing)
    with pytest.raises(AssertionError, match="negative amount -1 on path"):
        LocalEvaluator(g, 2, 3, 1).f2_on(DirectedEdgeRef(2, "AB"))


def test_an_unknown_orientation_is_refused_not_read_as_ba():
    """Every edge query refuses a ref whose orientation is neither AB nor BA."""
    g = ac5_instance()
    cfg = RunConfig(l=4, s=2, seed=1)
    ref = DirectedEdgeRef(g.edges[0].id, "ab")
    msg = "bad field 'orientation': expected 'AB' or 'BA', got 'ab'"
    with pytest.raises(ValueError, match=msg):
        LocalEvaluator(g, cfg.l, cfg.s, cfg.seed).f2_on(ref)
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
        index = _PathIndex(g, l)
        for v in sorted(nd.id for nd in g.nodes):
            into, out = reference_walks(g, l, v)
            stops, arcs = g._adj[v][::2], g._adj[v][1::2]
            # The index lists the reference's walks by branch: the trivial
            # walk first, then those leaving v by each arc in turn, each
            # branch in the reference's order, and drops the branches whose
            # first stop is the node it is told to avoid.
            at = {arc: i for i, arc in enumerate(arcs)}
            into = sorted(into, key=lambda w: at[w[1][-1] ^ 1] if w[1] else -1)
            out = sorted(out, key=lambda w: at[w[1][0]] if w[1] else -1)
            for other in [None, *stops]:
                got_into, got_out = index._walks(v, other)
                assert all(got_into) and all(got_out), (l, v)
                assert list(chain.from_iterable(got_into)) == \
                    [w for w in into if len(w[0]) == 1 or w[0][-2] != other], (l, v, other)
                assert list(chain.from_iterable(got_out)) == \
                    [w for w in out if len(w[0]) == 1 or w[0][1] != other], (l, v, other)
            for arc in arcs:
                assert index._branches.get(arc, ([], [])) == (
                    [w for w in into if w[1][-1:] == (arc ^ 1,)],
                    [w for w in out if w[1][:1] == (arc,)]), (l, v, arc)
            # The same search from v at the global list's cap l, which keeps
            # the walks to S nodes only when asked to.
            start = ((v,), (), ())
            wide = reference_walks(g, l + 1, v)
            assert _simple_walks(g._adj, g._node_by_id, start, l, True) == wide, (l, v)
            assert _simple_walks(g._adj, g._node_by_id, start, l, False) == ([], wide[1]), (l, v)
        assert bool(index._branches) == (l > 1)
        # A ball's list of the paths through an edge holds the paths of the
        # subgraph the ball induces, in key order, each with its direction.
        for ball in balls:
            sub = induced_subgraph(g, ball)
            want = naive_paths(sub, l)
            on_ball = LocalEvaluator(g, l, 2, 1, ball=ball)
            for e in sub.edges:
                got = on_ball._ordered(e.id)
                assert [k for k, _, _ in got] == sorted(path_key(u, 1) for _, u, _ in got)
                through = set()
                for sig in want:
                    if e.id in sig[1::2]:
                        before = sig[2 * sig[1::2].index(e.id)]
                        through.add((sig, 1 if before == e.a else -1))
                assert {(path_signature(u), sign) for _, u, sign in got} == through, (l, e.id)
