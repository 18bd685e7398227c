from __future__ import annotations

import gc
import hashlib
from collections import Counter, defaultdict
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import localflow.path_engine as path_engine_module
from conftest import build_graph, line_graph
from localflow.cli import main
from localflow.graph_core import DirectedEdgeRef, ball_nodes, induced_subgraph
from localflow.harness import InstanceSpec, generate
from localflow.path_engine import (
    OrderKey,
    _chain_depths,
    _key_order,
    chain_depth_all,
    enumerate_paths,
    make_path,
    path_key,
)
from oracles import brute_chain_depths, intersects, naive_paths, path_signature
from test_acceptance import _locality_suite
from test_json_properties import graphs


def test_single_edge_single_path():
    g = build_graph("ST", [(0, 1, 1, 1)], d=2)
    paths = enumerate_paths(g, 1)
    assert len(paths) == 1
    assert paths[0].nodes == (0, 1)
    assert paths[0].edges == (DirectedEdgeRef(0, "AB"),)


def test_length_cap_excludes_longer_paths():
    g = line_graph("SRT")
    assert enumerate_paths(g, 1) == []
    assert len(enumerate_paths(g, 2)) == 1
    # The README's 3-path bundle at l=40, the cap `--epsilon 1` gives.  Counting
    # walks that turn back along their last edge, it would have about 1.9e8
    # and be refused.
    bundle, _ = generate(InstanceSpec("path_bundle", params={"bottlenecks": [2, 3, 4],
                                                            "path_len": 3}))
    assert len(enumerate_paths(bundle, 40)) == 3


def test_walk_count_ceiling_is_exact(monkeypatch):
    # The triangle S-R-T-S has two paths, S T and S R T, and as many
    # non-backtracking S->T walks of at most 3 edges; at most 4 edges adds
    # S T R S T.  A walk that turns back (S R S T) is not counted.
    triangle = build_graph("SRT", [(0, 1, 1, 1), (1, 2, 1, 1), (2, 0, 1, 1)])
    monkeypatch.setattr(path_engine_module, "_MAX_WALKS", 2)
    assert len(enumerate_paths(triangle, 3)) == 2
    with pytest.raises(ValueError, match="l=4"):
        enumerate_paths(triangle, 4)


def test_too_many_walks_are_refused_before_any_path_is_listed(tmp_path, capsys, monkeypatch):
    def no_listing(*args):
        raise AssertionError("paths listed")

    monkeypatch.setattr(path_engine_module, "_simple_walks", no_listing)
    g, _ = generate(InstanceSpec("grid", params={"rows": 30, "cols": 40}, gen_seed=1))
    with pytest.raises(ValueError, match="path length cap l=12 is too large"):
        enumerate_paths(g, 12)
    path = tmp_path / "grid.json"
    assert main(["generate", "--family", "grid", "--rows", "30", "--cols", "40",
                 "--out", str(path)]) == 0
    assert main(["run-a1", "--graph", str(path), "--l", "12"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "l=12" in captured.err


def test_no_walk_means_no_search(monkeypatch):
    """With no S->T walk of at most l edges, no path is searched for: here a
    grid with S nodes and no T node at all."""
    calls = []
    search = path_engine_module._simple_walks

    def counted(*args):
        calls.append(1)
        return search(*args)

    monkeypatch.setattr(path_engine_module, "_simple_walks", counted)
    no_targets, _ = generate(InstanceSpec("grid", params={"rows": 6, "cols": 8},
                                          rho_t=Fraction(0), gen_seed=3))
    assert no_targets.nodes_of_color("S") and not no_targets.nodes_of_color("T")
    assert enumerate_paths(no_targets, 6) == []
    assert enumerate_paths(no_targets, 6) == []  # cached
    assert calls == []
    with_targets, _ = generate(InstanceSpec("grid", params={"rows": 6, "cols": 8}, gen_seed=3))
    assert enumerate_paths(with_targets, 6) and calls


def test_capacities_are_not_consulted():
    g = build_graph("SRT", [(0, 1, 0, 0), (1, 2, 0, 0)], d=2)
    assert len(enumerate_paths(g, 2)) == 1


def test_matches_naive_enumeration_on_random_instances():
    for i in range(30):
        spec = InstanceSpec(
            "random_bounded", n=8 + (i % 8), d=4, m_ticks=3,
            gen_seed=700 + i, rho_s=Fraction(3, 10), rho_t=Fraction(3, 10),
        )
        g, _ = generate(spec)
        got = {path_signature(u) for u in enumerate_paths(g, 4)}
        assert got == naive_paths(g, 4)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(graphs())
def test_matches_naive_enumeration_on_arbitrary_graphs(g):
    """Sparse ids, parallel edges, S-T edges and isolated nodes, at every cap
    from 1 to 5."""
    for l in range(1, 6):
        assert {path_signature(u) for u in enumerate_paths(g, l)} == naive_paths(g, l), l


def test_paths_are_well_formed_and_unique():
    spec = InstanceSpec("random_bounded", n=20, gen_seed=3,
                        rho_s=Fraction(3, 10), rho_t=Fraction(3, 10))
    g, _ = generate(spec)
    color = {nd.id: nd.color for nd in g.nodes}
    paths = enumerate_paths(g, 5)
    seen = set()
    for u in paths:
        assert 1 <= u.length <= 5
        assert color[u.nodes[0]] == "S"
        assert color[u.nodes[-1]] == "T"
        assert len(set(u.nodes)) == len(u.nodes)
        for ref, a, b in zip(u.edges, u.nodes, u.nodes[1:]):
            e = g.edge(ref.edge_id)
            want = (e.a, e.b) if ref.orientation == "AB" else (e.b, e.a)
            assert want == (a, b)
        assert u.canonical_key not in seen
        seen.add(u.canonical_key)
    assert len(paths) <= len(g.nodes_of_color("S")) * g.degree_bound**5


def test_parallel_edges_make_distinct_paths():
    g = build_graph("ST", [(0, 1, 1, 1), (0, 1, 2, 2)], d=2)
    paths = enumerate_paths(g, 1)
    assert len(paths) == 2
    assert paths[0].canonical_key != paths[1].canonical_key
    assert path_key(paths[0], 1) != path_key(paths[1], 1)


def test_path_key_is_deterministic():
    g = line_graph("SRT")
    (u,) = enumerate_paths(g, 2)
    assert path_key(u, 42) == path_key(u, 42)
    assert path_key(u, 42) != path_key(u, 43)


@pytest.mark.parametrize("seed", [1.5, True, 1.0, "1", None])
def test_path_key_refuses_a_seed_that_is_no_plain_int(seed):
    """A float is refused by name rather than failing inside the hash, and
    ``True`` and ``1.0`` are not labelled as seed 1."""
    g = line_graph("SRT")
    (u,) = enumerate_paths(g, 2)
    path_key(u, 1)
    with pytest.raises(ValueError, match=f"bad field 'seed' in path_key: .* got {seed!r}"):
        path_key(u, seed)


@pytest.mark.parametrize("l", [2.0, True, 1.0, "2", 0])
def test_enumerate_paths_refuses_an_l_that_is_no_plain_int_before_the_cache(l):
    """2.0 and True hash and compare as the ints 2 and 1, so a cache read
    first would return the l=2 or l=1 list; l is checked before it."""
    g = line_graph("SRT")
    assert len(enumerate_paths(g, 2)) == 1 and enumerate_paths(g, 1) == []
    with pytest.raises(ValueError, match=f"bad field 'l' in enumerate_paths: .* got {l!r}"):
        enumerate_paths(g, l)


def test_path_key_stable_inside_neighborhood_view():
    g = line_graph("SRTRR")
    (u,) = enumerate_paths(g, 2)
    sub = induced_subgraph(g, ball_nodes(g, 0, 2))
    (u_local,) = enumerate_paths(sub, 2)
    assert u_local.canonical_key == u.canonical_key
    assert path_key(u_local, 9) == path_key(u, 9)


def test_key_order_refines_length_order():
    spec = InstanceSpec("random_bounded", n=18, gen_seed=8,
                        rho_s=Fraction(3, 10), rho_t=Fraction(3, 10))
    g, _ = generate(spec)
    paths = enumerate_paths(g, 5)
    keys = sorted(path_key(u, 77) for u in paths)
    lengths = [k.length for k in keys]
    assert lengths == sorted(lengths)


def listed_in_length_then_key_order(paths) -> bool:
    want = sorted(paths, key=lambda u: (u.length, u.canonical_key))
    return [u.canonical_key for u in paths] == [u.canonical_key for u in want]


def key_ordered(paths, seed: int) -> bool:
    got = [u.canonical_key for u in _key_order(paths, seed)]
    return got == [u.canonical_key for u in sorted(paths, key=lambda u: path_key(u, seed))]


def test_key_order_is_path_key_order():
    g, _ = generate(InstanceSpec("grid", params={"rows": 6, "cols": 8}, gen_seed=3))
    paths = enumerate_paths(g, 5)
    assert len(paths) > 100
    assert listed_in_length_then_key_order(paths)
    for seed in (0, 77, -3, 2**70):
        assert key_ordered(paths, seed)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(graphs(), st.integers(1, 4), st.integers(-2, 3))
def test_paths_are_listed_by_length_then_key_and_key_ordered_by_path_key(g, l, seed):
    """``enumerate_paths`` lists paths in (length, canonical key) order, the
    order ``_key_order`` needs of its input, and ``_key_order`` sorts them
    as ``path_key`` does, on graphs with parallel edges and sparse ids."""
    paths = enumerate_paths(g, l)
    assert listed_in_length_then_key_order(paths)
    assert listed_in_length_then_key_order(enumerate_paths(g, l))  # from the cache
    assert key_ordered(paths, seed)


def capped_depths_are_min_s_of_the_true_depths(g, l: int, seeds,
                                               caps=(1, 2, 3, 8)) -> Counter[int]:
    """Assert that a pass capped at s yields min(s, true depth) path by path
    and leaves min(s, entry) of the uncapped pass's table; returns, per cap
    s, how many capped depths read s over the seeds."""
    at_cap: Counter[int] = Counter()
    for seed in seeds:
        order = _key_order(enumerate_paths(g, l), seed)
        true_best: defaultdict[int, int] = defaultdict(int)
        true = list(_chain_depths(order, true_best))
        for s in caps:
            best: defaultdict[int, int] = defaultdict(int)
            capped = list(_chain_depths(order, best, s))
            assert capped == [min(s, d) for d in true], (seed, s)
            assert dict(best) == {arc: min(s, d) for arc, d in true_best.items()}, (seed, s)
            at_cap[s] += capped.count(s)
    return at_cap


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(graphs(), st.integers(1, 4), st.integers(0, 3))
def test_capped_depths_are_the_true_depths_capped_on_arbitrary_graphs(g, l, seed):
    capped_depths_are_min_s_of_the_true_depths(g, l, (seed,))


def test_capped_depths_are_the_true_depths_capped_on_the_corpus_and_the_grid():
    """The AC-5 corpus at its own l, and global-sweep's 30x40 grid at l=6,
    seeds 1-3, each at caps 1, 2, 3 and 8.  On the corpus some paths lie
    below each cap and some reach it; on the grid over 95 % of the paths
    reach cap 3, so the pass skips the writes of most of them."""
    at_cap: Counter[int] = Counter()
    total = 0
    for spec, l, _ in _locality_suite():
        g = generate(spec)[0]
        at_cap += capped_depths_are_min_s_of_the_true_depths(g, l, (1, 2, 3))
        total += 3 * len(enumerate_paths(g, l))
    assert at_cap[1] == total and 0 < at_cap[8] < at_cap[3] < at_cap[2] < total
    g, _ = generate(InstanceSpec("grid", params={"rows": 30, "cols": 40}, gen_seed=3))
    n = len(enumerate_paths(g, 6))
    assert capped_depths_are_min_s_of_the_true_depths(g, 6, (1, 2, 3))[3] > 0.95 * 3 * n


def test_hash_label_is_the_seed_keyed_blake2b_of_the_canonical_key():
    u = make_path([0, 1, 2], [0, 3])
    for seed in (0, 5, -1, 2**64 + 5):
        key = (seed % 2**64).to_bytes(8, "big")
        digest = hashlib.blake2b(u.canonical_key, digest_size=8, key=key).digest()
        assert path_key(u, seed) == (2, int.from_bytes(digest, "big"), b"0,0,1,1,2")
        assert type(path_key(u, seed)) is OrderKey


def test_order_key_tiebreak_is_lexicographic_last():
    assert OrderKey(1, 5, b"a") < OrderKey(1, 5, b"b")
    assert OrderKey(1, 5, b"z") < OrderKey(1, 6, b"a")
    assert OrderKey(1, 9, b"z") < OrderKey(2, 0, b"a")


def test_hash_labels_look_uniform():
    # 16 buckets over >= 10^4 paths; each bucket within 5 sigma of uniform.
    spec = InstanceSpec("grid", gen_seed=21, params={"rows": 9, "cols": 9},
                        rho_s=Fraction(3, 10), rho_t=Fraction(3, 10))
    g, _ = generate(spec)
    paths = enumerate_paths(g, 7)
    assert len(paths) >= 10_000
    buckets = [0] * 16
    for u in paths:
        buckets[path_key(u, 123).hash_label >> 60] += 1
    n = len(paths)
    mean = n / 16
    sigma = (n * (1 / 16) * (15 / 16)) ** 0.5
    for count in buckets:
        assert abs(count - mean) <= 5 * sigma


def test_intersects_examples():
    g = build_graph(
        "SRTSRT",
        [(0, 1, 1, 1), (1, 2, 1, 1), (3, 4, 1, 1), (4, 5, 1, 1), (1, 4, 1, 1)],
        d=3,
    )
    paths = {u.nodes: u for u in enumerate_paths(g, 3)}
    u = paths[(0, 1, 2)]
    v = paths[(3, 4, 5)]
    assert intersects(u, u)
    assert not intersects(u, v)  # shares no edge (edge-based, not node-based)
    cross = paths[(0, 1, 4, 5)]
    assert intersects(cross, v)


def test_opposite_traversals_intersect():
    # Both paths use undirected edge 1, in opposite directions.
    g = build_graph("SRST", [(0, 1, 1, 1), (1, 2, 1, 1), (1, 3, 1, 1)], d=3)
    paths = {u.nodes: u for u in enumerate_paths(g, 2)}
    left = paths[(0, 1, 3)]
    right = paths[(2, 1, 3)]
    shared = {r.edge_id for r in left.edges} & {r.edge_id for r in right.edges}
    assert shared == {2}
    assert intersects(left, right)


def test_chain_depths_disjoint_paths_all_one():
    spec = InstanceSpec("path_bundle", params={"bottlenecks": [1, 1, 1], "path_len": 2})
    g, _ = generate(spec)
    paths = enumerate_paths(g, 3)
    depths = chain_depth_all(paths, 5)
    assert all(depths[u.canonical_key] == 1 for u in paths)


def test_two_intersecting_paths_depths():
    g = build_graph("SRST", [(0, 1, 1, 1), (1, 2, 1, 1), (1, 3, 1, 1)], d=3)
    paths = enumerate_paths(g, 2)
    assert len(paths) == 2
    depths = chain_depth_all(paths, 0)
    by_key = sorted(paths, key=lambda u: path_key(u, 0))
    assert depths[by_key[0].canonical_key] == 1
    assert depths[by_key[1].canonical_key] == 2


def test_chain_depths_match_brute_force():
    cases = 0
    for i in range(40):
        spec = InstanceSpec(
            "random_bounded", n=8 + (i % 6), d=4, m_ticks=3,
            gen_seed=1300 + i, rho_s=Fraction(3, 10), rho_t=Fraction(3, 10),
        )
        g, _ = generate(spec)
        paths = enumerate_paths(g, 3)
        if not paths or len(paths) > 30:
            continue
        for seed in (1, 2, 3):
            assert chain_depth_all(paths, seed) == brute_chain_depths(paths, seed)
            cases += 1
    assert cases >= 45


def test_depth_recurrence_property():
    spec = InstanceSpec("random_bounded", n=24, gen_seed=77,
                        rho_s=Fraction(3, 10), rho_t=Fraction(3, 10))
    g, _ = generate(spec)
    paths = enumerate_paths(g, 4)
    depths = chain_depth_all(paths, 11)
    keys = {u.canonical_key: path_key(u, 11) for u in paths}
    for u in paths:
        for v in paths:
            if keys[v.canonical_key] < keys[u.canonical_key] and intersects(u, v):
                assert depths[u.canonical_key] >= 1 + depths[v.canonical_key]


def test_depth_in_subgraph_never_exceeds_global():
    spec = InstanceSpec("grid", gen_seed=31, params={"rows": 5, "cols": 8},
                        rho_s=Fraction(3, 10), rho_t=Fraction(3, 10))
    g, _ = generate(spec)
    paths = enumerate_paths(g, 3)
    depths = chain_depth_all(paths, 4)
    sub = induced_subgraph(g, ball_nodes(g, 0, 6))
    local_paths = enumerate_paths(sub, 3)
    local_depths = chain_depth_all(local_paths, 4)
    global_by_key = {u.canonical_key: u for u in paths}
    for u in local_paths:
        assert u.canonical_key in global_by_key
        assert local_depths[u.canonical_key] <= depths[u.canonical_key]


def test_duplicate_paths_rejected():
    g = line_graph("SRT")
    (u,) = enumerate_paths(g, 2)
    with pytest.raises(ValueError, match="duplicate path"):
        chain_depth_all([u, u], 0)


def test_arcs_round_trip_to_directed_edge_refs():
    # Arc 2*e reads edge e AB, arc 2*e + 1 reads it BA; negative ids too.
    u = make_path([4, 7, 2, 9], [10, 7, -3])
    assert u.arcs == (10, 7, -3)
    assert u.edges == (DirectedEdgeRef(5, "AB"), DirectedEdgeRef(3, "BA"),
                       DirectedEdgeRef(-2, "BA"))
    assert u.edge_ids == frozenset({5, 3, -2})
    assert u.length == 3
    assert u.canonical_key == b"4,5,7,3,2,-2,9"
    assert not hasattr(u, "__dict__")
    g = build_graph("SRRT", [(0, 1, 1, 1), (2, 1, 1, 1), (2, 3, 1, 1)])
    (path,) = enumerate_paths(g, 3)
    assert path.edges == (DirectedEdgeRef(0, "AB"), DirectedEdgeRef(1, "BA"),
                          DirectedEdgeRef(2, "AB"))


def test_make_path_shape_check():
    with pytest.raises(ValueError, match="one more node"):
        make_path([0, 1], [])


def test_fresh_enumeration_leaves_no_reference_cycle():
    g, _ = generate(InstanceSpec("random_bounded", n=2000, gen_seed=5))
    gc.disable()
    try:
        gc.collect()
        assert enumerate_paths(g, 4)
        assert gc.collect() == 0
    finally:
        gc.enable()
