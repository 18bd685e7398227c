from __future__ import annotations

import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import build_graph, line_graph
from localflow.estimator_tester import TesterConfig, run_tester, source_ball_summand
from localflow.exact_oracle import max_flow
from localflow.graph_core import (
    ColoredGraph,
    DirectedEdgeRef,
    ball_nodes,
    flow_value,
    induced_subgraph,
    validate_flow,
)
from localflow.harness import InstanceSpec, generate
from localflow.local_flow import LocalEvaluator, RunConfig, _ball_radius, local_f2_edge, run_a2
from localflow.path_engine import _PathIndex
from oracles import assemble_fbar2, fbar2_value, out_edge_summand, out_edges
from test_acceptance import ac9_specs


def spec_for(i: int, n: int = 20, **kw) -> InstanceSpec:
    merged = dict(n=n, d=4, m_ticks=4, rho_s=Fraction(1, 4), rho_t=Fraction(1, 4),
                  params={"rounds": 4})
    merged.update(kw)
    return InstanceSpec("random_bounded", gen_seed=3000 + i, **merged)


def local_average(g, ref: DirectedEdgeRef, cfg: TesterConfig) -> Fraction:
    """Mean over the seed list of the local A2 value at ref, from the query tree on g."""
    total = sum(local_f2_edge(g, ref, RunConfig(l=cfg.l, s=cfg.s, seed=seed))
                for seed in cfg.seeds)
    return Fraction(total, cfg.m)


def test_single_seed_average_equals_local_run():
    g, _ = generate(spec_for(1))
    cfg = TesterConfig(l=3, s=2, seeds=(17,))
    fbar = assemble_fbar2(g, cfg)
    for e in list(g.edges)[:6]:
        ref = DirectedEdgeRef(e.id, "AB")
        assert fbar.on(ref) == local_f2_edge(g, ref, RunConfig(l=3, s=2, seed=17))


def test_zero_capacity_edge_stays_zero_for_any_seed_count():
    g = build_graph("SRT", [(0, 1, 0, 0), (1, 2, 3, 3)], d=2)
    cfg = TesterConfig(l=2, s=2, seeds=(1, 2, 3, 4, 5))
    assert local_average(g, DirectedEdgeRef(0, "AB"), cfg) == 0
    assert assemble_fbar2(g, cfg).on_edge(0) == 0


def test_assembled_average_is_a_valid_flow():
    for i in range(8):
        g, _ = generate(spec_for(10 + i, n=24))
        cfg = TesterConfig(l=3, s=2, seeds=(1, 2, 3))
        fbar = assemble_fbar2(g, cfg)
        assert validate_flow(g, fbar).ok


def test_assembled_average_matches_edgewise_local_average():
    g, _ = generate(spec_for(30, n=18))
    cfg = TesterConfig(l=3, s=2, seeds=(4, 5, 6))
    fbar = assemble_fbar2(g, cfg)
    for e in g.edges:
        ref = DirectedEdgeRef(e.id, "AB")
        assert fbar.on(ref) == local_average(g, ref, cfg)


def test_fbar2_edge_depends_only_on_its_ball():
    g, _ = generate(spec_for(25, n=40, params={"rounds": 2}))
    cfg = TesterConfig(l=3, s=2, seeds=(3, 4))
    fbar = assemble_fbar2(g, cfg)
    for e in list(g.edges)[:8]:
        ref = DirectedEdgeRef(e.id, "AB")
        sub = induced_subgraph(g, ball_nodes(g, ref, _ball_radius(cfg.l, cfg.s)))
        assert local_average(sub, ref, cfg) == fbar.on(ref)


def test_fbar2_value_basics():
    g, _ = generate(spec_for(40, n=18))
    f2, _ = run_a2(g, RunConfig(l=3, s=2, seed=11))
    assert fbar2_value(g, TesterConfig(l=3, s=2, seeds=(11,))) == flow_value(g, f2)

    path = line_graph("SRT", cap=3)
    for m in (1, 2, 5):
        cfg = TesterConfig(l=2, s=2, seeds=tuple(range(m)))
        assert fbar2_value(path, cfg) == 3


def test_fbar2_value_equals_assembled_flow_value():
    # The averaged flow's value is the mean of the runs' values.
    for i in range(6):
        g, _ = generate(spec_for(50 + i, n=22))
        cfg = TesterConfig(l=3, s=2, seeds=(7, 8, 9))
        values = [flow_value(g, run_a2(g, RunConfig(l=3, s=2, seed=seed))[0])
                  for seed in cfg.seeds]
        assert fbar2_value(g, cfg) == Fraction(sum(values), cfg.m)


def test_average_value_never_exceeds_max_flow():
    for i in range(6):
        g, _ = generate(spec_for(60 + i, n=22))
        cfg = TesterConfig(l=3, s=2, seeds=(1, 2, 3, 4))
        assert fbar2_value(g, cfg) <= max_flow(g).value


def test_tester_with_no_sources_is_zero():
    g = line_graph("RRT")
    cfg = TesterConfig(l=2, s=2, seeds=(1,), k=50)
    assert run_tester(g, cfg).estimate == 0


def test_tester_refuses_a_graph_with_no_nodes():
    g = ColoredGraph((), (), 2, 5, Fraction(1))
    with pytest.raises(ValueError, match="graph has no nodes"):
        run_tester(g, TesterConfig(l=2, s=2, seeds=(1,)), exhaustive=True)


def test_source_summand_is_zero_at_r_and_t_nodes_without_a_query():
    g = line_graph("SRT", cap=3)
    cfg = TesterConfig(l=2, s=2, seeds=(1, 2))

    class NoQuery(LocalEvaluator):
        def outflow(self, v):
            raise AssertionError(f"outflow asked at node {v}")

    silent = {seed: NoQuery(_PathIndex(g, 2), 2, seed) for seed in cfg.seeds}
    assert [source_ball_summand(g, v, cfg, silent) for v in (1, 2)] == [0, 0]
    evaluators = {seed: LocalEvaluator(_PathIndex(g, 2), 2, seed) for seed in cfg.seeds}
    assert source_ball_summand(g, 0, cfg, evaluators) == 6  # 3 per seed


def test_exhaustive_tester_telescopes_exactly():
    for i in range(6):
        g, _ = generate(spec_for(70 + i, n=20))
        cfg = TesterConfig(l=3, s=2, seeds=(1, 2, 3))
        assert run_tester(g, cfg, exhaustive=True).estimate == fbar2_value(g, cfg) / g.n


def test_a_seed_listed_twice_counts_twice_on_one_path_index(monkeypatch):
    """``seeds=(1, 2, 1)`` weighs seed 1 twice, as m = 3 does, and every
    evaluator a call builds shares one path index."""
    made: list[LocalEvaluator] = []
    real_init = LocalEvaluator.__init__

    def counting(self, *args, **kw):
        made.append(self)
        real_init(self, *args, **kw)

    differ = 0
    for i in range(6):
        g, _ = generate(spec_for(70 + i, n=20))
        cfg = TesterConfig(l=3, s=2, seeds=(1, 2, 1))
        monkeypatch.setattr(LocalEvaluator, "__init__", counting)
        got = run_tester(g, cfg, exhaustive=True).estimate
        monkeypatch.undo()
        assert {ev.seed for ev in made} == {1, 2}
        assert all(ev.index is made[0].index for ev in made)
        del made[:]
        assert got == fbar2_value(g, cfg) / g.n
        differ += got != run_tester(g, replace(cfg, seeds=(1, 2)), exhaustive=True).estimate
    assert differ  # the repeat changes the estimate somewhere, so the test can fail


def test_every_out_edge_ball_fits_in_the_vertex_ball():
    g, _ = generate(spec_for(80, n=30))
    cfg = TesterConfig(l=3, s=2, seeds=(1,))
    r = cfg.r
    assert r == _ball_radius(3, 2) + 1 == 5
    for v in g.nodes_of_color("S"):
        big = ball_nodes(g, v, r)
        for ref in out_edges(g, v):
            assert ball_nodes(g, ref, _ball_radius(cfg.l, cfg.s)) <= big


def outflow_reads(ev: LocalEvaluator, v: int) -> set[int]:
    """The nodes ``ev.outflow(v)``, already asked, read: those of each path
    that starts or ends at v, and of that path's depth read set at cap s."""
    s = ev.s
    reads: set[int] = set()
    for arc in ev.index._adj[v][1::2]:
        for _, u, _ in ev._ordered(arc >> 1):
            if v in (u.nodes[0], u.nodes[-1]):
                reads.update(u.nodes, ev.reads[s][u.canonical_key])
    return reads


def test_an_outflow_reads_only_inside_the_tester_radius():
    """``TesterConfig.r`` as a claim: on AC-5's instance and CI's 6x8 grid,
    at three (l, s), under seeds 1-3, everything each S node's outflow read
    lies in the node's ball of radius r.  The farthest read, in hops from
    the node, is well inside r at each (l, s) and grows with it, so the
    reads are not confined to the node's neighbours."""
    ac5 = generate(InstanceSpec("random_bounded", n=300, gen_seed=8026, params={"rounds": 2}))[0]
    grid = generate(InstanceSpec("grid", params={"rows": 6, "cols": 8}, gen_seed=3))[0]
    for g, farthest in ((ac5, [3, 4, 7]), (grid, [4, 5, 7])):
        hops = []
        for l, s in ((3, 2), (4, 2), (6, 3)):
            cfg = TesterConfig(l=l, s=s, seeds=(1, 2, 3))
            index = _PathIndex(g, l)
            most = 0
            for seed in cfg.seeds:
                ev = LocalEvaluator(index, s, seed)
                for v in g.nodes_of_color("S"):
                    ev.outflow(v)
                    reads = outflow_reads(ev, v)
                    assert reads <= ball_nodes(g, v, cfg.r), (v, l, s, seed)
                    most = max(most, min(r for r in range(cfg.r + 1)
                                         if reads <= ball_nodes(g, v, r)))
            hops.append(most)
        assert hops == farthest


def test_tester_report_shape_and_determinism():
    g, _ = generate(spec_for(90, n=24))
    cfg = TesterConfig(l=3, s=2, seeds=(1, 2), k=40, sample_seed=5)
    rep1 = run_tester(g, cfg)
    rep2 = run_tester(g, cfg)
    assert rep1 == rep2
    assert len(rep1.per_sample) == 40
    assert rep1.estimate == sum(rep1.per_sample, Fraction(0)) / 40
    assert run_tester(g, replace(cfg, sample_seed=6)).sampled_nodes != rep1.sampled_nodes


def test_tester_samples_sorted_ids_and_weighs_each_source_by_its_multiplicity():
    g, _ = generate(spec_for(92, n=24))
    g = ColoredGraph(tuple(reversed(g.nodes)), g.edges, g.degree_bound,
                     g.capacity_bound_ticks, g.quantum)
    cfg = TesterConfig(l=3, s=2, seeds=(1, 2), k=200, sample_seed=3)
    rep = run_tester(g, cfg)
    ids = sorted(nd.id for nd in g.nodes)
    rng = random.Random(3)
    assert rep.sampled_nodes == tuple(ids[rng.randrange(len(ids))] for _ in range(200))
    assert rep.estimate == sum(rep.per_sample, Fraction(0)) / 200
    repeated = [v for v in set(rep.sampled_nodes)
                if g.node(v).color == "S" and rep.sampled_nodes.count(v) > 1]
    assert repeated and any(rep.per_sample[rep.sampled_nodes.index(v)] for v in repeated)
    ids_once = g._sorted_node_ids  # sorted once per graph, not once per call
    assert run_tester(g, replace(cfg, sample_seed=4)).sampled_nodes
    assert g._sorted_node_ids is ids_once and list(ids_once) == ids


def test_tester_summands_equal_the_out_edge_reference_without_an_edge_query(monkeypatch):
    """On AC-9's corpus, sampled and exhaustive, every summand is the
    out-edge reference's and the estimate is their mean; the tester reads
    outflows and makes no ``f2_on`` call."""
    edge_queries = []
    f2_on = LocalEvaluator.f2_on

    def counting(self, *args, **kwargs):
        edge_queries.append(args)
        return f2_on(self, *args, **kwargs)

    nonzero = 0
    for i, spec in enumerate(ac9_specs()):
        g, _ = generate(spec)
        cfg = TesterConfig(l=3, s=2, seeds=(1, 2, 3), k=60, sample_seed=i)
        reference = {seed: LocalEvaluator(_PathIndex(g, cfg.l), cfg.s, seed) for seed in cfg.seeds}
        for exhaustive in (False, True):
            monkeypatch.setattr(LocalEvaluator, "f2_on", counting)
            rep = run_tester(g, cfg, exhaustive=exhaustive)
            monkeypatch.setattr(LocalEvaluator, "f2_on", f2_on)
            assert not edge_queries
            want = tuple(out_edge_summand(g, v, cfg, reference) for v in rep.sampled_nodes)
            assert rep.per_sample == want
            assert rep.estimate == sum(want, Fraction(0)) / len(want)
            nonzero += rep.estimate != 0
    assert nonzero == 38  # all but those of AC-9's first instance, which carries no flow


def test_tester_reruns_are_equal():
    g, _ = generate(spec_for(95, n=24))
    cfg = TesterConfig(l=3, s=2, seeds=(1, 2), k=30, sample_seed=7)
    assert run_tester(g, cfg) == run_tester(g, cfg)


def test_variance_scales_like_one_over_k():
    g, _ = generate(spec_for(99, n=40, m_ticks=5, rho_s=Fraction(3, 10), rho_t=Fraction(3, 10)))
    base = TesterConfig(l=3, s=2, seeds=(1, 2))
    sample_seeds = list(range(24))
    variances = []
    ks = (10, 100, 1000)
    for k in ks:
        cfg = TesterConfig(l=base.l, s=base.s, seeds=base.seeds, k=k)
        ests = [float(run_tester(g, replace(cfg, sample_seed=seed)).estimate)
                for seed in sample_seeds]
        mean = sum(ests) / len(ests)
        variances.append(sum((x - mean) ** 2 for x in ests) / (len(ests) - 1))
    assert all(v > 0 for v in variances)
    xs = [math.log(k) for k in ks]
    ys = [math.log(v) for v in variances]
    xbar = sum(xs) / 3
    ybar = sum(ys) / 3
    slope = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / sum(
        (x - xbar) ** 2 for x in xs
    )
    assert -2.0 <= slope <= -0.5


def test_config_validation():
    with pytest.raises(ValueError, match="bad field 'seeds' in tester config: expected a non-emp"):
        TesterConfig(l=3, s=2, seeds=())
    with pytest.raises(ValueError, match="bad field 'k' in tester config: expected an integer >= 1,"
                                         " got 0"):
        TesterConfig(l=3, s=2, seeds=(1,), k=0)
    with pytest.raises(ValueError, match="bad field 'sample_seed' in tester config"):
        replace(TesterConfig(l=3, s=2, seeds=(1,)), sample_seed=1.5)


VALID_CONFIGS = {
    RunConfig: {"l": 6, "s": 3, "seed": 0},
    TesterConfig: {"l": 3, "s": 2, "seeds": (1, 2), "k": 10, "sample_seed": 0},
}


def _bad_config_fields():
    """(config class, field, bad value): a float, a bool and a numeric string
    for every field, 0 where the field must be >= 1, and for seeds the same
    as list items, an empty list and a bare integer."""
    for cls, valid in VALID_CONFIGS.items():
        for key in valid:
            if key == "seeds":
                bad_values = [(1.5,), (1, True), ("1",), (), 1]
            else:
                bad_values = [2.5, 6.0, True, "6"] + ([0] if key in ("l", "s", "k") else [])
            for bad in bad_values:
                yield pytest.param(cls, key, bad, id=f"{cls.__name__}-{key}-{bad!r}")


@pytest.mark.parametrize("cls, key, bad", list(_bad_config_fields()))
def test_config_refuses_a_bad_field_when_built(cls, key, bad):
    with pytest.raises(ValueError, match=f"bad field '{key}' in "):
        cls(**dict(VALID_CONFIGS[cls], **{key: bad}))

