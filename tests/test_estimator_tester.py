from __future__ import annotations

import math
import sys
from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import build_graph, line_graph
from localflow.estimator_tester import (
    TesterConfig,
    assemble_fbar2,
    fbar2_edge,
    fbar2_value,
    run_tester,
    tester_estimates,
)
from localflow.exact_oracle import max_flow
from localflow.graph_core import (
    DirectedEdgeRef,
    ball_nodes,
    flow_value,
    out_edges,
    validate_flow,
)
from localflow.harness import InstanceSpec, generate
from localflow.local_flow import RunConfig, local_f2_edge


def spec_for(i: int, n: int = 20, **kw) -> InstanceSpec:
    merged = dict(n=n, d=4, m_ticks=4, rho_s=0.25, rho_t=0.25,
                  params={"rounds": 4})
    merged.update(kw)
    return InstanceSpec("random_bounded", gen_seed=3000 + i, **merged)


def test_single_seed_average_equals_local_run():
    g, _ = generate(spec_for(1))
    cfg = TesterConfig(l=3, s=2, seeds=(17,))
    for e in list(g.edges)[:6]:
        ref = DirectedEdgeRef(e.id, "AB")
        got = fbar2_edge(g, ref, cfg)
        assert got.m == 1
        assert got.value == local_f2_edge(g, ref, RunConfig(l=3, s=2, seed=17))


def test_zero_capacity_edge_stays_zero_for_any_seed_count():
    g = build_graph("SRT", [(0, 1, 0, 0), (1, 2, 3, 3)], d=2)
    cfg = TesterConfig(l=2, s=2, seeds=(1, 2, 3, 4, 5))
    assert fbar2_edge(g, DirectedEdgeRef(0, "AB"), cfg).value == 0


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
        assert fbar.on(ref) == fbar2_edge(g, ref, cfg).value


def test_fbar2_edge_depends_only_on_its_ball():
    g, _ = generate(spec_for(25, n=40, params={"rounds": 2}))
    cfg = TesterConfig(l=3, s=2, seeds=(3, 4))
    from localflow.graph_core import induced_subgraph

    for e in list(g.edges)[:8]:
        ref = DirectedEdgeRef(e.id, "AB")
        ball = ball_nodes(g, ref, cfg.s * cfg.l)
        sub = induced_subgraph(g, set(ball))
        assert fbar2_edge(g, ref, cfg).value == fbar2_edge(sub, ref, cfg).value


def test_fbar2_value_basics():
    g, _ = generate(spec_for(40, n=18))
    from localflow.local_flow import run_a2

    f2, _ = run_a2(g, RunConfig(l=3, s=2, seed=11))
    assert fbar2_value(g, TesterConfig(l=3, s=2, seeds=(11,))) == flow_value(g, f2)

    path = line_graph("SRT", cap=3)
    for m in (1, 2, 5):
        cfg = TesterConfig(l=2, s=2, seeds=tuple(range(m)))
        assert fbar2_value(path, cfg) == 3


def test_fbar2_value_equals_assembled_flow_value():
    for i in range(6):
        g, _ = generate(spec_for(50 + i, n=22))
        cfg = TesterConfig(l=3, s=2, seeds=(7, 8, 9))
        assert fbar2_value(g, cfg) == flow_value(g, assemble_fbar2(g, cfg))


def test_average_value_never_exceeds_max_flow():
    for i in range(6):
        g, _ = generate(spec_for(60 + i, n=22))
        cfg = TesterConfig(l=3, s=2, seeds=(1, 2, 3, 4))
        assert fbar2_value(g, cfg) <= max_flow(g).value


def test_tester_with_no_sources_is_zero():
    g = line_graph("RRT")
    cfg = TesterConfig(l=2, s=2, seeds=(1,), k=50)
    assert run_tester(g, cfg).estimate == 0


def test_exhaustive_tester_telescopes_exactly():
    for i in range(6):
        g, _ = generate(spec_for(70 + i, n=20))
        cfg = TesterConfig(l=3, s=2, seeds=(1, 2, 3))
        assert run_tester(g, cfg, exhaustive=True).estimate == fbar2_value(g, cfg) / g.n


def test_every_out_edge_ball_fits_in_the_vertex_ball():
    g, _ = generate(spec_for(80, n=30))
    cfg = TesterConfig(l=3, s=2, seeds=(1,))
    r = cfg.resolve_r()
    assert r == 7
    for v in g.nodes_of_color("S"):
        big = ball_nodes(g, v, r)
        for ref in out_edges(g, v):
            assert ball_nodes(g, ref, cfg.s * cfg.l) <= big


def test_tester_report_shape_and_determinism():
    g, _ = generate(spec_for(90, n=24))
    cfg = TesterConfig(l=3, s=2, seeds=(1, 2), k=40, sample_seed=5)
    rep1 = run_tester(g, cfg)
    rep2 = run_tester(g, cfg)
    assert rep1 == rep2
    assert len(rep1.per_sample) == 40
    assert rep1.estimate == sum(rep1.per_sample, Fraction(0)) / 40
    [only] = tester_estimates(g, cfg, [5])
    assert only == rep1.estimate


def test_tester_threads_do_not_change_results():
    g, _ = generate(spec_for(95, n=24))
    cfg = TesterConfig(l=3, s=2, seeds=(1, 2), k=30, sample_seed=7)
    assert run_tester(g, cfg, threads=1) == run_tester(g, cfg, threads=4)


def test_variance_scales_like_one_over_k():
    g, _ = generate(spec_for(99, n=40, m_ticks=5, rho_s=0.3, rho_t=0.3))
    base = TesterConfig(l=3, s=2, seeds=(1, 2))
    sample_seeds = list(range(24))
    variances = []
    ks = (10, 100, 1000)
    for k in ks:
        cfg = TesterConfig(l=base.l, s=base.s, seeds=base.seeds, k=k)
        ests = [float(x) for x in tester_estimates(g, cfg, sample_seeds)]
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
    with pytest.raises(ValueError, match="r must be >= s\\*l \\+ 1"):
        TesterConfig(l=3, s=2, seeds=(1,), r=6).check()
    with pytest.raises(ValueError, match="at least one labeling seed"):
        TesterConfig(l=3, s=2, seeds=()).check()
    with pytest.raises(ValueError, match="k must be >= 1"):
        TesterConfig(l=3, s=2, seeds=(1,), k=0).check()
    # r exactly s*l + 1 and above are fine
    TesterConfig(l=3, s=2, seeds=(1,), r=7).check()
    TesterConfig(l=3, s=2, seeds=(1,), r=9).check()


def test_tester_threads_share_one_evaluator_safely():
    # Eight threads fill one evaluator's tables at once; switching threads
    # every microsecond makes a table read before it is complete likely.
    g, _ = generate(InstanceSpec("random_bounded", n=600, gen_seed=3101))
    cfg = TesterConfig(l=4, s=3, seeds=(1, 2), k=400)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for sample_seed in range(60):
            c = replace(cfg, sample_seed=sample_seed)
            assert run_tester(g, c, threads=8) == run_tester(g, c, threads=1)
    finally:
        sys.setswitchinterval(old)
