"""Seed-averaged flow estimates and the neighborhood-sampling parameter tester.

The skipping run's output at an edge depends only on the seed and a bounded
ball, so averaging it over a fixed list of seeds yields a deterministic,
locally computable flow.  Dividing its value by n gives the quantity the
tester estimates by sampling k uniform vertices and summing, for each sampled
source, the averaged values on its out-edges.  Each value comes from one
``LocalEvaluator`` query tree on the whole graph per call, shared by every
sampled source and seed; a tree reads nothing beyond s*(l-1) hops of its
edge, so the computation stays inside a radius-r ball around the vertex
(r >= s*l + 1 so that every out-edge's ball fits inside).

All arithmetic here is exact rational: with the full vertex set instead of
samples, the tester equals the averaged flow value over n bit for bit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .graph_core import (
    ColoredGraph,
    DirectedEdgeRef,
    Flow,
    Ticks,
    flow_value,
    out_edges,
)
from .local_flow import LocalEvaluator, RunConfig, run_a2
from .parallel import parallel_map


@dataclass(frozen=True)
class AveragedFlowValue:
    """Exact mean of m per-seed values at one edge: sum_ticks / m."""

    sum_ticks: int
    m: int

    @property
    def value(self) -> Fraction:
        return Fraction(self.sum_ticks, self.m)


@dataclass(frozen=True)
class TesterConfig:
    """Sampling tester parameters; r defaults to s*l + 1 and may not go lower."""

    l: int
    s: int
    seeds: tuple[int, ...]
    k: int = 1000
    r: int | None = None
    sample_seed: int = 0

    @property
    def m(self) -> int:
        return len(self.seeds)

    def resolve_r(self) -> int:
        floor = self.s * self.l + 1
        if self.r is None:
            return floor
        if self.r < floor:
            raise ValueError(f"r must be >= s*l + 1 = {floor}, got {self.r}")
        return self.r

    def check(self) -> None:
        if self.l < 1:
            raise ValueError(f"l must be >= 1, got {self.l}")
        if self.s < 1:
            raise ValueError(f"s must be >= 1, got {self.s}")
        if self.m < 1:
            raise ValueError("at least one labeling seed is required")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        self.resolve_r()


def fbar2_edge(g: ColoredGraph, e: DirectedEdgeRef, cfg: TesterConfig) -> AveragedFlowValue:
    """Mean over the seed list of the local run value at e; exact rational."""
    cfg.check()
    g.edge(e.edge_id)
    ev = LocalEvaluator(g, cfg.l, cfg.s)
    total = sum(ev.f2_on(e, seed) for seed in cfg.seeds)
    return AveragedFlowValue(sum_ticks=total, m=cfg.m)


def fbar2_value(g: ColoredGraph, cfg: TesterConfig) -> Fraction:
    """Mean over the seed list of the global skipping run's flow value."""
    cfg.check()
    total = 0
    for seed in cfg.seeds:
        f2, _ = run_a2(g, RunConfig(l=cfg.l, s=cfg.s, seed=seed))
        total += int(flow_value(g, f2))
    return Fraction(total, cfg.m)


def assemble_fbar2(g: ColoredGraph, cfg: TesterConfig) -> Flow:
    """The averaged flow itself, edge-wise, as an exact fractional-tick Flow.

    Assembled from the m global runs; by locality this matches averaging the
    per-edge local values, and as a convex combination of valid flows it is
    itself valid.
    """
    cfg.check()
    sums: dict[int, int] = {}
    for seed in cfg.seeds:
        f2, _ = run_a2(g, RunConfig(l=cfg.l, s=cfg.s, seed=seed))
        for eid, v in f2.values.items():
            sums[eid] = sums.get(eid, 0) + int(v)
    values: Mapping[int, Ticks] = {
        eid: Fraction(total, cfg.m) for eid, total in sums.items() if total != 0
    }
    return Flow(values)


@dataclass(frozen=True)
class TesterReport:
    """Sample average of the per-vertex source summands, all exact."""

    estimate: Fraction
    sampled_nodes: tuple[int, ...]
    per_sample: tuple[Fraction, ...]
    exhaustive: bool


def source_ball_summand(g: ColoredGraph, v: int, cfg: TesterConfig,
                        evaluator: LocalEvaluator | None = None) -> Fraction:
    """I(v in S) * sum over out(v) of the averaged local value, from h_r(v) data."""
    if g.node(v).color != "S":
        return Fraction(0)
    ev = evaluator if evaluator is not None else LocalEvaluator(g, cfg.l, cfg.s)
    total = 0
    for ref in out_edges(g, v):
        total += sum(ev.f2_on(ref, seed) for seed in cfg.seeds)
    return Fraction(total, cfg.m)


def run_tester(
    g: ColoredGraph, cfg: TesterConfig, *, exhaustive: bool = False, threads: int = 1
) -> TesterReport:
    """Sample k vertices uniformly with replacement (or take all of V) and
    average the per-vertex source summands."""
    cfg.check()
    cfg.resolve_r()  # every out-edge ball of a sampled vertex fits in h_r(v)
    ids = sorted(nd.id for nd in g.nodes)
    if not ids:
        raise ValueError("graph has no nodes")
    if exhaustive:
        chosen = list(ids)
    else:
        rng = random.Random(cfg.sample_seed)
        chosen = [ids[rng.randrange(len(ids))] for _ in range(cfg.k)]

    evaluator = LocalEvaluator(g, cfg.l, cfg.s)
    distinct_sources = sorted({v for v in chosen if g.node(v).color == "S"})
    summand_list = parallel_map(
        lambda v: source_ball_summand(g, v, cfg, evaluator), distinct_sources, threads
    )
    summand = dict(zip(distinct_sources, summand_list))

    per_sample = tuple(summand.get(v, Fraction(0)) for v in chosen)
    estimate = sum(per_sample, Fraction(0)) / len(chosen)
    return TesterReport(
        estimate=estimate,
        sampled_nodes=tuple(chosen),
        per_sample=per_sample,
        exhaustive=exhaustive,
    )


def tester_estimates(
    g: ColoredGraph, cfg: TesterConfig, sample_seeds: Sequence[int], *, threads: int = 1
) -> list[Fraction]:
    """One estimate per sampling seed, sharing the per-vertex local work.

    Equivalent to run_tester with each seed in turn; the per-source summands
    are computed once because they do not depend on the sampling seed.
    """
    cfg.check()
    ids = sorted(nd.id for nd in g.nodes)
    if not ids:
        raise ValueError("graph has no nodes")
    draws: list[list[int]] = []
    needed: set[int] = set()
    for sample_seed in sample_seeds:
        rng = random.Random(sample_seed)
        chosen = [ids[rng.randrange(len(ids))] for _ in range(cfg.k)]
        draws.append(chosen)
        needed.update(v for v in chosen if g.node(v).color == "S")

    evaluator = LocalEvaluator(g, cfg.l, cfg.s)
    sources = sorted(needed)
    values = parallel_map(
        lambda v: source_ball_summand(g, v, cfg, evaluator), sources, threads
    )
    summand = dict(zip(sources, values))

    out = []
    for chosen in draws:
        total = sum((summand.get(v, Fraction(0)) for v in chosen), Fraction(0))
        out.append(total / len(chosen))
    return out
