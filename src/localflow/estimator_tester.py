"""The neighborhood-sampling tester of (max flow)/n.

The skipping run's output at an edge depends only on the seed and a bounded
ball, so averaging it over a fixed list of seeds yields a deterministic,
locally computable flow.  Dividing its value by n gives the quantity
``run_tester``, the one sampling entry point, estimates: it samples k uniform
vertices (or takes all of them) and sums, for each sampled source, the
averaged values on its out-edges.  Several sampling seeds are several calls
with ``replace(cfg, sample_seed=...)``.  Each value comes from one
``LocalEvaluator`` query tree on the whole graph per call, shared by every
sampled source and seed; a tree reads nothing beyond s*(l-1) hops of its
edge, so the computation stays inside the ball of radius ``TesterConfig.r``
around the vertex: one more than a local query's ball radius, so that the
ball of every out-edge fits inside.

All arithmetic here is exact rational: with the full vertex set instead of
samples, the tester equals the averaged flow value over n bit for bit.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .graph_core import ColoredGraph, _int_field, out_edges
from .local_flow import LocalEvaluator, _ball_radius
from .parallel import parallel_map


@dataclass(frozen=True)
class TesterConfig:
    """Sampling tester parameters, checked when built: l, s and k are
    integers >= 1, sample_seed is an integer, and seeds is a non-empty tuple
    or list of integers; floats, bools and numeric strings are refused."""

    l: int
    s: int
    seeds: tuple[int, ...]
    k: int = 1000
    sample_seed: int = 0

    def __post_init__(self) -> None:
        fields = vars(self)
        for key in ("l", "s", "k"):
            _int_field(fields, key, "tester config", minimum=1)
        _int_field(fields, "sample_seed", "tester config")
        seeds = self.seeds
        if not (isinstance(seeds, (tuple, list)) and seeds and all(type(x) is int for x in seeds)):
            raise ValueError("bad field 'seeds' in tester config: "
                             f"expected a non-empty list of integers, got {seeds!r}")

    @property
    def m(self) -> int:
        return len(self.seeds)

    @property
    def r(self) -> int:
        """Radius of the ball around a sampled vertex that holds the ball of
        each of its out-edges, which has the vertex as an endpoint."""
        return _ball_radius(self.l, self.s) + 1


@dataclass(frozen=True)
class TesterReport:
    """Sample average of the per-vertex source summands, all exact."""

    estimate: Fraction
    sampled_nodes: tuple[int, ...]
    per_sample: tuple[Fraction, ...]
    exhaustive: bool


def source_ball_summand(g: ColoredGraph, v: int, cfg: TesterConfig,
                        evaluator: LocalEvaluator) -> Fraction:
    """I(v in S) * sum over out(v) of the averaged local value, from h_r(v) data."""
    if g.node(v).color != "S":
        return Fraction(0)
    total = 0
    for ref in out_edges(g, v):
        total += sum(evaluator.f2_on(ref, seed) for seed in cfg.seeds)
    return Fraction(total, cfg.m)


def run_tester(g: ColoredGraph, cfg: TesterConfig, *, exhaustive: bool = False) -> TesterReport:
    """Sample k vertices uniformly with replacement (or take all of V) and
    average the per-vertex source summands."""
    ids = g._sorted_node_ids
    if not ids:
        raise ValueError("graph has no nodes")
    if exhaustive:
        chosen = list(ids)
    else:
        rng = random.Random(cfg.sample_seed)
        chosen = [ids[rng.randrange(len(ids))] for _ in range(cfg.k)]

    evaluator = LocalEvaluator(g, cfg.l, cfg.s)
    multiplicity = Counter(chosen)
    distinct_sources = sorted(v for v in multiplicity if g.node(v).color == "S")
    summand_list = parallel_map(lambda v: source_ball_summand(g, v, cfg, evaluator),
                                distinct_sources)
    summand = dict(zip(distinct_sources, summand_list))

    per_sample = tuple(summand.get(v, Fraction(0)) for v in chosen)
    # Each distinct source once, times its multiplicity: the same sum as
    # over per_sample, whose other entries are 0.
    total = sum((summand[v] * multiplicity[v] for v in distinct_sources), Fraction(0))
    return TesterReport(
        estimate=total / len(chosen),
        sampled_nodes=tuple(chosen),
        per_sample=per_sample,
        exhaustive=exhaustive,
    )
