"""The neighborhood-sampling tester of (max flow)/n.

The skipping run's output at an edge depends only on the seed and a bounded
ball, so averaging it over a fixed list of seeds yields a deterministic,
locally computable flow.  Dividing its value by n gives the quantity
``run_tester``, the one sampling entry point, estimates: it samples k uniform
vertices (or takes all of them) and sums, for each sampled source, the
averaged values on its out-edges, which is the source's averaged net
outflow.  Several sampling seeds are several calls with
``replace(cfg, sample_seed=...)``.  Each net outflow is a local query,
``LocalEvaluator.outflow``: the query tree of one seed on the whole graph.
A call builds one evaluator per distinct seed, each shared by every sampled
source, and all of them on one path index, which depends on no seed.  An
outflow sums the amounts of the unskipped paths that start at the source,
so a path that only passes through it is never judged.  Those paths and
their predecessors are read by the edge query of one of the source's
out-edges too, and that tree reads nothing beyond s*(l-1) hops of its edge
(``verify_locality`` checks this on balls), so the computation reads only
the ball of radius ``TesterConfig.r`` = s*(l-1) + 1 around the vertex, and
never builds that ball.

All arithmetic here is exact: a summand is integer ticks summed over the
seeds, each distinct source's average is one ``Fraction``, and so is the
estimate.  With the full vertex set instead of samples, the tester equals
the averaged flow value over n bit for bit.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .graph_core import ColoredGraph, _int_field
from .local_flow import LocalEvaluator, _ball_radius
from .parallel import parallel_map
from .path_engine import _PathIndex


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
        """Radius of the ball around a sampled vertex that holds what its
        outflow reads: the paths that start at the vertex and their
        predecessors lie in the ball of one of its out-edges, each of which
        has the vertex as an endpoint."""
        return _ball_radius(self.l, self.s) + 1


@dataclass(frozen=True)
class TesterReport:
    """Sample average of the per-vertex source summands, all exact."""

    estimate: Fraction
    sampled_nodes: tuple[int, ...]
    per_sample: tuple[Fraction, ...]
    exhaustive: bool


def source_ball_summand(g: ColoredGraph, v: int, cfg: TesterConfig,
                        evaluators: dict[int, LocalEvaluator]) -> int:
    """I(v in S) times the sum over the seeds of A2's net outflow at v, in
    integer ticks: m times the averaged value on v's out-edges.  Each
    outflow, from the evaluator at its seed, reads only the paths that
    start at v and their predecessors, inside h_r(v).  A seed listed twice
    counts twice, as m does."""
    if g.node(v).color != "S":
        return 0
    return sum(evaluators[seed].outflow(v) for seed in cfg.seeds)


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

    index = _PathIndex(g, cfg.l)
    evaluators = {seed: LocalEvaluator(index, cfg.s, seed) for seed in dict.fromkeys(cfg.seeds)}
    multiplicity = Counter(chosen)
    distinct_sources = sorted(v for v in multiplicity if g.node(v).color == "S")
    ticks = parallel_map(lambda v: source_ball_summand(g, v, cfg, evaluators), distinct_sources)
    summand = {v: Fraction(t, cfg.m) for v, t in zip(distinct_sources, ticks)}

    zero = Fraction(0)
    per_sample = tuple(summand.get(v, zero) for v in chosen)
    # Each distinct source once, times its multiplicity: the same sum as
    # over per_sample, whose other entries are 0, in ticks times m.
    total = sum(t * multiplicity[v] for v, t in zip(distinct_sources, ticks))
    return TesterReport(
        estimate=Fraction(total, cfg.m * len(chosen)),
        sampled_nodes=tuple(chosen),
        per_sample=per_sample,
        exhaustive=exhaustive,
    )
