"""Label-ordered augmentation, its chain-skipping variant, and locality checks.

Both runs start from the zero flow and sweep every candidate path once in
increasing order-key order, augmenting by the path's residual capacity.  The
plain run (A1) processes everything; the skipping run (A2) refuses any path
whose chain depth reaches the threshold s, which is what confines each edge's
final value to a ball of radius s*l around it.  ``local_f2_edge`` exploits
exactly that: it reruns A2 inside the ball and must reproduce the global value
bit for bit, a property ``verify_locality`` checks edge by edge.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

from .exact_oracle import shortest_augmenting_path_length
from .graph_core import (
    ColoredGraph,
    DirectedEdgeRef,
    Flow,
    ball_nodes,
    induced_subgraph,
    validate_flow,
    validate_graph,
)
from .parallel import parallel_map
from .path_engine import _chain_depths, enumerate_paths, path_key

AUGMENTED = "AUGMENTED"
SKIPPED_CHAIN = "SKIPPED_CHAIN"
ZERO_CAPACITY = "ZERO_CAPACITY"


@dataclass(frozen=True)
class RunConfig:
    """Parameters of a run: length cap l, skip threshold s, labeling seed.

    When ``epsilon`` is given instead of ``l``, the cap defaults to
    ceil(2*d*M/epsilon) with M the real capacity bound (ticks * quantum).
    s stays caller-supplied; there is no closed form for it.
    """

    l: int | None = None
    s: int | None = None
    seed: int = 0
    epsilon: Fraction | None = None

    def resolve_l(self, g: ColoredGraph) -> int:
        if self.l is not None:
            if self.l < 1:
                raise ValueError(f"l must be >= 1, got {self.l}")
            return self.l
        if self.epsilon is None:
            raise ValueError("config needs l or epsilon")
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        m_real = g.capacity_bound_ticks * g.quantum
        ratio = 2 * g.degree_bound * m_real / self.epsilon
        return int(-(-ratio.numerator // ratio.denominator))

    def require_s(self) -> int:
        if self.s is None:
            raise ValueError("config needs s for the chain-skipping run")
        if self.s < 1:
            raise ValueError(f"s must be >= 1, got {self.s}")
        return self.s


class TraceEntry(NamedTuple):
    canonical_key: bytes
    action: str
    amount: int


@dataclass(frozen=True)
class RunTrace:
    """Per-path audit of a run, in processing (key) order."""

    entries: tuple[TraceEntry, ...]

    def to_json_lines(self) -> str:
        lines = []
        for ent in self.entries:
            lines.append(
                json.dumps(
                    {
                        "key": ent.canonical_key.decode("ascii"),
                        "action": ent.action,
                        "amount": ent.amount,
                    }
                )
            )
        return "\n".join(lines) + ("\n" if lines else "")


def _sweep(
    g: ColoredGraph,
    l: int,
    seed: int,
    skip_threshold: int | None,
    boundary_sink: Callable[[int, Flow], None] | None = None,
) -> tuple[Flow, RunTrace]:
    """Shared A1/A2 engine; skip_threshold None means never skip."""
    paths = enumerate_paths(g, l)
    order = sorted(paths, key=lambda u: path_key(u, seed))
    depths = _chain_depths(order) if skip_threshold is not None else None

    edge_of = {e.id: e for e in g.edges}
    f: dict[int, int] = {}
    entries: list[TraceEntry] = []
    done_len = 0  # all paths of length <= done_len already processed

    for u in order:
        if boundary_sink is not None and u.length > done_len + 1:
            for j in range(done_len + 1, u.length):
                boundary_sink(j, Flow(dict(f)))
        done_len = max(done_len, u.length - 1)

        if depths is not None and depths[u.canonical_key] >= skip_threshold:
            entries.append(TraceEntry(u.canonical_key, SKIPPED_CHAIN, 0))
            continue
        amount: int | None = None
        for ref in u.edges:
            e = edge_of[ref.edge_id]
            got = f.get(ref.edge_id, 0)
            room = e.cap_ab - got if ref.orientation == "AB" else e.cap_ba + got
            if amount is None or room < amount:
                amount = room
        assert amount is not None and amount >= 0
        if amount > 0:
            for ref in u.edges:
                delta = amount if ref.orientation == "AB" else -amount
                f[ref.edge_id] = f.get(ref.edge_id, 0) + delta
            entries.append(TraceEntry(u.canonical_key, AUGMENTED, amount))
        else:
            entries.append(TraceEntry(u.canonical_key, ZERO_CAPACITY, 0))

    flow = Flow({eid: v for eid, v in f.items() if v != 0})
    if boundary_sink is not None:
        for j in range(done_len + 1, l + 1):
            boundary_sink(j, flow)
    validate_flow(g, flow).raise_if_invalid("run output flow")
    return flow, RunTrace(tuple(entries))


def run_a1(g: ColoredGraph, cfg: RunConfig) -> tuple[Flow, RunTrace]:
    """Augment on every candidate path once, shortest lengths first."""
    return _sweep(g, cfg.resolve_l(g), cfg.seed, None)


def run_a2(g: ColoredGraph, cfg: RunConfig) -> tuple[Flow, RunTrace]:
    """Like run_a1 but paths with chain depth >= s are never augmented."""
    return _sweep(g, cfg.resolve_l(g), cfg.seed, cfg.require_s())


def length_boundary_violations(g: ColoredGraph, cfg: RunConfig) -> list[int]:
    """Rerun A1 checking that after length-j paths no residual S->T path of
    length <= j survives; returns the offending boundaries (empty = clean)."""
    l = cfg.resolve_l(g)
    bad: list[int] = []

    def sink(j: int, partial: Flow) -> None:
        if shortest_augmenting_path_length(g, partial, j) is not None:
            bad.append(j)

    _sweep(g, l, cfg.seed, None, boundary_sink=sink)
    return bad


def local_f2_edge(
    g: ColoredGraph, e: DirectedEdgeRef, cfg: RunConfig, *, radius: int | None = None
) -> int:
    """Value of the skipping run at e, computed inside the ball h_{s*l}(e) only.

    The rerun sees the same labels as a global run because ids are preserved,
    so (by the locality guarantee) the result equals the global value exactly.
    ``radius`` overrides the default s*l for negative controls.
    """
    l = cfg.resolve_l(g)
    s = cfg.require_s()
    g.edge(e.edge_id)
    rad = s * l if radius is None else radius
    sub = induced_subgraph(g, set(ball_nodes(g, e, rad)))
    f2, _ = run_a2(sub, RunConfig(l=l, s=s, seed=cfg.seed))
    return int(f2.on(e))


class LocalityMismatch(NamedTuple):
    edge: DirectedEdgeRef
    global_value: int
    local_value: int


@dataclass(frozen=True)
class LocalityReport:
    checked: int
    mismatches: tuple[LocalityMismatch, ...]

    @property
    def passed(self) -> bool:
        return not self.mismatches


def verify_locality(
    g: ColoredGraph,
    cfg: RunConfig,
    edge_sample: list[DirectedEdgeRef],
    *,
    radius: int | None = None,
    local_seed: int | None = None,
    threads: int = 1,
) -> LocalityReport:
    """Compare the global run against per-edge local reruns, exact equality.

    One global A2, then one local A2 per distinct ball among the sampled
    edges (edges whose balls coincide share the rerun, which cannot change
    any value: the rerun depends only on the induced subgraph and the seed).
    ``radius`` and ``local_seed`` exist for negative controls.
    """
    validate_graph(g).raise_if_invalid("graph")
    l = cfg.resolve_l(g)
    s = cfg.require_s()
    rad = s * l if radius is None else radius
    local_cfg = RunConfig(l=l, s=s, seed=cfg.seed if local_seed is None else local_seed)

    f2_global, _ = run_a2(g, cfg)

    balls: dict[DirectedEdgeRef, frozenset[int]] = {}
    for ref in edge_sample:
        balls[ref] = ball_nodes(g, ref, rad)
    unique = sorted(set(balls.values()), key=sorted)

    def rerun(ball: frozenset[int]) -> Flow:
        f2_local, _ = run_a2(induced_subgraph(g, set(ball)), local_cfg)
        return f2_local

    local_flows = dict(zip(unique, parallel_map(rerun, unique, threads)))

    mismatches = []
    for ref in edge_sample:
        got_global = int(f2_global.on(ref))
        got_local = int(local_flows[balls[ref]].on(ref))
        if got_global != got_local:
            mismatches.append(LocalityMismatch(ref, got_global, got_local))
    return LocalityReport(checked=len(edge_sample), mismatches=tuple(mismatches))


class LocalEvaluator:
    """Cache of per-ball A2 reruns on one graph for one (l, s).

    Repeated local evaluations (averaging over seeds, per-vertex sums in the
    tester) keep hitting identical balls; one rerun per (ball, seed) pair
    serves them all.  An edge's ball does not depend on its orientation, so
    the ball search runs once per edge id.
    """

    def __init__(self, g: ColoredGraph, l: int, s: int):
        self.g = g
        self.l = l
        self.s = s
        self.radius = s * l
        self._balls: dict[int, frozenset[int]] = {}
        self._subgraphs: dict[frozenset[int], ColoredGraph] = {}
        self._flows: dict[tuple[frozenset[int], int], Flow] = {}

    def f2_on(self, e: DirectedEdgeRef, seed: int) -> int:
        ball = self._balls.get(e.edge_id)
        if ball is None:
            ball = ball_nodes(self.g, e, self.radius)
            self._balls[e.edge_id] = ball
        key = (ball, seed)
        flow = self._flows.get(key)
        if flow is None:
            sub = self._subgraphs.get(ball)
            if sub is None:
                sub = induced_subgraph(self.g, set(ball))
                self._subgraphs[ball] = sub
            flow, _ = run_a2(sub, RunConfig(l=self.l, s=self.s, seed=seed))
            self._flows[key] = flow
        return int(flow.on(e))
