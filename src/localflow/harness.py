"""Instance generators and experiment drivers.

Four seeded families cover the regimes the algorithms care about: disjoint
path bundles with a known max flow, grids (long diameter), degree-filtered
random matchings (the default random family), and layered source-to-target
networks.  The experiment drivers sweep instances, seeds and parameters,
emitting fixed-column CSV rows where every rational is rendered twice: exact
"p/q" and 12-digit decimal.  Rows are pure functions of (spec, config, seeds);
wall-clock timing never enters an output row.
"""

from __future__ import annotations

import csv
import hashlib
import random
from dataclasses import dataclass, field
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from typing import IO, Iterable, Mapping, Sequence

from .exact_oracle import _shortest_augmenting_path_length, max_flow
from .graph_core import (
    ColoredGraph,
    DirectedEdgeRef,
    Edge,
    Flow,
    Node,
    _int_field,
    _source_outflow,
)
from .local_flow import RunConfig, run_a1, run_a2, verify_locality
from .parallel import parallel_map
from .path_engine import chain_depth_all, enumerate_paths

FAMILIES = ("path_bundle", "grid", "random_bounded", "layered")

DEFAULT_D = 4
DEFAULT_M_TICKS = 5
DEFAULT_L = 6
DEFAULT_S = 3

# Integer params some generator reads; bottlenecks is a list of integers.
INT_PARAMS = ("rows", "cols", "layers", "width", "fanout", "rounds", "cap_min", "path_len")


@dataclass(frozen=True)
class InstanceSpec:
    """Seeded description of one generated network."""

    family: str
    n: int = 0
    d: int = DEFAULT_D
    m_ticks: int = DEFAULT_M_TICKS
    quantum: Fraction = Fraction(1)
    rho_s: Fraction = Fraction(1, 5)
    rho_t: Fraction = Fraction(1, 5)
    gen_seed: int = 0
    params: Mapping = field(default_factory=dict)

    def __post_init__(self) -> None:
        """Integer fields and params must be true ints, as in graph JSON."""
        for key in ("n", "d", "m_ticks", "gen_seed"):
            _int_field(vars(self), key, "instance spec")
        for key in INT_PARAMS:
            if key in self.params:
                _int_field(self.params, key, "instance spec params")
        bottlenecks = self.params.get("bottlenecks", [])
        if not isinstance(bottlenecks, (list, tuple)) or any(
            type(b) is not int for b in bottlenecks
        ):
            raise ValueError(
                "bad field 'bottlenecks' in instance spec params: "
                f"expected a list of integers, got {bottlenecks!r}"
            )

    def instance_id(self) -> str:
        base = f"{self.family}-n{self.n}-d{self.d}-M{self.m_ticks}-g{self.gen_seed}"
        if self.params:
            blob = repr(sorted(self.params.items())).encode()
            base += "-p" + hashlib.blake2b(blob, digest_size=2).hexdigest()
        return base

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "n": self.n,
            "d": self.d,
            "m_ticks": self.m_ticks,
            "quantum": f"{self.quantum.numerator}/{self.quantum.denominator}",
            "rho_s": str(self.rho_s),
            "rho_t": str(self.rho_t),
            "gen_seed": self.gen_seed,
            "params": dict(self.params),
        }

    @staticmethod
    def from_json(obj: Mapping) -> "InstanceSpec":
        """Inverse of to_json; the constructor checks the integer fields."""
        if "family" not in obj:
            raise ValueError("missing field 'family' in instance spec")
        return InstanceSpec(
            family=str(obj["family"]),
            n=obj.get("n", 0),
            d=obj.get("d", DEFAULT_D),
            m_ticks=obj.get("m_ticks", DEFAULT_M_TICKS),
            quantum=Fraction(str(obj.get("quantum", 1))),
            rho_s=Fraction(str(obj.get("rho_s", Fraction(1, 5)))),
            rho_t=Fraction(str(obj.get("rho_t", Fraction(1, 5)))),
            gen_seed=obj.get("gen_seed", 0),
            params=dict(obj.get("params", {})),
        )


def generate(spec: InstanceSpec) -> tuple[ColoredGraph, dict]:
    """Deterministic graph for the spec, plus metadata (known max flow, if any)."""
    if spec.family not in FAMILIES:
        raise ValueError(f"unknown family {spec.family!r}")
    if spec.rho_s < 0 or spec.rho_t < 0 or spec.rho_s + spec.rho_t > 1:
        raise ValueError(f"infeasible color fractions rho_s={spec.rho_s}, rho_t={spec.rho_t}")
    builder = {
        "path_bundle": _gen_path_bundle,
        "grid": _gen_grid,
        "random_bounded": _gen_random_bounded,
        "layered": _gen_layered,
    }[spec.family]
    return builder(spec)


def _coin_color(rng: random.Random, s_cut: float, t_cut: float) -> str:
    """S below s_cut = rho_s, T below t_cut = rho_s + rho_t, else R."""
    u = rng.random()
    if u < s_cut:
        return "S"
    if u < t_cut:
        return "T"
    return "R"


def _gen_path_bundle(spec: InstanceSpec) -> tuple[ColoredGraph, dict]:
    bottlenecks = spec.params.get("bottlenecks", (1,) * max(spec.n, 1))
    path_len = spec.params.get("path_len", 3)
    if path_len < 1:
        raise ValueError(f"bad field 'path_len': must be >= 1, got {path_len}")
    for b in bottlenecks:
        if not 0 <= b <= spec.m_ticks:
            raise ValueError(f"bad field 'bottlenecks': {b} outside [0, {spec.m_ticks}]")
    nodes: list[Node] = []
    edges: list[Edge] = []
    nid = 0
    for b in bottlenecks:
        chain = list(range(nid, nid + path_len + 1))
        nid += path_len + 1
        nodes.append(Node(chain[0], "S"))
        nodes.extend(Node(v, "R") for v in chain[1:-1])
        nodes.append(Node(chain[-1], "T"))
        for a, bnode in zip(chain, chain[1:]):
            edges.append(Edge(len(edges), a, bnode, b, b))
    g = ColoredGraph(tuple(nodes), tuple(edges), max(spec.d, 2), spec.m_ticks, spec.quantum)
    return g, {"known_max_flow_ticks": sum(bottlenecks)}


def _gen_grid(spec: InstanceSpec) -> tuple[ColoredGraph, dict]:
    rows = spec.params.get("rows", 0)
    cols = spec.params.get("cols", 0)
    if rows < 1 or cols < 1:
        raise ValueError("bad field 'rows'/'cols': grid needs rows >= 1 and cols >= 1")
    cap_min = spec.params.get("cap_min", 0)
    rng = random.Random(spec.gen_seed)
    cuts = float(spec.rho_s), float(spec.rho_s + spec.rho_t)
    nodes = []
    for r in range(rows):
        for c in range(cols):
            nodes.append(Node(r * cols + c, _coin_color(rng, *cuts)))
    edges: list[Edge] = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append(
                    Edge(len(edges), v, v + 1,
                         rng.randint(cap_min, spec.m_ticks), rng.randint(cap_min, spec.m_ticks))
                )
            if r + 1 < rows:
                edges.append(
                    Edge(len(edges), v, v + cols,
                         rng.randint(cap_min, spec.m_ticks), rng.randint(cap_min, spec.m_ticks))
                )
    d = max(spec.d, 4 if rows > 1 and cols > 1 else 2)
    return ColoredGraph(tuple(nodes), tuple(edges), d, spec.m_ticks, spec.quantum), {}


def _gen_random_bounded(spec: InstanceSpec) -> tuple[ColoredGraph, dict]:
    if spec.n < 2:
        raise ValueError(f"bad field 'n': random_bounded needs n >= 2, got {spec.n}")
    # Two matching rounds by default: keeps candidate-path populations small
    # enough that chain depths stay O(l) at desk scale.  Raise `rounds`
    # (up to d) for denser graphs; the depth tail grows steeply with it.
    rounds = spec.params.get("rounds", 2)
    cap_min = spec.params.get("cap_min", 0)
    rng = random.Random(spec.gen_seed)
    cuts = float(spec.rho_s), float(spec.rho_s + spec.rho_t)
    nodes = tuple(Node(i, _coin_color(rng, *cuts)) for i in range(spec.n))
    degree = [0] * spec.n
    edges: list[Edge] = []
    ids = [nd.id for nd in nodes]  # the same int objects as the node ids
    for _ in range(rounds):
        rng.shuffle(ids)
        for i in range(0, spec.n - 1, 2):
            a, b = ids[i], ids[i + 1]
            if degree[a] < spec.d and degree[b] < spec.d:
                edges.append(
                    Edge(len(edges), a, b,
                         rng.randint(cap_min, spec.m_ticks), rng.randint(cap_min, spec.m_ticks))
                )
                degree[a] += 1
                degree[b] += 1
    edge_tuple = tuple(edges)
    del degree, edges, ids  # not held while the graph builds its lookups
    return ColoredGraph(nodes, edge_tuple, spec.d, spec.m_ticks, spec.quantum), {}


def _gen_layered(spec: InstanceSpec) -> tuple[ColoredGraph, dict]:
    layers = spec.params.get("layers", 4)
    width = spec.params.get("width", 4)
    if layers < 2 or width < 1:
        raise ValueError("bad field 'layers'/'width': layered needs layers >= 2, width >= 1")
    fanout = spec.params.get("fanout", 2)
    cap_min = spec.params.get("cap_min", 0)
    rng = random.Random(spec.gen_seed)
    nodes = []
    for layer in range(layers):
        color = "S" if layer == 0 else ("T" if layer == layers - 1 else "R")
        for w in range(width):
            nodes.append(Node(layer * width + w, color))
    degree = [0] * (layers * width)
    edges: list[Edge] = []
    for layer in range(layers - 1):
        for w in range(width):
            v = layer * width + w
            for _ in range(fanout):
                if degree[v] >= spec.d:
                    break
                t = (layer + 1) * width + rng.randrange(width)
                if degree[t] < spec.d:
                    edges.append(
                        Edge(len(edges), v, t,
                             rng.randint(cap_min, spec.m_ticks),
                             rng.randint(cap_min, spec.m_ticks))
                    )
                    degree[v] += 1
                    degree[t] += 1
    return ColoredGraph(tuple(nodes), tuple(edges), spec.d, spec.m_ticks, spec.quantum), {}


# ---------------------------------------------------------------------------
# Rational rendering and CSV plumbing
# ---------------------------------------------------------------------------


def frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def dec_str(x: Fraction, digits: int = 12) -> str:
    """Decimal rendering with half-even rounding, fixed digit count."""
    with localcontext() as ctx:
        ctx.prec = 40
        ctx.rounding = ROUND_HALF_EVEN
        d = Decimal(x.numerator) / Decimal(x.denominator)
        return f"{d:.{digits}f}"


def write_csv(rows: Sequence[Mapping], columns: Sequence[str], fp: IO[str]) -> None:
    writer = csv.DictWriter(fp, fieldnames=list(columns), lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({c: row.get(c, "") for c in columns})


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

APPROX_COLUMNS = (
    "kind", "instance", "family", "n", "d", "m_ticks", "l", "s", "seed",
    "fstar", "f1", "f2", "bound_frac", "bound_dec", "gap_bound_ok", "no_short_path_ok",
    "f1_minus_f2_frac", "f1_minus_f2_dec",
)


def experiment_approx(
    specs: Sequence[InstanceSpec],
    l_values: Sequence[int],
    seeds: Sequence[int],
    s: int = DEFAULT_S,
) -> tuple[list[dict], bool]:
    """Gap-versus-l sweep: every row checks the length-l approximation bound
    |f1| >= |f*| - (d*M/l)*n and the no-short-augmenting-path certificate;
    per (instance, l) a seed_mean row reports the mean A1-A2 gap."""
    ok = True
    rows: list[dict] = []

    prepared = [(spec,) + generate(spec) for spec in specs]

    def run_one(item: tuple[InstanceSpec, ColoredGraph, int, int, int]) -> dict:
        spec, g, fstar, l, seed = item
        f1, _ = run_a1(g, RunConfig(l=l, seed=seed))
        f2, _ = run_a2(g, RunConfig(l=l, s=s, seed=seed))
        # run_a1 and run_a2 have validated their flows
        v1 = int(_source_outflow(g, f1))
        v2 = int(_source_outflow(g, f2))
        bound = Fraction(g.degree_bound * g.capacity_bound_ticks * g.n, l)
        gap_ok = Fraction(v1) >= Fraction(fstar) - bound
        no_short = _shortest_augmenting_path_length(g, f1, l) is None
        return {
            "kind": "run", "instance": spec.instance_id(), "family": spec.family,
            "n": g.n, "d": g.degree_bound, "m_ticks": g.capacity_bound_ticks,
            "l": l, "s": s, "seed": seed,
            "fstar": fstar, "f1": v1, "f2": v2,
            "bound_frac": frac_str(bound), "bound_dec": dec_str(bound),
            "gap_bound_ok": gap_ok, "no_short_path_ok": no_short,
            "f1_minus_f2_frac": frac_str(Fraction(v1 - v2)),
            "f1_minus_f2_dec": dec_str(Fraction(v1 - v2)),
        }

    for spec, g, _meta in prepared:
        fstar = max_flow(g).value
        for l in l_values:
            items = [(spec, g, fstar, l, seed) for seed in seeds]
            run_rows = parallel_map(run_one, items)
            gaps = [Fraction(int(r["f1"]) - int(r["f2"])) for r in run_rows]
            mean_gap = sum(gaps, Fraction(0)) / len(gaps)
            for r in run_rows:
                ok = ok and bool(r["gap_bound_ok"]) and bool(r["no_short_path_ok"])
                rows.append(r)
            rows.append({
                "kind": "seed_mean", "instance": spec.instance_id(), "family": spec.family,
                "n": g.n, "d": g.degree_bound, "m_ticks": g.capacity_bound_ticks,
                "l": l, "s": s, "seed": "",
                "fstar": fstar, "f1": "", "f2": "",
                "bound_frac": "", "bound_dec": "", "gap_bound_ok": "", "no_short_path_ok": "",
                "f1_minus_f2_frac": frac_str(mean_gap),
                "f1_minus_f2_dec": dec_str(mean_gap),
            })
    return rows, ok


CHAIN_TAIL_COLUMNS = (
    "instance", "family", "n", "l", "seeds", "q",
    "count_ge", "covered", "tail_frac", "tail_dec",
)


def max_depth_per_edge(g: ColoredGraph, l: int, seed: int) -> dict[int, int]:
    """For each undirected edge on some candidate path: the largest chain depth
    among paths through it."""
    paths = enumerate_paths(g, l)
    depths = chain_depth_all(paths, seed)
    best: dict[int, int] = {}
    for u in paths:
        d = depths[u.canonical_key]
        for eid in u.edge_ids:
            if best.get(eid, 0) < d:
                best[eid] = d
    return best


def experiment_chain_tail(
    specs: Sequence[InstanceSpec],
    l: int,
    seeds: Sequence[int],
) -> tuple[list[dict], bool]:
    """Empirical tail of the per-edge maximum chain depth over random labelings."""
    rows: list[dict] = []
    for spec in specs:
        g, _meta = generate(spec)
        per_seed = parallel_map(lambda seed: max_depth_per_edge(g, l, seed), seeds)
        counts: dict[int, int] = {}
        covered = 0
        for best in per_seed:
            for depth in best.values():
                counts[depth] = counts.get(depth, 0) + 1
                covered += 1
        max_depth = max(counts) if counts else 0
        running = 0
        # count_ge(q) built from the top down.
        tail_at: dict[int, int] = {}
        for q in range(max_depth, 0, -1):
            running += counts.get(q, 0)
            tail_at[q] = running
        for q in range(1, max_depth + 1):
            tail = Fraction(tail_at[q], covered) if covered else Fraction(0)
            rows.append({
                "instance": spec.instance_id(), "family": spec.family, "n": g.n,
                "l": l, "seeds": len(seeds), "q": q,
                "count_ge": tail_at[q], "covered": covered,
                "tail_frac": frac_str(tail), "tail_dec": dec_str(tail),
            })
    return rows, True


LOCALITY_COLUMNS = (
    "instance", "family", "n", "l", "s", "seed", "role", "radius",
    "checked", "mismatches", "ok",
)


def experiment_locality(
    specs: Sequence[InstanceSpec],
    cfgs: Sequence[tuple[int, int]],
    seeds: Sequence[int],
    sample: int | str = "all",
    negative_control: bool = True,
) -> tuple[list[dict], bool]:
    """Exact global-vs-local equality on sampled edges, per (instance, seed, l, s).

    Primary rows must show zero mismatches.  Negative-control rows rerun with
    radius s*l - 1; their mismatches are reported, never failed on.
    """
    rows: list[dict] = []
    ok = True
    for spec in specs:
        g, _meta = generate(spec)
        all_refs = [DirectedEdgeRef(e.id, "AB") for e in g.edges]
        for l, s in cfgs:
            for seed in seeds:
                if sample == "all":
                    refs = all_refs
                else:
                    rng = random.Random(seed)
                    refs = sorted(rng.sample(all_refs, min(int(sample), len(all_refs))))
                cfg = RunConfig(l=l, s=s, seed=seed)
                roles = [("check", None)]
                if negative_control:
                    roles.append(("negative_control", s * l - 1))
                for role, radius in roles:
                    rep = verify_locality(g, cfg, refs, radius=radius)
                    row_ok = rep.passed if role == "check" else True
                    ok = ok and row_ok
                    rows.append({
                        "instance": spec.instance_id(), "family": spec.family, "n": g.n,
                        "l": l, "s": s, "seed": seed, "role": role,
                        "radius": s * l if radius is None else radius,
                        "checked": rep.checked, "mismatches": len(rep.mismatches),
                        "ok": row_ok,
                    })
    return rows, ok


def default_specs() -> list[InstanceSpec]:
    """Small mixed-family suite used when the CLI gets no spec file."""
    return [
        InstanceSpec("path_bundle", params={"bottlenecks": [2, 3, 4], "path_len": 3}),
        InstanceSpec("random_bounded", n=60, gen_seed=1),
        InstanceSpec("random_bounded", n=80, gen_seed=2),
        InstanceSpec("grid", params={"rows": 6, "cols": 8}, gen_seed=3),
        InstanceSpec("layered", params={"layers": 5, "width": 5}, gen_seed=4),
    ]
