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
from dataclasses import dataclass, field, fields
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
    _fraction_field,
    _int_field,
    _require,
    _source_outflow,
    frac_str,
)
from .local_flow import RunConfig, _ball_radius, run_a1, run_a2, verify_locality
from .parallel import parallel_map
from .path_engine import chain_depth_all, enumerate_paths

DEFAULT_D = 4
DEFAULT_M_TICKS = 5
DEFAULT_L = 6
DEFAULT_S = 3

# Per family, the params its generator reads and their defaults.  All are
# integers but path_bundle's bottlenecks, a list of integers, one path each;
# without it the bundle has max(n, 1) paths of bottleneck 1.
FAMILY_PARAMS: dict[str, dict] = {
    "path_bundle": {"bottlenecks": None, "path_len": 3},
    "grid": {"rows": 0, "cols": 0, "cap_min": 0},
    "random_bounded": {"rounds": 2, "cap_min": 0},
    "layered": {"layers": 4, "width": 4, "fanout": 2, "cap_min": 0},
}
FAMILIES = tuple(FAMILY_PARAMS)


@dataclass(frozen=True)
class InstanceSpec:
    """Seeded description of one generated network, checked when built.

    The family is one of ``FAMILIES``; the integer fields and params are true
    ints, as in graph JSON; params holds only names its family's generator
    reads (``FAMILY_PARAMS``); and the color fractions rho_s and rho_t are
    non-negative with a sum of at most 1.
    """

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
        for key in ("n", "d", "m_ticks", "gen_seed"):
            _int_field(vars(self), key, "instance spec")
        if self.family not in FAMILY_PARAMS:
            raise ValueError(f"unknown family {self.family!r}")
        if not isinstance(self.params, Mapping):
            raise ValueError(
                f"bad field 'params' in instance spec: expected an object, got {self.params!r}"
            )
        for key, value in self.params.items():
            if key not in FAMILY_PARAMS[self.family]:
                raise ValueError(f"bad field {key!r} in instance spec params: "
                                 f"not a param of family {self.family!r}")
            if key != "bottlenecks":
                _int_field(self.params, key, "instance spec params")
            elif not isinstance(value, (list, tuple)) or any(type(b) is not int for b in value):
                raise ValueError("bad field 'bottlenecks' in instance spec params: "
                                 f"expected a list of integers, got {value!r}")
        if self.rho_s < 0 or self.rho_t < 0 or self.rho_s + self.rho_t > 1:
            raise ValueError(
                f"infeasible color fractions rho_s={self.rho_s}, rho_t={self.rho_t}"
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
            "quantum": frac_str(self.quantum),
            "rho_s": str(self.rho_s),
            "rho_t": str(self.rho_t),
            "gen_seed": self.gen_seed,
            "params": dict(self.params),
        }

    @staticmethod
    def from_json(obj: Mapping) -> "InstanceSpec":
        """Inverse of to_json, refusing a key other than the fields it writes;
        the constructor checks the fields, and the rationals are read as
        graph JSON reads its quantum."""
        where = "instance spec"
        family = str(_require(obj, "family", where))
        names = {f.name for f in fields(InstanceSpec)}
        for key in obj:
            if key not in names:
                raise ValueError(f"bad field {key!r} in {where}: not a spec field")
        rationals = {"quantum": 1, "rho_s": "1/5", "rho_t": "1/5", **obj}  # defaults, then obj
        return InstanceSpec(
            family=family,
            n=obj.get("n", 0),
            d=obj.get("d", DEFAULT_D),
            m_ticks=obj.get("m_ticks", DEFAULT_M_TICKS),
            gen_seed=obj.get("gen_seed", 0),
            params=obj.get("params", {}),
            **{key: _fraction_field(rationals, key, where) for key in ("quantum", "rho_s", "rho_t")},
        )


def generate(spec: InstanceSpec) -> tuple[ColoredGraph, dict]:
    """Deterministic graph for the spec, plus metadata (known max flow, if any).
    Each generator gets the spec's params over its family's defaults."""
    builder = {
        "path_bundle": _gen_path_bundle,
        "grid": _gen_grid,
        "random_bounded": _gen_random_bounded,
        "layered": _gen_layered,
    }[spec.family]
    return builder(spec, {**FAMILY_PARAMS[spec.family], **spec.params})


def _coin_color(rng: random.Random, s_cut: float, t_cut: float) -> str:
    """S below s_cut = rho_s, T below t_cut = rho_s + rho_t, else R."""
    u = rng.random()
    if u < s_cut:
        return "S"
    if u < t_cut:
        return "T"
    return "R"


def _gen_path_bundle(spec: InstanceSpec, params: dict) -> tuple[ColoredGraph, dict]:
    bottlenecks, path_len = params["bottlenecks"], params["path_len"]
    if bottlenecks is None:
        bottlenecks = (1,) * max(spec.n, 1)
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


def _gen_grid(spec: InstanceSpec, params: dict) -> tuple[ColoredGraph, dict]:
    rows, cols, cap_min = params["rows"], params["cols"], params["cap_min"]
    if rows < 1 or cols < 1:
        raise ValueError("bad field 'rows'/'cols': grid needs rows >= 1 and cols >= 1")
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
            for inside, w in ((c + 1 < cols, v + 1), (r + 1 < rows, v + cols)):  # right, down
                if inside:
                    edges.append(Edge(len(edges), v, w, rng.randint(cap_min, spec.m_ticks),
                                      rng.randint(cap_min, spec.m_ticks)))
    d = max(spec.d, 4 if rows > 1 and cols > 1 else 2)
    return ColoredGraph(tuple(nodes), tuple(edges), d, spec.m_ticks, spec.quantum), {}


def _gen_random_bounded(spec: InstanceSpec, params: dict) -> tuple[ColoredGraph, dict]:
    if spec.n < 2:
        raise ValueError(f"bad field 'n': random_bounded needs n >= 2, got {spec.n}")
    # Two matching rounds by default: keeps candidate-path populations small
    # enough that chain depths stay O(l) at desk scale.  Raise `rounds`
    # (up to d) for denser graphs; the depth tail grows steeply with it.
    rounds, cap_min = params["rounds"], params["cap_min"]
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


def _gen_layered(spec: InstanceSpec, params: dict) -> tuple[ColoredGraph, dict]:
    layers, width = params["layers"], params["width"]
    if layers < 2 or width < 1:
        raise ValueError("bad field 'layers'/'width': layered needs layers >= 2, width >= 1")
    fanout, cap_min = params["fanout"], params["cap_min"]
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
    sample: int | None = None,
) -> tuple[list[dict], bool]:
    """Exact global-vs-local equality on sampled edges, per (instance, seed, l, s):
    every edge when ``sample`` is None, else that many drawn with the seed.

    Check rows, at the ball radius s*l of a local query, must show zero
    mismatches.  Negative-control rows rerun one hop inside it, at s*l - 1;
    their mismatches are reported, never failed on.
    """
    rows: list[dict] = []
    ok = True
    for spec in specs:
        g, _meta = generate(spec)
        all_refs = [DirectedEdgeRef(e.id, "AB") for e in g.edges]
        for l, s in cfgs:
            for seed in seeds:
                if sample is None:
                    refs = all_refs
                else:
                    rng = random.Random(seed)
                    refs = sorted(rng.sample(all_refs, min(sample, len(all_refs))))
                cfg = RunConfig(l=l, s=s, seed=seed)
                ball = _ball_radius(l, s)
                for role, radius in (("check", ball), ("negative_control", ball - 1)):
                    rep = verify_locality(g, cfg, refs, radius=radius)
                    row_ok = rep.passed if role == "check" else True
                    ok = ok and row_ok
                    rows.append({
                        "instance": spec.instance_id(), "family": spec.family, "n": g.n,
                        "l": l, "s": s, "seed": seed, "role": role, "radius": radius,
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
