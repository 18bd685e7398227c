"""Command-line harness.

Every command is deterministic in its flags: reruns produce byte-identical
stdout and output files.  Wall-clock timing goes to stderr only.  Exit codes:
0 success, 1 a checked property failed, 2 bad input.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
import time
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable

from . import harness
from .estimator_tester import TesterConfig, run_tester
from .exact_oracle import max_flow
from .graph_core import (
    ColoredGraph,
    DirectedEdgeRef,
    _source_outflow,
    dumps_json,
    flow_to_json,
    graph_from_json,
    graph_to_json,
)
from .harness import (
    APPROX_COLUMNS,
    CHAIN_TAIL_COLUMNS,
    LOCALITY_COLUMNS,
    InstanceSpec,
    dec_str,
    frac_str,
    write_csv,
)
from .local_flow import RunConfig, local_f2_edge, run_a1, run_a2, verify_locality
from .path_engine import _chain_depths, enumerate_paths, path_key


def _parse_ints(text: str, flag: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise ValueError(f"bad field '{flag}': expected comma-separated integers, got {text!r}")


def _parse_cfgs(text: str) -> list[tuple[int, int]]:
    out = []
    for part in text.split(","):
        try:
            l_str, s_str = part.split(":")
            out.append((int(l_str), int(s_str)))
        except ValueError:
            raise ValueError(f"bad field '--cfgs': expected l:s pairs, got {part!r}")
    return out


def _load_graph(path: str | None) -> ColoredGraph:
    if path is None:
        raise ValueError("missing field '--graph'")
    try:
        with open(path, encoding="utf-8") as fp:
            obj = json.load(fp)
    except FileNotFoundError:
        raise ValueError(f"bad field '--graph': no such file {path!r}")
    except json.JSONDecodeError as exc:
        raise ValueError(f"bad field '--graph': not valid JSON ({exc})")
    return graph_from_json(obj)


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _parse_fraction(text: str, flag: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"bad field '{flag}': expected a rational, got {text!r}")


def _run_config(args: argparse.Namespace, need_s: bool) -> RunConfig:
    epsilon = _parse_fraction(args.epsilon, "--epsilon") if args.epsilon is not None else None
    if args.l is None and epsilon is None:
        raise ValueError("missing field '--l' (or '--epsilon')")
    if need_s and args.s is None:
        raise ValueError("missing field '--s'")
    return RunConfig(l=args.l, s=args.s, seed=args.seed, epsilon=epsilon)


def _cmd_generate(args: argparse.Namespace) -> int:
    params: dict = {}
    for key in harness.INT_PARAMS:
        val = getattr(args, key)
        if val is not None:
            params[key] = val
    if args.bottlenecks is not None:
        params["bottlenecks"] = _parse_ints(args.bottlenecks, "--bottlenecks")
    spec = InstanceSpec(
        family=args.family,
        n=args.n,
        d=args.d,
        m_ticks=args.m,
        quantum=_parse_fraction(args.quantum, "--quantum"),
        rho_s=_parse_fraction(args.rho_s, "--rho-s"),
        rho_t=_parse_fraction(args.rho_t, "--rho-t"),
        gen_seed=args.gen_seed,
        params=params,
    )
    g, meta = harness.generate(spec)
    _write_text(args.out, dumps_json(graph_to_json(g, meta=meta or None)))
    return 0


def _cmd_maxflow(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    result = max_flow(g)
    print(result.value)
    if args.out:
        _write_text(args.out, dumps_json(flow_to_json(result.flow)))
    return 0


def _cmd_run(args: argparse.Namespace, variant: str) -> int:
    g = _load_graph(args.graph)
    cfg = _run_config(args, need_s=(variant == "a2"))
    flow, trace = (run_a1 if variant == "a1" else run_a2)(g, cfg)
    print(_source_outflow(g, flow))  # the run has validated its flow
    if args.out:
        _write_text(args.out, dumps_json(flow_to_json(flow)))
    if args.trace:
        _write_text(args.trace, trace.to_json_lines())
    return 0


def _cmd_local_f2(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    if args.edge is None:
        raise ValueError("missing field '--edge'")
    cfg = _run_config(args, need_s=True)
    ref = DirectedEdgeRef(args.edge, args.orientation)
    print(local_f2_edge(g, ref, cfg, radius=args.radius))
    return 0


def _parse_sample(text: str | None, counts: bool = True) -> int | None:
    """--sample as a non-negative count, or None for 'all' and when absent;
    with counts False only 'all' is accepted."""
    if text is None or text == "all":
        return None
    if counts:
        try:
            count = int(text)
        except ValueError:
            count = -1
        if count >= 0:
            return count
    expected = "a non-negative count or 'all'" if counts else "'all'"
    raise ValueError(f"bad field '--sample': expected {expected}, got {text!r}")


def _cmd_verify_locality(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    cfg = _run_config(args, need_s=True)
    count = _parse_sample(args.sample)
    refs = [DirectedEdgeRef(e.id, "AB") for e in g.edges][:count]
    report = verify_locality(
        g, cfg, refs,
        radius=args.radius,
        local_seed=args.local_seed,
    )
    lines = [f"checked {report.checked} edges, {len(report.mismatches)} mismatches"]
    for mm in report.mismatches:
        lines.append(
            f"mismatch edge {mm.edge.edge_id} {mm.edge.orientation}: "
            f"global {mm.global_value} local {mm.local_value}"
        )
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0 if report.passed else 1


def _cmd_tester(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    if args.l is None:
        raise ValueError("missing field '--l'")
    if args.s is None:
        raise ValueError("missing field '--s'")
    if args.seeds is None:
        raise ValueError("missing field '--seeds'")
    cfg = TesterConfig(
        l=args.l,
        s=args.s,
        seeds=tuple(_parse_ints(args.seeds, "--seeds")),
        k=args.k,
        r=args.r,
        sample_seed=args.seed,
    )
    _parse_sample(args.sample, counts=False)  # absent or 'all'
    exhaustive = args.sample == "all"
    started = time.monotonic()
    report = run_tester(g, cfg, exhaustive=exhaustive)
    wall_ms = int((time.monotonic() - started) * 1000)
    payload = {
        "config": {
            "l": cfg.l, "s": cfg.s, "seeds": list(cfg.seeds), "k": cfg.k,
            "r": cfg.resolve_r(), "sample_seed": cfg.sample_seed,
            "exhaustive": exhaustive,
        },
        "estimate": frac_str(report.estimate),
        "estimate_dec": dec_str(report.estimate),
        "per_sample": [
            {"node": node, "summand": frac_str(value)}
            for node, value in zip(report.sampled_nodes, report.per_sample)
        ],
    }
    _write_text(args.out, dumps_json(payload))
    print(f"# wall_time_ms={wall_ms}", file=sys.stderr)
    return 0


def _cmd_dump_paths(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    if args.l is None:
        raise ValueError("missing field '--l'")
    keyed = sorted(((path_key(u, args.seed), u) for u in enumerate_paths(g, args.l)),
                   key=lambda pair: pair[0])
    depths = _chain_depths(u for _, u in keyed)
    lines = []
    for (key, u), depth in zip(keyed, depths):
        lines.append(json.dumps({
            "nodes": list(u.nodes),
            "length": u.length,
            "hash": key.hash_label,
            "depth": depth,
        }))
    _write_text(args.out, "\n".join(lines) + ("\n" if lines else ""))
    return 0


def _load_specs(path: str | None) -> list[InstanceSpec]:
    if path is None:
        return harness.default_specs()
    try:
        with open(path, encoding="utf-8") as fp:
            raw = json.load(fp)
    except FileNotFoundError:
        raise ValueError(f"bad field '--specs': no such file {path!r}")
    except json.JSONDecodeError as exc:
        raise ValueError(f"bad field '--specs': not valid JSON ({exc})")
    if not isinstance(raw, list):
        raise ValueError("bad field '--specs': expected a JSON array of instance specs")
    return [InstanceSpec.from_json(obj) for obj in raw]


def _cmd_experiment(args: argparse.Namespace) -> int:
    specs = _load_specs(args.specs)
    seeds = _parse_ints(args.seeds, "--seeds") if args.seeds else [1, 2, 3, 4, 5]
    started = time.monotonic()
    if args.name == "approx":
        l_values = _parse_ints(args.l_sweep, "--l-sweep") if args.l_sweep else [2, 4, 6, 8]
        rows, ok = harness.experiment_approx(
            specs, l_values, seeds, s=args.s if args.s is not None else harness.DEFAULT_S,
        )
        columns = APPROX_COLUMNS
    elif args.name == "chain-tail":
        l = args.l if args.l is not None else harness.DEFAULT_L
        rows, ok = harness.experiment_chain_tail(specs, l, seeds)
        columns = CHAIN_TAIL_COLUMNS
    elif args.name == "locality":
        cfgs = _parse_cfgs(args.cfgs) if args.cfgs else [(3, 2), (4, 3)]
        count = _parse_sample(args.sample)
        rows, ok = harness.experiment_locality(
            specs, cfgs, seeds, sample="all" if count is None else count,
            negative_control=not args.no_negative_control,
        )
        columns = LOCALITY_COLUMNS
    else:
        raise ValueError(f"bad field 'experiment': unknown name {args.name!r}")
    wall_ms = int((time.monotonic() - started) * 1000)

    buf = io.StringIO()
    write_csv(rows, columns, buf)
    _write_text(args.out, buf.getvalue())
    print(f"# wall_time_ms={wall_ms}", file=sys.stderr)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--graph", help="graph JSON file")
    common.add_argument("--seed", type=int, default=0, help="labeling (or sampling) seed")
    common.add_argument("--seeds", help="comma-separated seed list")
    common.add_argument("--l", type=int, help="max augmenting-path length")
    common.add_argument("--s", type=int, help="chain-depth skip threshold")
    common.add_argument("--epsilon", help="target error; sets l = ceil(2dM/epsilon)")
    common.add_argument("--k", type=int, default=1000, help="tester sample count")
    common.add_argument("--r", type=int, help="tester neighborhood radius (>= s*l + 1)")
    common.add_argument("--out", help="output file (.csv or .json); stdout when omitted")
    common.add_argument(
        "--sample",
        help="verify-locality: edge count or 'all' (default all); "
        "tester: 'all' switches to exhaustive vertices",
    )

    parser = argparse.ArgumentParser(
        prog="localflow",
        description="Local almost-maximum-flow runs, exact oracle, and sampling tester.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func: Callable[[argparse.Namespace], int],
                summary: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, parents=[common], help=summary)
        p.set_defaults(func=func)
        return p

    p = command("generate", _cmd_generate, "write a generated instance")
    p.add_argument("--family", required=True, choices=harness.FAMILIES)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--d", type=int, default=harness.DEFAULT_D)
    p.add_argument("--m", type=int, default=harness.DEFAULT_M_TICKS, help="capacity bound in ticks")
    p.add_argument("--quantum", default="1")
    p.add_argument("--rho-s", default="1/5")
    p.add_argument("--rho-t", default="1/5")
    p.add_argument("--gen-seed", type=int, default=0)
    for key in harness.INT_PARAMS:
        p.add_argument(f"--{key.replace('_', '-')}", dest=key, type=int)
    p.add_argument("--bottlenecks", help="comma-separated per-path bottlenecks (path_bundle)")

    command("maxflow", _cmd_maxflow, "exact maximum flow value")

    p = command("run-a1", partial(_cmd_run, variant="a1"), "label-ordered augmentation")
    p.add_argument("--trace", help="write the per-path trace as JSON lines")
    p = command("run-a2", partial(_cmd_run, variant="a2"), "chain-skipping augmentation")
    p.add_argument("--trace", help="write the per-path trace as JSON lines")

    p = command("local-f2", _cmd_local_f2, "A2 value at one edge from its ball")
    p.add_argument("--edge", type=int, help="edge id")
    p.add_argument("--orientation", choices=["AB", "BA"], default="AB")
    p.add_argument("--radius", type=int, help="override ball radius (default s*l)")

    p = command("verify-locality", _cmd_verify_locality, "global vs local equality")
    p.add_argument("--radius", type=int, help="override ball radius (default s*l)")
    p.add_argument("--local-seed", type=int, help="mismatched-seed negative control")

    command("tester", _cmd_tester, "sampling estimate of max flow over n")

    command("dump-paths", _cmd_dump_paths,
            "debug dump of candidate paths with labels and chain depths")

    p = command("experiment", _cmd_experiment, "run an experiment suite")
    p.add_argument("name", choices=["approx", "chain-tail", "locality"])
    p.add_argument("--specs", help="JSON file with an array of instance specs")
    p.add_argument("--l-sweep", help="comma-separated l values (approx)")
    p.add_argument("--cfgs", help="comma-separated l:s pairs (locality)")
    p.add_argument("--no-negative-control", action="store_true")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
