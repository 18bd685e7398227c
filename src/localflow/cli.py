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
from collections import defaultdict
from dataclasses import fields
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
from .local_flow import RunConfig, length_cap, local_f2_edge, run_a1, run_a2, verify_locality
from .path_engine import _chain_depths, enumerate_paths, path_key


def _ints(text: str) -> list[int]:
    """Comma-separated integers, at least one; an empty item is refused."""
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _cfgs(text: str) -> list[tuple[int, int]]:
    """Comma-separated l:s pairs."""
    try:
        return [(int(l), int(s)) for l, s in (part.split(":") for part in text.split(","))]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected l:s pairs, got {text!r}")


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"expected a rational, got {text!r}")


def _sample(text: str) -> int | None:
    """An edge count of at least 1, or None for 'all'."""
    if text == "all":
        return None
    try:
        if int(text) >= 1:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a count >= 1 or 'all', got {text!r}")


def _load_json(path: str, flag: str):
    try:
        with open(path, encoding="utf-8") as fp:
            return json.load(fp)
    except FileNotFoundError:
        raise ValueError(f"bad field '{flag}': no such file {path!r}")
    except json.JSONDecodeError as exc:
        raise ValueError(f"bad field '{flag}': not valid JSON ({exc})")


def _load_graph(path: str) -> ColoredGraph:
    return graph_from_json(_load_json(path, "--graph"))


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _run_config(args: argparse.Namespace, g: ColoredGraph) -> RunConfig:
    l = args.l if args.epsilon is None else length_cap(g, args.epsilon)
    return RunConfig(l=l, s=getattr(args, "s", None), seed=args.seed)


# Every family param and spec field, each a `generate` flag that is passed on
# only when given, so a spec field left out takes its default.
_PARAMS = tuple(dict.fromkeys(key for params in harness.FAMILY_PARAMS.values() for key in params))


def _cmd_generate(args: argparse.Namespace) -> int:
    given = {key: value for key, value in vars(args).items() if value is not None}
    spec = InstanceSpec(params={key: given[key] for key in _PARAMS if key in given},
                        **{f.name: given[f.name] for f in fields(InstanceSpec) if f.name in given})
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
    flow, trace = (run_a1 if variant == "a1" else run_a2)(g, _run_config(args, g))
    print(_source_outflow(g, flow))  # the run has validated its flow
    if args.out:
        _write_text(args.out, dumps_json(flow_to_json(flow)))
    if args.trace:
        _write_text(args.trace, trace.to_json_lines())
    return 0


def _cmd_local_f2(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    print(local_f2_edge(g, DirectedEdgeRef(args.edge, args.orientation), _run_config(args, g)))
    return 0


def _cmd_verify_locality(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    refs = [DirectedEdgeRef(e.id, "AB") for e in g.edges][:args.sample]
    report = verify_locality(g, _run_config(args, g), refs,
                             radius=args.radius, local_seed=args.local_seed)
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
    cfg = TesterConfig(l=args.l, s=args.s, seeds=tuple(args.seeds), k=args.k,
                       sample_seed=args.seed)
    exhaustive = args.sample == "all"
    started = time.monotonic()
    report = run_tester(g, cfg, exhaustive=exhaustive)
    wall_ms = int((time.monotonic() - started) * 1000)
    payload = {
        "config": {
            "l": cfg.l, "s": cfg.s, "seeds": list(cfg.seeds), "k": cfg.k,
            "r": cfg.r, "sample_seed": cfg.sample_seed,
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
    keyed = sorted(((path_key(u, args.seed), u) for u in enumerate_paths(g, args.l)),
                   key=lambda pair: pair[0])
    depths = _chain_depths((u for _, u in keyed), defaultdict(int))
    lines = [json.dumps({"nodes": list(u.nodes), "length": u.length,
                         "hash": key.hash_label, "depth": depth})
             for (key, u), depth in zip(keyed, depths)]
    _write_text(args.out, "\n".join(lines) + ("\n" if lines else ""))
    return 0


def _load_specs(path: str | None) -> list[InstanceSpec]:
    if path is None:
        return harness.default_specs()
    raw = _load_json(path, "--specs")
    if not isinstance(raw, list):
        raise ValueError("bad field '--specs': expected a JSON array of instance specs")
    return [InstanceSpec.from_json(obj) for obj in raw]


def _cmd_experiment(args: argparse.Namespace) -> int:
    specs = _load_specs(args.specs)
    started = time.monotonic()
    if args.name == "approx":
        rows, ok = harness.experiment_approx(specs, args.l_sweep, args.seeds, s=args.s)
        columns = APPROX_COLUMNS
    elif args.name == "chain-tail":
        rows, ok = harness.experiment_chain_tail(specs, args.l, args.seeds)
        columns = CHAIN_TAIL_COLUMNS
    else:
        rows, ok = harness.experiment_locality(specs, args.cfgs, args.seeds, sample=args.sample)
        columns = LOCALITY_COLUMNS
    wall_ms = int((time.monotonic() - started) * 1000)

    buf = io.StringIO()
    write_csv(rows, columns, buf)
    _write_text(args.out, buf.getvalue())
    print(f"# wall_time_ms={wall_ms}", file=sys.stderr)
    return 0 if ok else 1


# Flags that more than one command reads.  Each command declares only the
# flags it reads, and takes no abbreviations, so argparse refuses any other
# (`--l` is not read as `--l-sweep`).
_SHARED_FLAGS: dict[str, dict] = {
    "graph": {"help": "graph JSON file"},
    "seed": {"type": int, "default": 0, "help": "labeling (tester: sampling) seed"},
    "seeds": {"type": _ints, "help": "comma-separated seed list"},
    "l": {"type": int, "help": "max augmenting-path length"},
    "s": {"type": int, "help": "chain-depth skip threshold"},
    "epsilon": {"type": _rational, "help": "target error; sets l = ceil(2dM/epsilon)"},
    "trace": {"help": "write the per-path trace as JSON lines"},
    "sample": {"type": _sample, "help": "edge count or 'all' (default all)"},
    "specs": {"help": "JSON file with an array of instance specs"},
    "out": {"help": "output file (.csv or .json); stdout when omitted"},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="localflow",
        description="Local almost-maximum-flow runs, exact oracle, and sampling tester.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(subs, name: str, func: Callable[[argparse.Namespace], int],
                summary: str, *flags: str) -> argparse.ArgumentParser:
        """A command reading the shared ``flags``: "x!" is required, "x=v"
        defaults to v, read as if given, and "a|b!" takes exactly one of a, b."""
        p = subs.add_parser(name, help=summary, allow_abbrev=False)
        for flag in flags:
            spec, required = flag.rstrip("!"), flag.endswith("!")
            if "|" in spec:
                group = p.add_mutually_exclusive_group(required=required)
                for key in spec.split("|"):
                    group.add_argument(f"--{key}", **_SHARED_FLAGS[key])
                continue
            key, _, default = spec.partition("=")
            kwargs = dict(_SHARED_FLAGS[key], required=required)
            if default:
                kwargs.update(default=default, help=kwargs["help"] + " (default: %(default)s)")
            p.add_argument(f"--{key}", **kwargs)
        p.set_defaults(func=func)
        return p

    p = command(sub, "generate", _cmd_generate, "write a generated instance", "out")
    p.add_argument("--family", required=True, choices=harness.FAMILIES)
    p.add_argument("--n", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--m", type=int, dest="m_ticks", metavar="M", help="capacity bound in ticks")
    p.add_argument("--quantum", type=_rational)
    p.add_argument("--rho-s", type=_rational)
    p.add_argument("--rho-t", type=_rational)
    p.add_argument("--gen-seed", type=int)
    for key in _PARAMS:
        p.add_argument(f"--{key.replace('_', '-')}", dest=key,
                       type=_ints if key == "bottlenecks" else int)

    command(sub, "maxflow", _cmd_maxflow, "exact maximum flow value", "graph!", "out")

    command(sub, "run-a1", partial(_cmd_run, variant="a1"), "label-ordered augmentation",
            "graph!", "l|epsilon!", "seed", "out", "trace")
    command(sub, "run-a2", partial(_cmd_run, variant="a2"), "chain-skipping augmentation",
            "graph!", "l|epsilon!", "s!", "seed", "out", "trace")

    p = command(sub, "local-f2", _cmd_local_f2, "A2 value at one edge from the local query tree",
                "graph!", "l|epsilon!", "s!", "seed")
    p.add_argument("--edge", type=int, required=True, help="edge id")
    p.add_argument("--orientation", choices=["AB", "BA"], default="AB")

    p = command(sub, "verify-locality", _cmd_verify_locality, "global vs local equality",
                "graph!", "l|epsilon!", "s!", "seed", "sample", "out")
    p.add_argument("--radius", type=int, help="negative control: ball radius (default s*(l-1))")
    p.add_argument("--local-seed", type=int,
                   help="mismatched-seed negative control; it fails only where run_a2 depends "
                        "on the seed, which it does not on AC-5's instance")

    p = command(sub, "tester", _cmd_tester, "sampling estimate of max flow over n",
                "graph!", "l!", "s!", "seeds!", "seed", "out")
    p.add_argument("--k", type=int, default=1000, help="tester sample count")
    p.add_argument("--sample", choices=["all"], help="every vertex instead of k samples")

    command(sub, "dump-paths", _cmd_dump_paths,
            "debug dump of candidate paths with labels and chain depths",
            "graph!", "l!", "seed", "out")

    experiments = command(sub, "experiment", _cmd_experiment, "run an experiment suite")
    names = experiments.add_subparsers(dest="name", required=True)
    p = command(names, "approx", _cmd_experiment, "approximation gap sweep",
                "specs", "seeds=1,2,3,4,5", f"s={harness.DEFAULT_S}", "out")
    p.add_argument("--l-sweep", type=_ints, default="2,4,6,8",
                   help="comma-separated l values (default: %(default)s)")
    command(names, "chain-tail", _cmd_experiment, "chain-depth tail",
            "specs", "seeds=1,2,3,4,5", f"l={harness.DEFAULT_L}", "out")
    p = command(names, "locality", _cmd_experiment, "global vs local equality per instance",
                "specs", "seeds=1,2,3,4,5", "sample", "out")
    p.add_argument("--cfgs", type=_cfgs, default="3:2,4:3",
                   help="comma-separated l:s pairs (default: %(default)s)")

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
