"""Acceptance suite: one test per criterion, one printed verdict line each.

Run order follows the criterion numbering.  Every tolerance is exact or fixed
here; nothing is calibrated at runtime.  The single expected failure is the
radius-(s*l - 1) negative control, which analysis shows cannot mismatch (see
the decisions ledger); it is implemented as stated and marked strict-xfail,
with a separate power demonstration at a genuinely insufficient radius.
"""

from __future__ import annotations

import json
from dataclasses import replace
from fractions import Fraction

import pytest

from localflow.cli import main as cli_main
from localflow.estimator_tester import TesterConfig, run_tester
from localflow.exact_oracle import max_flow, shortest_augmenting_path_length
from localflow.graph_core import DirectedEdgeRef, flow_value, validate_flow
from localflow.harness import (
    InstanceSpec,
    experiment_chain_tail,
    generate,
    max_depth_per_edge,
)
from localflow.local_flow import (
    RunConfig,
    local_f2_edge,
    run_a1,
    run_a2,
    verify_locality,
)
from localflow.path_engine import chain_depth_all, enumerate_paths
from oracles import (
    assemble_fbar2,
    brute_chain_depths,
    brute_min_cut,
    fbar2_value,
    length_boundary_violations,
)

SEEDS = (1, 2, 3, 4, 5)


@pytest.fixture()
def announce(capsys):
    def _say(line: str) -> None:
        with capsys.disabled():
            print(line)

    return _say


# --- criterion 1 -----------------------------------------------------------


def _validity_specs() -> list[InstanceSpec]:
    specs = []
    sizes = [20, 30, 40, 60, 80]
    for i in range(90):
        specs.append(
            InstanceSpec(
                "random_bounded",
                n=sizes[i % 5],
                d=3 + (i % 2),
                m_ticks=3 + 2 * ((i // 2) % 2),
                gen_seed=5000 + i,
                rho_s=Fraction(1, 4),
                rho_t=Fraction(1, 4),
                params={"rounds": 2 + (i % 3)},
            )
        )
    for i, n in enumerate((150, 240, 320, 400, 500)):
        specs.append(
            InstanceSpec("random_bounded", n=n, d=4, m_ticks=5, gen_seed=5900 + i)
        )
    for i in range(5):
        specs.append(
            InstanceSpec("grid", gen_seed=5950 + i,
                         params={"rows": 5 + i, "cols": 6 + i},
                         rho_s=Fraction(1, 4), rho_t=Fraction(1, 4))
        )
    return specs


def test_ac1_every_emitted_flow_is_valid(announce):
    checked = 0
    specs = _validity_specs()
    assert len(specs) >= 100
    for spec in specs:
        g, _ = generate(spec)
        result = max_flow(g)
        assert validate_flow(g, result.flow).ok
        checked += 1
        l = 4
        for seed in SEEDS:
            f1, _ = run_a1(g, RunConfig(l=l, seed=seed))
            f2, _ = run_a2(g, RunConfig(l=l, s=2, seed=seed))
            assert validate_flow(g, f1).ok
            assert validate_flow(g, f2).ok
            checked += 2
        fbar = assemble_fbar2(g, TesterConfig(l=l, s=2, seeds=SEEDS))
        assert validate_flow(g, fbar).ok
        checked += 1
    announce(
        f"AC-1  flow validity: PASS ({checked} flows exact-valid on "
        f"{len(specs)} instances x {len(SEEDS)} seeds)"
    )


# --- criterion 2 -----------------------------------------------------------


def test_ac2_oracle_matches_brute_force(announce):
    checked = 0
    for i in range(200):
        spec = InstanceSpec(
            "random_bounded",
            n=6 + (i % 7),
            d=3 + (i % 2),
            m_ticks=3,
            gen_seed=6000 + i,
            rho_s=Fraction(3, 10),
            rho_t=Fraction(3, 10),
        )
        g, _ = generate(spec)
        assert max_flow(g).value == brute_min_cut(g)
        checked += 1
    for i in range(12):
        lens = [1, 2, 3][i % 3]
        bottlenecks = [(i + j) % 5 + 1 for j in range(1 + i % 4)]
        spec = InstanceSpec(
            "path_bundle", params={"bottlenecks": bottlenecks, "path_len": lens}
        )
        g, meta = generate(spec)
        assert max_flow(g).value == meta["known_max_flow_ticks"]
        checked += 1
    announce(f"AC-2  oracle correctness: PASS ({checked} instances, exact)")


# --- criteria 3 + 4 --------------------------------------------------------


def _approx_suite() -> list[InstanceSpec]:
    return [
        InstanceSpec("path_bundle", params={"bottlenecks": [2, 3, 4], "path_len": 2}),
        InstanceSpec("path_bundle", params={"bottlenecks": [5, 1], "path_len": 5}),
        InstanceSpec("random_bounded", n=30, gen_seed=7001, rho_s=Fraction(1, 4),
                     rho_t=Fraction(1, 4), params={"rounds": 3}),
        InstanceSpec("random_bounded", n=50, gen_seed=7002, params={"rounds": 3}),
        InstanceSpec("random_bounded", n=80, gen_seed=7003, params={"rounds": 3}),
        InstanceSpec("random_bounded", n=60, d=3, gen_seed=7004),
        InstanceSpec("grid", gen_seed=7005, params={"rows": 5, "cols": 6},
                     rho_s=Fraction(1, 4), rho_t=Fraction(1, 4)),
        InstanceSpec("grid", gen_seed=7006, params={"rows": 6, "cols": 8}),
        InstanceSpec("layered", gen_seed=7007, params={"layers": 4, "width": 5}),
        InstanceSpec("layered", gen_seed=7008, params={"layers": 5, "width": 6}),
        InstanceSpec("random_bounded", n=150, gen_seed=7009, params={"rounds": 3}),
        InstanceSpec("grid", gen_seed=7010, params={"rows": 7, "cols": 10}),
    ]


def test_ac3_ac4_length_bound_and_boundaries(announce):
    l_values = (2, 4, 6, 8)
    rows = 0
    boundary_runs = 0
    for spec in _approx_suite():
        g, _ = generate(spec)
        fstar = Fraction(max_flow(g).value)
        for l in l_values:
            bound = Fraction(g.degree_bound * g.capacity_bound_ticks * g.n, l)
            for seed in SEEDS:
                cfg = RunConfig(l=l, seed=seed)
                f1, _ = run_a1(g, cfg)
                v1 = Fraction(int(flow_value(g, f1)))
                assert v1 >= fstar - bound, (spec.instance_id(), l, seed)
                assert shortest_augmenting_path_length(g, f1, l) is None
                rows += 1
                violations = length_boundary_violations(g, cfg)
                assert violations == [], (spec.instance_id(), l, seed, violations)
                boundary_runs += 1
    announce(f"AC-3  length-l gap bound + certificate: PASS ({rows} runs, exact)")
    announce(f"AC-4  boundary invariant: PASS ({boundary_runs} runs, zero violations)")


# --- criteria 5 + 6 --------------------------------------------------------


def _locality_suite() -> list[tuple[InstanceSpec, int, int]]:
    """20 instances, each assigned one (l, s) configuration."""
    suite: list[tuple[InstanceSpec, int, int]] = []
    # (3, 2): large-diameter families so the radius-6 balls are proper subsets.
    suite.append((InstanceSpec("grid", gen_seed=8001, params={"rows": 8, "cols": 10}), 3, 2))
    suite.append((InstanceSpec("grid", gen_seed=8002, params={"rows": 10, "cols": 12},
                               rho_s=Fraction(1, 4), rho_t=Fraction(1, 4)), 3, 2))
    suite.append((InstanceSpec("grid", gen_seed=8003, params={"rows": 15, "cols": 20}), 3, 2))
    suite.append((InstanceSpec("layered", gen_seed=8004, params={"layers": 8, "width": 6}), 3, 2))
    suite.append((InstanceSpec("path_bundle", gen_seed=8005,
                               params={"bottlenecks": [2, 4, 3], "path_len": 16}), 3, 2))
    suite.append((InstanceSpec("random_bounded", n=120, gen_seed=8006,
                               params={"rounds": 2}), 3, 2))
    suite.append((InstanceSpec("random_bounded", n=60, gen_seed=8007), 3, 2))
    # (4, 3): radius 12.
    suite.append((InstanceSpec("random_bounded", n=40, gen_seed=8011,
                               params={"rounds": 4}), 4, 3))
    suite.append((InstanceSpec("random_bounded", n=80, gen_seed=8012,
                               params={"rounds": 3}), 4, 3))
    suite.append((InstanceSpec("random_bounded", n=120, gen_seed=8013,
                               params={"rounds": 4}), 4, 3))
    suite.append((InstanceSpec("grid", gen_seed=8014, params={"rows": 6, "cols": 28}), 4, 3))
    suite.append((InstanceSpec("layered", gen_seed=8015, params={"layers": 10, "width": 4}), 4, 3))
    suite.append((InstanceSpec("path_bundle", gen_seed=8016,
                               params={"bottlenecks": [3, 5], "path_len": 20}), 4, 3))
    suite.append((InstanceSpec("random_bounded", n=200, gen_seed=8017,
                               params={"rounds": 2}), 4, 3))
    # (6, 3): radius 18; small-diameter instances keep the reruns shared.
    suite.append((InstanceSpec("random_bounded", n=60, gen_seed=8021,
                               params={"rounds": 4}), 6, 3))
    suite.append((InstanceSpec("random_bounded", n=100, gen_seed=8022,
                               params={"rounds": 4}), 6, 3))
    suite.append((InstanceSpec("random_bounded", n=150, gen_seed=8023,
                               params={"rounds": 3}), 6, 3))
    suite.append((InstanceSpec("layered", gen_seed=8024, params={"layers": 7, "width": 8}), 6, 3))
    suite.append((InstanceSpec("path_bundle", gen_seed=8025,
                               params={"bottlenecks": [1, 2, 2], "path_len": 24}), 6, 3))
    suite.append((InstanceSpec("random_bounded", n=300, gen_seed=8026,
                               params={"rounds": 2}), 6, 3))
    return suite


def test_ac5_exact_locality_full_edge_sets(announce):
    suite = _locality_suite()
    assert len(suite) == 20
    edges_checked = 0
    for spec, l, s in suite:
        g, _ = generate(spec)
        assert g.n <= 300
        refs = [DirectedEdgeRef(e.id, "AB") for e in g.edges]
        for seed in SEEDS:
            report = verify_locality(g, RunConfig(l=l, s=s, seed=seed), refs)
            assert report.passed, (spec.instance_id(), l, s, seed, report.mismatches[:3])
            edges_checked += report.checked
    announce(
        f"AC-5  exact locality: PASS ({edges_checked} edge checks bit-exact on "
        f"20 instances x {len(SEEDS)} seeds)"
    )


@pytest.mark.xfail(
    strict=True,
    reason="radius s*l-1 still replays the global run exactly: any difference "
    "cascade forces a skip chain whose first s paths sit within radius "
    "s*(l-1) <= s*l-1 of the edge, so both runs skip identically (see "
    "decisions ledger); the stated negative control can never mismatch",
)
def test_ac5_negative_control_radius_minus_one(announce):
    mismatches = 0
    for spec, l, s in _locality_suite():
        g, _ = generate(spec)
        refs = [DirectedEdgeRef(e.id, "AB") for e in g.edges]
        for seed in SEEDS:
            report = verify_locality(g, RunConfig(l=l, s=s, seed=seed), refs, radius=s * l - 1)
            mismatches += len(report.mismatches)
    announce(
        f"AC-5n negative control at radius s*l-1: {mismatches} mismatches "
        "(criterion expects >= 1; unattainable per ledger analysis)"
    )
    assert mismatches >= 1


def test_ac5_power_demonstration_at_insufficient_radius(announce):
    # Radius below l-1 hides targets from the ball, so the check must fire.
    spec = InstanceSpec("path_bundle", params={"bottlenecks": [3], "path_len": 3})
    g, _ = generate(spec)
    cfg = RunConfig(l=3, s=2, seed=0)
    report = verify_locality(g, cfg, [DirectedEdgeRef(0, "AB")], radius=1)
    assert len(report.mismatches) == 1
    mm = report.mismatches[0]
    assert (mm.global_value, mm.local_value) == (3, 0)
    announce("AC-5p locality check power: PASS (radius 1 < l-1 yields a mismatch)")


def test_ac6_differing_edges_have_deep_paths(announce):
    violations = 0
    differing = 0
    for spec, l, s in _locality_suite()[:12]:
        g, _ = generate(spec)
        for seed in SEEDS:
            f1, _ = run_a1(g, RunConfig(l=l, seed=seed))
            f2, _ = run_a2(g, RunConfig(l=l, s=s, seed=seed))
            if f1 == f2:
                continue
            deep = max_depth_per_edge(g, l, seed)
            for e in g.edges:
                if f1.on_edge(e.id) != f2.on_edge(e.id):
                    differing += 1
                    if deep.get(e.id, 0) < s:
                        violations += 1
    assert violations == 0
    announce(
        f"AC-6  skip-chain structure: PASS ({differing} differing edges, "
        "each carries a path of depth >= s; zero violations)"
    )


# --- criterion 7 -----------------------------------------------------------


def test_ac7_chain_depth_tail(announce):
    l = 6
    specs = [
        InstanceSpec("random_bounded", n=60, gen_seed=9001),
        InstanceSpec("random_bounded", n=100, gen_seed=9002),
    ]
    rows, _ = experiment_chain_tail(specs, l=l, seeds=list(range(100)))
    for spec in specs:
        mine = [r for r in rows if r["instance"] == spec.instance_id()]
        tails = [Fraction(r["count_ge"], r["covered"]) for r in mine]
        assert tails == sorted(tails, reverse=True)
        below = [r["q"] for r in mine if Fraction(r["count_ge"], r["covered"]) < Fraction(1, 20)]
        qs = [r["q"] for r in mine]
        q_star = min(below) if below else max(qs) + 1  # tail is 0 past max q
        assert q_star <= 5 * l, (spec.instance_id(), q_star)
    announce(
        "AC-7  chain-depth tail: PASS (non-increasing; drops below 0.05 "
        f"within q <= {5 * l} on 100 seeds)"
    )


# --- criterion 8 -----------------------------------------------------------


def test_ac8_chain_depth_dp_vs_brute_force(announce):
    cases = 0
    i = 0
    while cases < 100 and i < 300:
        spec = InstanceSpec(
            "random_bounded", n=8 + (i % 6), d=4, m_ticks=3,
            gen_seed=9500 + i, rho_s=Fraction(3, 10), rho_t=Fraction(3, 10),
        )
        i += 1
        g, _ = generate(spec)
        paths = enumerate_paths(g, 3)
        if not paths or len(paths) > 30:
            continue
        for seed in (1, 2, 3):
            assert chain_depth_all(paths, seed) == brute_chain_depths(paths, seed)
            cases += 1
    assert cases >= 100
    announce(f"AC-8  chain-depth DP vs brute force: PASS ({cases} cases, exact)")


# --- criterion 9 -----------------------------------------------------------


def test_ac9_exhaustive_tester_telescopes(announce):
    count = 0
    for i in range(20):
        family = ("random_bounded", "grid", "layered", "path_bundle")[i % 4]
        if family == "random_bounded":
            spec = InstanceSpec(family, n=16 + 2 * (i % 5), gen_seed=9700 + i,
                                rho_s=Fraction(1, 4), rho_t=Fraction(1, 4))
        elif family == "grid":
            spec = InstanceSpec(family, gen_seed=9700 + i, params={"rows": 4, "cols": 5})
        elif family == "layered":
            spec = InstanceSpec(family, gen_seed=9700 + i, params={"layers": 4, "width": 4})
        else:
            spec = InstanceSpec(family, params={"bottlenecks": [2, 1 + i % 3], "path_len": 2})
        g, _ = generate(spec)
        cfg = TesterConfig(l=3, s=2, seeds=(1, 2, 3))
        assert run_tester(g, cfg, exhaustive=True).estimate == fbar2_value(g, cfg) / g.n
        count += 1
    announce(f"AC-9  exhaustive tester telescoping: PASS ({count} instances, exact rational)")


# --- criterion 10 ----------------------------------------------------------


def test_ac10_tester_concentration(announce):
    worst_fail = 0
    for gi, n in enumerate((40, 60, 60)):
        spec = InstanceSpec("random_bounded", n=n, gen_seed=9800 + gi,
                            rho_s=Fraction(1, 4), rho_t=Fraction(1, 4),
                            params={"rounds": 4})
        g, _ = generate(spec)
        cfg = TesterConfig(l=3, s=2, seeds=(1, 2, 3), k=1000)
        reference = fbar2_value(g, cfg) / g.n
        slack = Fraction(1, 10) * g.degree_bound * g.capacity_bound_ticks
        estimates = [run_tester(g, replace(cfg, sample_seed=seed)).estimate
                     for seed in range(100)]
        failures = sum(1 for est in estimates if abs(est - reference) > slack)
        worst_fail = max(worst_fail, failures)
        assert failures <= 1, (spec.instance_id(), failures)
    announce(
        f"AC-10 tester concentration: PASS (k=1000, 100 sampling seeds per "
        f"instance, worst excess count {worst_fail} <= 1)"
    )


# --- criterion 11 ----------------------------------------------------------


def _cli(capsys, *argv: str) -> tuple[int, str]:
    code = cli_main(list(argv))
    return code, capsys.readouterr().out


def test_ac11_cli_determinism(announce, tmp_path, capsys):
    graph_path = tmp_path / "g.json"
    code, _ = _cli(capsys, "generate", "--family", "random_bounded", "--n", "40",
                   "--gen-seed", "3", "--out", str(graph_path))
    assert code == 0
    first = graph_path.read_bytes()
    code, _ = _cli(capsys, "generate", "--family", "random_bounded", "--n", "40",
                   "--gen-seed", "3", "--out", str(graph_path))
    assert code == 0
    assert graph_path.read_bytes() == first

    outputs = []
    for rerun in (1, 2):
        flow_path = tmp_path / f"f{rerun}.json"
        trace_path = tmp_path / f"t{rerun}.jsonl"
        code, out = _cli(capsys, "run-a2", "--graph", str(graph_path), "--l", "4",
                         "--s", "2", "--seed", "9", "--out", str(flow_path),
                         "--trace", str(trace_path))
        assert code == 0
        outputs.append((out, flow_path.read_bytes(), trace_path.read_bytes()))
    assert outputs[0] == outputs[1]

    specs_path = tmp_path / "specs.json"
    specs_path.write_text(json.dumps(
        [{"family": "random_bounded", "n": 30, "gen_seed": 4}]
    ))
    outputs = []
    for rerun in (1, 2):
        csv_path = tmp_path / f"loc{rerun}.csv"
        code, out = _cli(capsys, "experiment", "locality", "--specs", str(specs_path),
                         "--cfgs", "3:2", "--seeds", "1,2", "--out", str(csv_path))
        assert code == 0
        code, tester_out = _cli(capsys, "tester", "--graph", str(graph_path),
                                "--l", "3", "--s", "2", "--seeds", "1,2",
                                "--k", "50", "--seed", "5")
        assert code == 0
        outputs.append((out, csv_path.read_bytes(), tester_out))
    assert outputs[0] == outputs[1]

    code, verify1 = _cli(capsys, "verify-locality", "--graph", str(graph_path),
                         "--l", "3", "--s", "2", "--seed", "1", "--sample", "all")
    assert code == 0
    code, verify2 = _cli(capsys, "verify-locality", "--graph", str(graph_path),
                         "--l", "3", "--s", "2", "--seed", "1", "--sample", "all")
    assert code == 0
    assert verify1 == verify2
    announce("AC-11 CLI determinism: PASS (reruns byte-identical)")
