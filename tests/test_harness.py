from __future__ import annotations

import io
import json
from fractions import Fraction

import pytest

from localflow.exact_oracle import max_flow
from localflow.graph_core import dumps_json, graph_to_json, validate_graph
from localflow.harness import (
    APPROX_COLUMNS,
    CHAIN_TAIL_COLUMNS,
    LOCALITY_COLUMNS,
    InstanceSpec,
    dec_str,
    default_specs,
    experiment_approx,
    experiment_chain_tail,
    experiment_locality,
    frac_str,
    generate,
    write_csv,
)


def test_path_bundle_known_value():
    spec = InstanceSpec("path_bundle", params={"bottlenecks": [2, 3, 4], "path_len": 3})
    g, meta = generate(spec)
    assert meta["known_max_flow_ticks"] == 9
    assert max_flow(g).value == 9
    assert g.n == 3 * 4


def test_generation_is_deterministic():
    spec = InstanceSpec("random_bounded", n=50, gen_seed=12)
    g1, _ = generate(spec)
    g2, _ = generate(spec)
    assert dumps_json(graph_to_json(g1)) == dumps_json(graph_to_json(g2))


def test_random_bounded_respects_degree_bound():
    spec = InstanceSpec("random_bounded", n=200, d=4, gen_seed=7)
    g, _ = generate(spec)
    assert validate_graph(g).ok
    assert max(len(g.incident_edge_ids(nd.id)) for nd in g.nodes) <= 4


def test_all_families_validate():
    for spec in default_specs():
        g, _ = generate(spec)
        assert validate_graph(g).ok


def test_infeasible_color_fractions_rejected():
    spec = InstanceSpec("random_bounded", n=10, rho_s=Fraction(3, 5), rho_t=Fraction(3, 5))
    with pytest.raises(ValueError, match="infeasible color fractions"):
        generate(spec)


def test_unknown_family_rejected():
    with pytest.raises(ValueError, match="unknown family"):
        generate(InstanceSpec("mystery", n=5))


def test_bad_family_params_name_the_field():
    with pytest.raises(ValueError, match="rows"):
        generate(InstanceSpec("grid", params={"rows": 0, "cols": 5}))
    with pytest.raises(ValueError, match="bottlenecks"):
        generate(InstanceSpec("path_bundle", m_ticks=3, params={"bottlenecks": [9]}))


def test_spec_json_round_trip():
    spec = InstanceSpec(
        "layered", n=0, d=3, m_ticks=4, quantum=Fraction(1, 2),
        rho_s=Fraction(1, 4), rho_t=Fraction(1, 4), gen_seed=5,
        params={"layers": 3, "width": 4},
    )
    again = InstanceSpec.from_json(spec.to_json())
    assert again == spec
    for spec in default_specs():
        assert InstanceSpec.from_json(json.loads(json.dumps(spec.to_json()))) == spec


@pytest.mark.parametrize("obj, field", [
    ({"n": 30.9}, "n"),
    ({"n": "30"}, "n"),
    ({"d": 4.0}, "d"),
    ({"m_ticks": True}, "m_ticks"),
    ({"gen_seed": True}, "gen_seed"),
    ({"params": {"rounds": 2.7}}, "rounds"),
    ({"params": {"rows": "6", "cols": 8}}, "rows"),
    ({"params": {"cap_min": False}}, "cap_min"),
    ({"params": {"bottlenecks": [2, 3.0]}}, "bottlenecks"),
    ({"params": {"bottlenecks": 3}}, "bottlenecks"),
])
def test_spec_json_takes_only_true_integers(obj, field):
    with pytest.raises(ValueError, match=f"bad field '{field}'"):
        InstanceSpec.from_json({"family": "random_bounded", **obj})


def test_rational_rendering():
    assert frac_str(Fraction(1, 3)) == "1/3"
    assert dec_str(Fraction(1, 3)) == "0.333333333333"
    assert dec_str(Fraction(-7, 2)) == "-3.500000000000"
    assert dec_str(Fraction(0)) == "0.000000000000"
    assert dec_str(Fraction(2, 3)) == "0.666666666667"


def test_experiment_approx_small_suite_passes():
    specs = [
        InstanceSpec("path_bundle", params={"bottlenecks": [2, 3], "path_len": 2}),
        InstanceSpec("random_bounded", n=24, gen_seed=1),
    ]
    rows, ok = experiment_approx(specs, [2, 4], [1, 2], s=2)
    assert ok
    run_rows = [r for r in rows if r["kind"] == "run"]
    mean_rows = [r for r in rows if r["kind"] == "seed_mean"]
    assert len(run_rows) == 2 * 2 * 2
    assert len(mean_rows) == 2 * 2
    assert all(r["gap_bound_ok"] for r in run_rows)
    assert all(r["no_short_path_ok"] for r in run_rows)
    # bundle at l >= path length closes the gap entirely
    bundle = [r for r in run_rows if r["family"] == "path_bundle" and r["l"] == 2]
    assert all(r["f1"] == r["fstar"] == 5 for r in bundle)


def test_experiment_approx_threads_equal_rows():
    specs = [InstanceSpec("random_bounded", n=20, gen_seed=3)]
    rows1, _ = experiment_approx(specs, [3], [1, 2, 3], s=2, threads=1)
    rows4, _ = experiment_approx(specs, [3], [1, 2, 3], s=2, threads=4)
    assert rows1 == rows4


def test_chain_tail_on_disjoint_bundle_is_depth_one():
    specs = [InstanceSpec("path_bundle", params={"bottlenecks": [1, 1, 1], "path_len": 2})]
    rows, ok = experiment_chain_tail(specs, l=3, seeds=[1, 2, 3])
    assert ok
    assert [r["q"] for r in rows] == [1]
    assert rows[0]["tail_frac"] == "1/1"
    assert rows[0]["covered"] == 18  # 2 edges per path x 3 paths x 3 seeds


def test_chain_tail_is_monotone_nonincreasing():
    specs = [InstanceSpec("random_bounded", n=40, gen_seed=9, rho_s=0.25, rho_t=0.25)]
    rows, _ = experiment_chain_tail(specs, l=4, seeds=list(range(10)))
    tails = [Fraction(r["count_ge"], r["covered"]) for r in rows]
    assert tails == sorted(tails, reverse=True)
    assert tails[0] == 1  # every covered edge has depth >= 1


def test_experiment_locality_reports_and_passes():
    specs = [InstanceSpec("random_bounded", n=18, gen_seed=4, rho_s=0.25, rho_t=0.25)]
    rows, ok = experiment_locality(specs, [(3, 2)], seeds=[1, 2], sample="all")
    assert ok
    checks = [r for r in rows if r["role"] == "check"]
    controls = [r for r in rows if r["role"] == "negative_control"]
    assert len(checks) == 2 and len(controls) == 2
    assert all(r["mismatches"] == 0 for r in checks)
    assert all(r["radius"] == 5 for r in controls)


def test_experiment_locality_empty_spec_list_passes_trivially():
    rows, ok = experiment_locality([], [(3, 2)], seeds=[1])
    assert ok and rows == []


def test_write_csv_fixed_columns():
    rows, _ = experiment_chain_tail(
        [InstanceSpec("path_bundle", params={"bottlenecks": [1], "path_len": 1})],
        l=2, seeds=[1],
    )
    buf = io.StringIO()
    write_csv(rows, CHAIN_TAIL_COLUMNS, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == ",".join(CHAIN_TAIL_COLUMNS)
    assert len(lines) == 1 + len(rows)


def test_columns_cover_all_row_keys():
    specs = [InstanceSpec("random_bounded", n=14, gen_seed=2)]
    rows, _ = experiment_approx(specs, [2], [1], s=2)
    assert all(set(r) <= set(APPROX_COLUMNS) for r in rows)
    rows, _ = experiment_locality(specs, [(2, 2)], seeds=[1])
    assert all(set(r) <= set(LOCALITY_COLUMNS) for r in rows)
