from __future__ import annotations

import hashlib
import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import localflow.local_flow as local_flow_module
from localflow.exact_oracle import max_flow
from conftest import count_flow_validations
from localflow.graph_core import (
    ColoredGraph,
    Edge,
    Flow,
    Node,
    dumps_json,
    flow_value,
    graph_to_json,
    validate_graph,
)
from localflow.harness import (
    _FAMILY_FIELDS,
    APPROX_COLUMNS,
    CHAIN_TAIL_COLUMNS,
    LOCALITY_COLUMNS,
    InstanceSpec,
    _length_lemma,
    dec_str,
    default_specs,
    experiment_approx,
    experiment_chain_tail,
    experiment_locality,
    frac_str,
    generate,
    write_csv,
)
from localflow.local_flow import RunConfig, _ball_radius, run_a1
from oracles import residual_sp_length
from test_json_properties import graphs


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
    assert max(len(g._adj[nd.id]) // 2 for nd in g.nodes) <= 4


def test_all_families_validate():
    for spec in default_specs():
        g, _ = generate(spec)
        assert validate_graph(g).ok


PINNED_SPECS = {
    "path_bundle": {"params": {"bottlenecks": [2, 3, 4], "path_len": 3}},
    "grid": {"params": {"rows": 6, "cols": 8}},
    "random_bounded": {"n": 200, "params": {"rounds": 3}},
    "layered": {"params": {"layers": 5, "width": 5}},
}


@pytest.mark.parametrize("family, seed, rho, digest", [
    ("path_bundle", 0, (Fraction(1, 5), Fraction(1, 5)), "76c6dc4209246ba9"),
    ("random_bounded", 3, (Fraction(1, 4), Fraction(1, 2)), "b9025fc51e491ca0"),
    ("grid", 1, (Fraction(1, 5), Fraction(1, 5)), "5a63334e78884e57"),
    ("grid", 2, (Fraction(1, 3), Fraction(1, 7)), "dceba361e0b2951b"),
    ("random_bounded", 1, (Fraction(1, 5), Fraction(1, 5)), "ae560f0340450046"),
    ("random_bounded", 2, (Fraction(1, 3), Fraction(1, 7)), "dbdc3f80a617fba6"),
    ("layered", 1, (Fraction(1, 5), Fraction(1, 5)), "594da9a7fd2ad99d"),
    ("layered", 2, (Fraction(1, 5), Fraction(1, 5)), "86d8f59b0213845a"),
])
def test_generated_graphs_are_pinned(family, seed, rho, digest):
    """Every family's nodes and edges, bit for bit, at two seeds and two
    color splits for the families that read them (three for random_bounded;
    path_bundle reads neither): a faster generator must build the same
    graphs."""
    g, _ = generate(InstanceSpec(family, gen_seed=seed, rho_s=rho[0], rho_t=rho[1],
                                 **PINNED_SPECS[family]))
    blob = repr(([(nd.id, nd.color) for nd in g.nodes],
                 [(e.id, e.a, e.b, e.cap_ab, e.cap_ba) for e in g.edges])).encode()
    assert hashlib.sha256(blob).hexdigest()[:16] == digest


def test_infeasible_color_fractions_rejected():
    with pytest.raises(ValueError, match="infeasible color fractions"):
        InstanceSpec("random_bounded", n=10, rho_s=Fraction(3, 5), rho_t=Fraction(3, 5))


def test_unknown_family_rejected():
    with pytest.raises(ValueError, match="unknown family"):
        InstanceSpec("mystery", n=5)


@pytest.mark.parametrize("family, param", [
    ("grid", "rounds"), ("grid", "layers"), ("random_bounded", "rows"),
    ("path_bundle", "cap_min"), ("layered", "bottlenecks"), ("random_bounded", "cap_mn"),
])
def test_spec_refuses_a_param_its_family_does_not_read(family, param):
    with pytest.raises(ValueError, match=f"bad field '{param}' in instance spec params: "
                                         f"not a param of family '{family}'"):
        InstanceSpec(family, n=10, params={param: 3})


@pytest.mark.parametrize("field, value", [
    ("quantum", 0.1), ("rho_s", 0.1), ("rho_t", 0.25), ("quantum", True), ("rho_s", False),
])
def test_spec_built_in_python_takes_only_exact_rationals(field, value):
    with pytest.raises(ValueError, match=f"bad field '{field}' in instance spec: expected an "
                                         "integer or a Fraction"):
        InstanceSpec("grid", **{field: value})


UNREAD_FIELDS = [
    ("grid", {"n": 500}, "n", "does not read it"),
    ("layered", {"n": 3}, "n", "does not read it"),
    ("layered", {"rho_s": Fraction(1, 2)}, "rho_s", "does not read it"),
    ("layered", {"rho_t": Fraction(0)}, "rho_t", "does not read it"),
    ("path_bundle", {"rho_s": Fraction(1, 3)}, "rho_s", "does not read it"),
    ("path_bundle", {"rho_t": 1}, "rho_t", "does not read it"),
    ("path_bundle", {"n": -4}, "n", "expected an integer >= 0"),
    ("random_bounded", {"n": -1}, "n", "expected an integer >= 0"),
    ("grid", {"n": -2}, "n", "expected an integer >= 0"),
    ("path_bundle", {"gen_seed": 2}, "gen_seed", "does not read it"),
]


@pytest.mark.parametrize("family, given, field, why", UNREAD_FIELDS)
def test_spec_refuses_a_field_its_family_does_not_read(family, given, field, why):
    """A field the generator would ignore, or a negative n, is refused
    whether the spec is built in Python or read from JSON."""
    with pytest.raises(ValueError, match=f"bad field '{field}' in instance spec: .*{why}"):
        InstanceSpec(family, **given)
    obj = {"family": family, **{key: str(v) if isinstance(v, Fraction) else v
                                for key, v in given.items()}}
    with pytest.raises(ValueError, match=f"bad field '{field}' in instance spec: .*{why}"):
        InstanceSpec.from_json(obj)


def test_instance_id_hashes_the_params_as_given():
    bare = InstanceSpec("random_bounded", n=60, gen_seed=1)
    assert bare.instance_id() == "random_bounded-n60-d4-M5-g1"
    explicit = InstanceSpec("random_bounded", n=60, gen_seed=1, params={"rounds": 2})
    assert explicit.instance_id().startswith("random_bounded-n60-d4-M5-g1-p")


def test_empty_bottlenecks_mean_no_paths():
    g, meta = generate(InstanceSpec("path_bundle", n=3, params={"bottlenecks": []}))
    assert (g.n, meta["known_max_flow_ticks"]) == (0, 0)
    g, meta = generate(InstanceSpec("path_bundle", n=3))
    assert (len(g.edges), meta["known_max_flow_ticks"]) == (9, 3)


def test_bad_family_params_name_the_field():
    with pytest.raises(ValueError, match="rows"):
        generate(InstanceSpec("grid", params={"rows": 0, "cols": 5}))
    with pytest.raises(ValueError, match="bottlenecks"):
        generate(InstanceSpec("path_bundle", m_ticks=3, params={"bottlenecks": [9]}))


@pytest.mark.parametrize("family, params, minimum", [
    ("random_bounded", {"rounds": -3}, 1),
    ("random_bounded", {"rounds": 0}, 1),
    ("layered", {"fanout": -2}, 1),
    ("layered", {"fanout": 0}, 1),
    ("layered", {"layers": 1}, 2),
    ("layered", {"width": 0}, 1),
    ("path_bundle", {"path_len": 0}, 1),
    ("grid", {"rows": 3, "cols": 0}, 1),
    ("grid", {"rows": 3, "cols": 3, "cap_min": -1}, 0),
    ("random_bounded", {"cap_min": -1}, 0),
])
def test_spec_refuses_a_param_below_its_minimum(family, params, minimum):
    (field, value), = ((k, v) for k, v in params.items() if v < minimum)
    n = 10 if "n" in _FAMILY_FIELDS[family] else 0
    with pytest.raises(ValueError, match=f"bad field '{field}' in instance spec params: "
                                         f"expected an integer >= {minimum}, got {value}"):
        InstanceSpec(family, n=n, params=params)
    g, _ = generate(InstanceSpec(family, n=n, params={**params, field: minimum}))
    assert g.edges  # the minimum itself builds a graph with edges


@pytest.mark.parametrize("family, fields, message", [
    ("random_bounded", {"n": 1}, "bad field 'n': random_bounded needs n >= 2, got 1"),
    ("grid", {}, "bad field 'rows'/'cols': grid needs rows >= 1 and cols >= 1"),
    ("path_bundle", {"params": {"bottlenecks": 3}},
     "bad field 'bottlenecks' in instance spec params: expected a list of integers, got 3"),
], ids=["random_bounded_n1", "grid_no_size", "path_bundle_int_bottlenecks"])
def test_generate_refuses_a_spec_its_family_cannot_build(family, fields, message):
    with pytest.raises(ValueError) as err:
        generate(InstanceSpec(family, **fields))
    assert str(err.value) == message


def test_spec_refuses_cap_min_above_m_ticks():
    with pytest.raises(ValueError, match="bad field 'cap_min' in instance spec params: "
                                         "expected at most m_ticks=5, got 9"):
        InstanceSpec("grid", m_ticks=5, params={"rows": 3, "cols": 3, "cap_min": 9})
    g, _ = generate(InstanceSpec("grid", m_ticks=5, params={"rows": 3, "cols": 3, "cap_min": 5}))
    assert {e.cap_ab for e in g.edges} | {e.cap_ba for e in g.edges} == {5}


def test_spec_json_round_trip():
    spec = InstanceSpec(
        "grid", n=0, d=3, m_ticks=4, quantum=Fraction(1, 2),
        rho_s=Fraction(1, 4), rho_t=Fraction(1, 4), gen_seed=5,
        params={"rows": 3, "cols": 4},
    )
    again = InstanceSpec.from_json(spec.to_json())
    assert again == spec
    for spec in default_specs():
        assert InstanceSpec.from_json(json.loads(json.dumps(spec.to_json()))) == spec


NON_INTEGER_FIELDS = [
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
    ({"params": {"rows": 6.7, "cols": 8}}, "rows"),
    ({"params": 5}, "params"),
    ({"params": [["rows", 2]]}, "params"),
]


@pytest.mark.parametrize("obj, field", NON_INTEGER_FIELDS)
def test_spec_json_takes_only_true_integers(obj, field):
    with pytest.raises(ValueError, match=f"bad field '{field}'"):
        InstanceSpec.from_json({"family": "random_bounded", **obj})


@pytest.mark.parametrize("obj, field", NON_INTEGER_FIELDS)
def test_spec_built_in_python_takes_only_true_integers(obj, field):
    """The generators read the fields as they are, so none is coerced."""
    with pytest.raises(ValueError, match=f"bad field '{field}'"):
        InstanceSpec("grid", **obj)


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
    assert all(r["sharp_bound_ok"] for r in run_rows)
    # bundle at l >= path length closes the gap entirely
    bundle = [r for r in run_rows if r["family"] == "path_bundle" and r["l"] == 2]
    assert all(r["f1"] == r["fstar"] == 5 for r in bundle)


@st.composite
def graphs_with_a_long_chain(draw) -> tuple[ColoredGraph, int]:
    """A ``graphs()`` example and an l in 1..4, with a disjoint S-R...R-T
    chain of l+1 edges added on fresh ids: no path of at most l edges uses
    it, so A1 at cap l leaves it empty, and a maximum flow does not."""
    g, l = draw(graphs()), draw(st.integers(1, 4))
    m = g.capacity_bound_ticks
    first = 10**6 + 1  # above every id that graphs() draws
    nodes = tuple(Node(first + i, color) for i, color in enumerate("S" + "R" * l + "T"))
    chain = tuple(Edge(first + i, first + i, first + i + 1, draw(st.integers(1, m)),
                       draw(st.integers(1, m))) for i in range(l + 1))
    return ColoredGraph(g.nodes + nodes, g.edges + chain, max(g.degree_bound, 2), m,
                        g.quantum), l


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(graphs_with_a_long_chain(), st.integers(1, 3))
def test_the_sharp_length_bound_holds_for_flows_with_no_short_path(g_l, seed):
    """A flow that leaves no residual S->T path of at most l edges, as A1's
    does, has (|f*| - |f1|)*(l+1) <= sum_e |f*(e) - f1(e)|; the sum is at
    most 2M|E| <= d*M*n, which gives the paper's line.  The added chain
    gives every example a gap of at least 1.  The zero flow meets the bound
    whenever no S->T path of at most l edges has room on every arc."""
    g, l = g_l
    best = max_flow(g)
    f1, _ = run_a1(g, RunConfig(l=l, seed=seed))
    assert residual_sp_length(g, f1.values, l) is None
    assert best.value - flow_value(g, f1) >= 1
    l1, sharp_ok = _length_lemma(g, best.flow, f1, l)
    assert sharp_ok
    m, edges = g.capacity_bound_ticks, len(g.edges)
    assert l1 <= 2 * m * edges <= g.degree_bound * m * g.n
    if residual_sp_length(g, {}, l) is None:
        assert _length_lemma(g, best.flow, Flow.zero(), l)[1]


def test_experiment_approx_validates_each_row_flow_twice(monkeypatch):
    # Each row validates its A1 and its A2 flow once, in the runs; the
    # no-short-path certificate reads the validated A1 flow unchecked.
    specs = default_specs()[:2]
    calls = count_flow_validations(monkeypatch)
    rows, ok = experiment_approx(specs, [2, 4], [1, 2], s=2)
    run_rows = [r for r in rows if r["kind"] == "run"]
    assert ok and len(run_rows) == 8
    assert len(calls) == 2 * len(run_rows) + len(specs)  # + one per max_flow


def test_experiment_approx_reruns_equal_rows():
    specs = [InstanceSpec("random_bounded", n=20, gen_seed=3)]
    runs = [experiment_approx(specs, [3], [1, 2, 3], s=2) for _ in range(2)]
    assert runs[0] == runs[1]


def test_chain_tail_on_disjoint_bundle_is_depth_one():
    specs = [InstanceSpec("path_bundle", params={"bottlenecks": [1, 1, 1], "path_len": 2})]
    rows, ok = experiment_chain_tail(specs, l=3, seeds=[1, 2, 3])
    assert ok
    assert [r["q"] for r in rows] == [1]
    assert rows[0]["tail_frac"] == "1/1"
    assert rows[0]["covered"] == 18  # 2 edges per path x 3 paths x 3 seeds


def test_chain_tail_is_monotone_nonincreasing():
    specs = [InstanceSpec("random_bounded", n=40, gen_seed=9,
                           rho_s=Fraction(1, 4), rho_t=Fraction(1, 4))]
    rows, _ = experiment_chain_tail(specs, l=4, seeds=list(range(10)))
    tails = [Fraction(r["count_ge"], r["covered"]) for r in rows]
    assert tails == sorted(tails, reverse=True)
    assert tails[0] == 1  # every covered edge has depth >= 1


def test_experiment_locality_reports_and_passes(monkeypatch):
    """One row, and one global run, per (instance, l, s, seed)."""
    runs = []
    real_run_a2 = local_flow_module.run_a2

    def counting(g, cfg):
        runs.append(cfg)
        return real_run_a2(g, cfg)

    monkeypatch.setattr(local_flow_module, "run_a2", counting)
    specs = [InstanceSpec("random_bounded", n=18, gen_seed=4,
                           rho_s=Fraction(1, 4), rho_t=Fraction(1, 4))]
    rows, ok = experiment_locality(specs, [(3, 2)], seeds=[1, 2])
    assert ok
    assert [r["seed"] for r in rows] == [1, 2]
    assert all(r["mismatches"] == 0 and r["ok"] for r in rows)
    assert all(r["radius"] == _ball_radius(3, 2) == 4 for r in rows)
    assert [(cfg.l, cfg.s, cfg.seed) for cfg in runs] == [(3, 2, 1), (3, 2, 2)]


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
