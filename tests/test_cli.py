from __future__ import annotations

import json
import shlex
from pathlib import Path

import pytest

import localflow.cli as cli_module
from conftest import count_flow_validations, seed_sensitive_graph
from localflow.cli import main
from localflow.exact_oracle import max_flow
from localflow.graph_core import (
    DirectedEdgeRef,
    dumps_json,
    flow_from_json,
    graph_from_json,
    graph_to_json,
    validate_flow,
)
from localflow.harness import InstanceSpec, generate
from localflow.local_flow import RunConfig, verify_locality
from localflow.path_engine import chain_depth_all, enumerate_paths, path_key


def run_cli(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


@pytest.fixture()
def bundle_graph(tmp_path, capsys):
    path = tmp_path / "pb.json"
    code, _ = run_cli(
        capsys, "generate", "--family", "path_bundle",
        "--bottlenecks", "2,3,4", "--path-len", "3", "--out", str(path),
    )
    assert code == 0
    return path


@pytest.fixture()
def random_graph(tmp_path, capsys):
    path = tmp_path / "g.json"
    code, _ = run_cli(
        capsys, "generate", "--family", "random_bounded", "--n", "30",
        "--gen-seed", "5", "--rho-s", "1/4", "--rho-t", "1/4", "--out", str(path),
    )
    assert code == 0
    return path


def test_generate_embeds_known_value(bundle_graph):
    obj = json.loads(bundle_graph.read_text())
    assert obj["meta"]["known_max_flow_ticks"] == 9
    assert obj["degree_bound"] >= 2


def test_maxflow_prints_known_value(bundle_graph, capsys):
    code, out = run_cli(capsys, "maxflow", "--graph", str(bundle_graph))
    assert code == 0
    assert out.strip() == "9"


def test_maxflow_out_reads_back_as_the_maximum_flow(random_graph, tmp_path, capsys):
    out = tmp_path / "fstar.json"
    code, stdout = run_cli(capsys, "maxflow", "--graph", str(random_graph), "--out", str(out))
    assert code == 0
    g = graph_from_json(json.loads(random_graph.read_text()))
    best = max_flow(g)
    assert int(stdout) == best.value
    flow = flow_from_json(json.loads(out.read_text()))
    assert flow == best.flow
    assert validate_flow(g, flow).ok


def test_run_validates_its_flow_once(random_graph, capsys, monkeypatch):
    calls = count_flow_validations(monkeypatch)
    for command, extra in (("run-a1", ()), ("run-a2", ("--s", "3"))):
        calls.clear()
        code, out = run_cli(capsys, command, "--graph", str(random_graph), "--l", "5",
                            "--seed", "7", *extra)
        assert code == 0 and int(out) > 0
        assert len(calls) == 1
    calls.clear()
    code, out = run_cli(capsys, "maxflow", "--graph", str(random_graph))
    assert code == 0 and len(calls) == 1


def test_run_a1_twice_is_byte_identical(random_graph, tmp_path, capsys):
    out1 = tmp_path / "f1a.json"
    out2 = tmp_path / "f1b.json"
    tr1 = tmp_path / "t1.jsonl"
    tr2 = tmp_path / "t2.jsonl"
    code, stdout1 = run_cli(
        capsys, "run-a1", "--graph", str(random_graph), "--l", "6", "--seed", "7",
        "--out", str(out1), "--trace", str(tr1),
    )
    assert code == 0
    code, stdout2 = run_cli(
        capsys, "run-a1", "--graph", str(random_graph), "--l", "6", "--seed", "7",
        "--out", str(out2), "--trace", str(tr2),
    )
    assert code == 0
    assert stdout1 == stdout2
    assert out1.read_bytes() == out2.read_bytes()
    assert tr1.read_bytes() == tr2.read_bytes()


def test_run_a2_requires_s(random_graph, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run-a2", "--graph", str(random_graph), "--l", "4"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "--s" in captured.err


def test_epsilon_may_replace_l(bundle_graph, capsys):
    # epsilon 1 gives l = ceil(2*4*5/1) = 40, far longer than the bundle's paths.
    for epsilon in ("10", "1"):
        code, out = run_cli(
            capsys, "run-a1", "--graph", str(bundle_graph), "--epsilon", epsilon, "--seed", "1",
        )
        assert code == 0
        assert out.strip() == "9"


def test_local_f2_matches_global_value(random_graph, tmp_path, capsys):
    f2_path = tmp_path / "f2.json"
    code, _ = run_cli(
        capsys, "run-a2", "--graph", str(random_graph), "--l", "3", "--s", "2",
        "--seed", "1", "--out", str(f2_path),
    )
    assert code == 0
    flow = {item["id"]: item["f_ab"] for item in json.loads(f2_path.read_text())["edge_values"]}
    graph = json.loads(random_graph.read_text())
    edge = graph["edges"][0]["id"]
    for orientation, sign in (("AB", 1), ("BA", -1)):
        code, out = run_cli(
            capsys, "local-f2", "--graph", str(random_graph), "--edge", str(edge),
            "--l", "3", "--s", "2", "--seed", "1", "--orientation", orientation,
        )
        assert code == 0
        assert int(out.strip()) == sign * flow.get(edge, 0)


def test_verify_locality_full_sample_passes(random_graph, capsys):
    code, out = run_cli(
        capsys, "verify-locality", "--graph", str(random_graph),
        "--l", "3", "--s", "2", "--seed", "1", "--sample", "all",
    )
    assert code == 0
    assert "0 mismatches" in out


def test_numeric_sample_checks_that_many_edges(random_graph, tmp_path, capsys):
    code, out = run_cli(
        capsys, "verify-locality", "--graph", str(random_graph),
        "--l", "3", "--s", "2", "--seed", "1", "--sample", "4",
    )
    assert (code, out) == (0, "checked 4 edges, 0 mismatches\n")
    csv_path = tmp_path / "locality.csv"
    code, _ = run_cli(capsys, "experiment", "locality", "--seeds", "1", "--cfgs", "3:2",
                      "--sample", "3", "--out", str(csv_path))
    assert code == 0
    rows = [line.split(",") for line in csv_path.read_text().splitlines()]
    checked = rows[0].index("checked")
    assert len(rows) > 1 and all(row[checked] == "3" for row in rows[1:])


def test_verify_locality_bad_radius_exits_one(tmp_path, capsys):
    path = tmp_path / "line.json"
    code, _ = run_cli(
        capsys, "generate", "--family", "path_bundle",
        "--bottlenecks", "3", "--path-len", "3", "--out", str(path),
    )
    assert code == 0
    code, out = run_cli(
        capsys, "verify-locality", "--graph", str(path),
        "--l", "3", "--s", "2", "--seed", "0", "--sample", "all", "--radius", "1",
    )
    assert code == 1
    assert "mismatch" in out


def test_verify_locality_local_seed_reports_the_library_mismatches(tmp_path, capsys):
    # Seeds 0 and 1 give different A2 flows on this instance (see
    # test_mismatched_seed_negative_control_fails).
    g = seed_sensitive_graph()
    path = tmp_path / "race.json"
    path.write_text(dumps_json(graph_to_json(g)))
    refs = [DirectedEdgeRef(e.id, "AB") for e in g.edges]
    report = verify_locality(g, RunConfig(l=3, s=5, seed=0), refs, local_seed=1)
    assert report.mismatches
    expected = f"checked {len(refs)} edges, {len(report.mismatches)} mismatches\n" + "".join(
        f"mismatch edge {mm.edge.edge_id} AB: global {mm.global_value} local {mm.local_value}\n"
        for mm in report.mismatches
    )
    code, out = run_cli(capsys, "verify-locality", "--graph", str(path), "--l", "3", "--s", "5",
                        "--seed", "0", "--local-seed", "1")
    assert (code, out) == (1, expected)


def test_tester_exhaustive_reports_exact_rational(random_graph, capsys):
    code, out = run_cli(
        capsys, "tester", "--graph", str(random_graph), "--l", "3", "--s", "2",
        "--seeds", "1,2", "--sample", "all",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["r"] == 7
    assert "/" in payload["estimate"]
    assert len(payload["per_sample"]) == 30


def test_experiment_approx_writes_csv(tmp_path, capsys):
    out = tmp_path / "approx.csv"
    specs = tmp_path / "specs.json"
    specs.write_text(json.dumps([
        {"family": "path_bundle", "params": {"bottlenecks": [2, 2], "path_len": 2}},
        {"family": "random_bounded", "n": 20, "gen_seed": 1},
    ]))
    code, _ = run_cli(
        capsys, "experiment", "approx", "--specs", str(specs),
        "--l-sweep", "2,4", "--seeds", "1,2", "--s", "2", "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("kind,instance,family")
    assert len(lines) > 4


def test_dump_paths_json_lines(random_graph, capsys):
    code, out = run_cli(
        capsys, "dump-paths", "--graph", str(random_graph), "--l", "3", "--seed", "2",
    )
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert records
    assert all(set(r) == {"nodes", "length", "hash", "depth"} for r in records)
    assert all(1 <= r["length"] <= 3 and r["depth"] >= 1 for r in records)
    lengths = [r["length"] for r in records]
    assert lengths == sorted(lengths)  # emitted in processing order


def test_dump_paths_hashes_each_path_once(tmp_path, capsys, monkeypatch):
    g, _ = generate(InstanceSpec("random_bounded", n=300, gen_seed=8026, params={"rounds": 2}))
    path = tmp_path / "ac5.json"
    path.write_text(dumps_json(graph_to_json(g)))
    paths = enumerate_paths(g, 6)
    depths = chain_depth_all(paths, 3)
    expected = "".join(
        json.dumps({"nodes": list(u.nodes), "length": u.length,
                    "hash": path_key(u, 3).hash_label, "depth": depths[u.canonical_key]}) + "\n"
        for u in sorted(paths, key=lambda u: path_key(u, 3))
    )
    calls = []

    def counting(u, seed):
        calls.append(u.canonical_key)
        return path_key(u, seed)

    monkeypatch.setattr(cli_module, "path_key", counting)
    code, out = run_cli(capsys, "dump-paths", "--graph", str(path), "--l", "6", "--seed", "3")
    assert code == 0
    assert len(paths) == 196
    assert len(calls) == 196
    assert out == expected


def test_no_thread_count_setting(random_graph, capsys, monkeypatch):
    # The CLI has no thread count: LOCALFLOW_THREADS is ignored, and
    # --threads is an unknown flag that argparse refuses.
    argv = ("tester", "--graph", str(random_graph), "--l", "3", "--s", "2",
            "--seeds", "1", "--k", "20")
    code, out_plain = run_cli(capsys, *argv)
    assert code == 0
    monkeypatch.setenv("LOCALFLOW_THREADS", "zero")
    code, out_env = run_cli(capsys, *argv)
    assert code == 0
    assert out_env == out_plain
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--threads", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_missing_graph_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["maxflow"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "--graph" in captured.err


def test_malformed_graph_file_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = run_cli(capsys, "maxflow", "--graph", str(bad))
    assert code == 2
    missing_field = tmp_path / "missing.json"
    missing_field.write_text(json.dumps({"nodes": [], "edges": []}))
    code, _ = run_cli(capsys, "maxflow", "--graph", str(missing_field))
    assert code == 2
    not_an_object = tmp_path / "item.json"
    not_an_object.write_text(json.dumps({"quantum": "1", "degree_bound": 2,
                                         "capacity_bound_ticks": 1, "nodes": [5], "edges": []}))
    code = main(["maxflow", "--graph", str(not_an_object)])
    assert code == 2
    assert "bad node: expected a JSON object, got 5" in capsys.readouterr().err


def test_non_integer_graph_fields_exit_two(bundle_graph, tmp_path, capsys):
    obj = json.loads(bundle_graph.read_text())
    for where, field, bad in (("edges", "cap_ab", 2.9), ("edges", "cap_ba", "3"),
                              ("nodes", "id", True)):
        broken = json.loads(json.dumps(obj))
        broken[where][0][field] = bad
        path = tmp_path / f"{field}.json"
        path.write_text(json.dumps(broken))
        code = main(["maxflow", "--graph", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"'{field}'" in captured.err


def test_invalid_graph_file_exits_two(bundle_graph, tmp_path, capsys):
    obj = json.loads(bundle_graph.read_text())
    m = obj["capacity_bound_ticks"]
    self_loop = json.loads(json.dumps(obj))
    self_loop["edges"][0]["b"] = self_loop["edges"][0]["a"]
    above_m = json.loads(json.dumps(obj))
    above_m["edges"][1]["cap_ab"] = m + 1
    for name, broken, violation in (
        ("loop", self_loop, "edge 0 is a self-loop at node 0"),
        ("cap", above_m, f"edge 1 cap_ab above M ({m + 1} > {m})"),
    ):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(broken))
        for argv in (["maxflow"], ["run-a2", "--l", "3", "--s", "2"],
                     ["tester", "--l", "3", "--s", "2", "--seeds", "1"]):
            code = main(argv + ["--graph", str(path)])
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == ""
            assert captured.err == f"error: invalid graph: {violation}\n"


@pytest.mark.parametrize("argv", [
    ["verify-locality", "--graph", "{graph}", "--l", "3", "--s", "2", "--sample", "-3"],
    ["verify-locality", "--graph", "{graph}", "--l", "3", "--s", "2", "--sample", "some"],
    ["tester", "--graph", "{graph}", "--l", "3", "--s", "2", "--seeds", "1", "--sample", "5"],
    ["experiment", "locality", "--seeds", "1", "--sample", "-2"],
    ["verify-locality", "--graph", "{graph}", "--l", "3", "--s", "2", "--sample", "0"],
    ["experiment", "locality", "--seeds", "1", "--sample", "0"],
])
def test_bad_sample_exits_two_naming_the_flag(bundle_graph, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([arg.format(graph=bundle_graph) for arg in argv])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "--sample" in captured.err


def test_experiment_bad_spec_exits_two_naming_the_field(tmp_path, capsys):
    cases = [(f"bad field '{name}'", {"family": "random_bounded", **spec}) for name, spec in (
        ("n", {"n": 30.9}), ("gen_seed", {"n": 30, "gen_seed": True}),
        ("rounds", {"n": 30, "params": {"rounds": 2.7}}),
        ("quantum", {"n": 30, "quantum": "1/0"}), ("params", {"n": 30, "params": 5}),
        ("rho_s", {"n": 30, "rho_s": "abc"}), ("gen_sed", {"n": 30, "gen_sed": 7}),
        ("cap_mn", {"n": 30, "params": {"cap_mn": 3}}),
    )]
    cases.append(("bad instance spec: expected a JSON object, got 5", 5))
    for i, (message, spec) in enumerate(cases):
        path = tmp_path / f"spec{i}.json"
        path.write_text(json.dumps([spec]))
        code = main(["experiment", "approx", "--specs", str(path), "--l-sweep", "2",
                     "--seeds", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert message in captured.err


def test_verify_locality_on_a_graph_with_no_edges_exits_two(tmp_path, capsys):
    path = tmp_path / "bare.json"
    path.write_text(json.dumps({"quantum": "1", "degree_bound": 2, "capacity_bound_ticks": 1,
                                "nodes": [{"id": 0, "color": "S"}], "edges": []}))
    code = main(["verify-locality", "--graph", str(path), "--l", "3", "--s", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "bad field 'edge_sample'" in captured.err


def test_generate_refuses_a_param_the_family_does_not_read(tmp_path, capsys):
    out = tmp_path / "grid.json"
    code = main(["generate", "--family", "grid", "--rows", "2", "--cols", "3", "--rounds", "3",
                 "--layers", "9", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert "bad field 'rounds' in instance spec params" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("argv, field", [
    (["run-a1", "--l", "0"], "l"),
    (["run-a2", "--l", "3", "--s", "0"], "s"),
    (["local-f2", "--edge", "0", "--epsilon", "0", "--s", "2"], "epsilon"),
    (["verify-locality", "--epsilon", "-1", "--s", "2"], "epsilon"),
    (["tester", "--l", "3", "--s", "2", "--seeds", "1", "--k", "0"], "k"),
    (["tester", "--l", "0", "--s", "2", "--seeds", "1"], "l"),
])
def test_bad_run_parameter_exits_two_naming_the_field(bundle_graph, capsys, argv, field):
    code = main(argv + ["--graph", str(bundle_graph)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: bad field '{field}'")


def test_unknown_flag_exits_two(capsys):
    # A command declares only the flags it reads: any other exits 2 naming it,
    # as does a value its flag refuses.  Required flags are given, since
    # argparse reports a missing one first.
    for argv, flag in ((["maxflow", "--graph", "g.json", "--bogus"], "--bogus"),
                       (["run-a1", "--graph", "g.json", "--l", "3", "--seeds", "1,2,3"],
                        "--seeds"),
                       (["experiment", "approx", "--l", "5"], "--l"),
                       (["generate", "--family", "grid", "--k", "5"], "--k"),
                       (["tester", "--graph", "g.json", "--l", "3", "--s", "2", "--seeds", "1",
                         "--r", "9"], "--r"),
                       (["local-f2", "--graph", "g.json", "--edge", "0", "--l", "3", "--s", "2",
                         "--radius", "1"], "--radius"),
                       (["experiment", "locality", "--no-negative-control"],
                        "--no-negative-control"),
                       (["experiment", "approx", "--seeds", ","], "--seeds"),
                       (["experiment", "locality", "--seeds", ""], "--seeds"),
                       (["experiment", "chain-tail", "--seeds", ","], "--seeds"),
                       (["experiment", "approx", "--l-sweep", ""], "--l-sweep"),
                       (["run-a1", "--graph", "g.json", "--l", "1", "--epsilon", "1"],
                        "--epsilon"),
                       (["local-f2", "--graph", "g.json", "--edge", "0", "--s", "2",
                         "--epsilon", "1/0"], "--epsilon")):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert flag in captured.err


@pytest.mark.parametrize("command", [
    ["generate"], ["maxflow"], ["run-a1"], ["run-a2"], ["local-f2"], ["verify-locality"],
    ["tester"], ["dump-paths"], ["experiment"], ["experiment", "approx"],
    ["experiment", "chain-tail"], ["experiment", "locality"],
])
def test_help_exits_zero(capsys, command):
    # argparse formats a command's help, defaults included, only when asked.
    with pytest.raises(SystemExit) as exc:
        main([*command, "--help"])
    captured = capsys.readouterr()
    assert exc.value.code == 0
    assert captured.out.startswith(f"usage: localflow {' '.join(command)}")
    if command[0] == "experiment" and len(command) == 2:
        assert "(default: 1,2,3,4,5)" in captured.out


def test_readme_cli_block_runs(tmp_path, capsys, monkeypatch):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    for line in block.splitlines():
        argv = shlex.split(line, comments=True)
        assert argv[0] == "localflow"
        code, out = run_cli(capsys, *argv[1:])
        assert code == 0, line
        if argv[1] == "maxflow":
            assert out.strip() == "9"


def test_error_messages_name_the_field(tmp_path, capsys):
    code = main(["maxflow", "--graph", str(tmp_path / "nope.json")])
    captured = capsys.readouterr()
    assert code == 2
    assert "--graph" in captured.err
