from __future__ import annotations

import json

import pytest

import localflow.cli as cli_module
from conftest import count_flow_validations
from localflow.cli import main
from localflow.graph_core import dumps_json, graph_to_json
from localflow.harness import InstanceSpec, generate
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
    code, _ = run_cli(capsys, "run-a2", "--graph", str(random_graph), "--l", "4")
    assert code == 2


def test_epsilon_may_replace_l(bundle_graph, capsys):
    code, out = run_cli(
        capsys, "run-a1", "--graph", str(bundle_graph), "--epsilon", "10", "--seed", "1",
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
    code, out = run_cli(
        capsys, "local-f2", "--graph", str(random_graph), "--edge", str(edge),
        "--l", "3", "--s", "2", "--seed", "1",
    )
    assert code == 0
    assert int(out.strip()) == flow.get(edge, 0)


def test_verify_locality_full_sample_passes(random_graph, capsys):
    code, out = run_cli(
        capsys, "verify-locality", "--graph", str(random_graph),
        "--l", "3", "--s", "2", "--seed", "1", "--sample", "all",
    )
    assert code == 0
    assert "0 mismatches" in out


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
    code, _ = run_cli(capsys, "maxflow")
    assert code == 2


def test_malformed_graph_file_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = run_cli(capsys, "maxflow", "--graph", str(bad))
    assert code == 2
    missing_field = tmp_path / "missing.json"
    missing_field.write_text(json.dumps({"nodes": [], "edges": []}))
    code, _ = run_cli(capsys, "maxflow", "--graph", str(missing_field))
    assert code == 2


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
    ["verify-locality", "--l", "3", "--s", "2", "--sample", "-3"],
    ["verify-locality", "--l", "3", "--s", "2", "--sample", "some"],
    ["tester", "--l", "3", "--s", "2", "--seeds", "1", "--sample", "5"],
    ["experiment", "locality", "--seeds", "1", "--sample", "-2"],
])
def test_bad_sample_exits_two_naming_the_flag(bundle_graph, capsys, argv):
    code = main(argv + ["--graph", str(bundle_graph)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "bad field '--sample'" in captured.err


def test_experiment_bad_spec_exits_two_naming_the_field(tmp_path, capsys):
    for name, spec in (("n", {"n": 30.9}), ("gen_seed", {"n": 30, "gen_seed": True}),
                       ("rounds", {"n": 30, "params": {"rounds": 2.7}})):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps([{"family": "random_bounded", **spec}]))
        code = main(["experiment", "approx", "--specs", str(path), "--l-sweep", "2",
                     "--seeds", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"bad field '{name}'" in captured.err


def test_unknown_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["maxflow", "--bogus"])
    assert exc.value.code == 2


def test_error_messages_name_the_field(tmp_path, capsys):
    code = main(["maxflow", "--graph", str(tmp_path / "nope.json")])
    captured = capsys.readouterr()
    assert code == 2
    assert "--graph" in captured.err
