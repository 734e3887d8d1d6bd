import hashlib
import json
import os
from pathlib import Path
import subprocess
import sys

import pytest

from spinpoly import graphs
from spinpoly.cli import _build_parser, main, run
from spinpoly.polytopes import from_graph


@pytest.fixture
def t4_path(tmp_path):
    p = tmp_path / "t4.json"
    p.write_text(json.dumps(graphs.caterpillar_tree(4).to_json_dict()))
    return str(p)


@pytest.fixture
def loopy_path(tmp_path):
    g = graphs.add_loop_at_leaf(graphs.caterpillar_tree(3), 1)
    p = tmp_path / "loopy.json"
    p.write_text(json.dumps(g.to_json_dict()))
    return str(p)


def out_json(capsys):
    return json.loads(capsys.readouterr().out)


def test_points(t4_path, capsys):
    assert run(["points", "--graph", t4_path, "--r", "1,1,2,2",
                "--level", "2"]) == 0
    rep = out_json(capsys)
    assert rep["tool"] == "spinpoly"
    assert rep["count"] == 1
    assert len(rep["inputHash"]) == 16


def test_points_report_is_compact(t4_path, capsys):
    assert run(["points", "--graph", t4_path, "--r", "1,1,2,2",
                "--level", "3"]) == 0
    text = capsys.readouterr().out
    assert text.endswith("}\n") and text.count("\n") == 1
    pts = from_graph(graphs.caterpillar_tree(4), (1, 1, 2, 2), 3) \
        .lattice_points(1)
    rep = json.loads(text)
    assert len(pts) > 1
    assert {k: rep[k] for k in ("bounds", "count", "points", "tool")} == {
        "bounds": {"dilation": 1}, "count": len(pts),
        "points": [list(p) for p in pts], "tool": "spinpoly"}


def test_points_out_file(t4_path, tmp_path, capsys):
    out = tmp_path / "rep.json"
    assert run(["points", "--graph", t4_path, "--r", "1,1,2,2",
                "--level", "2", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    rep = json.loads(out.read_text())
    assert rep["count"] == 1


def test_points_report_writes_point_tuples_as_arrays(tmp_path, capsys):
    # the report holds the search's point tuples as they are; its bytes are
    # those of the same report with every point a list
    t4 = graphs.caterpillar_tree(4)
    internal = [i for i, (a, b) in enumerate(t4.edges)
                if t4.degree(a) == 3 and t4.degree(b) == 3]
    g = graphs.double_edge_at(t4, internal[0])
    path = tmp_path / "dbl4.json"
    path.write_text(json.dumps(g.to_json_dict()))
    assert run(["points", "--graph", str(path), "--r", "2,2,2,2",
                "--level", "6", "--dilation", "5"]) == 0
    text = capsys.readouterr().out
    rep = json.loads(text)
    pts = from_graph(g, (2, 2, 2, 2), 6).lattice_points(5)
    assert rep["count"] == len(pts) == 13871
    assert rep["points"] == [list(p) for p in pts]
    assert json.dumps(rep, separators=(",", ":"), sort_keys=True) + "\n" \
        == text


def test_hilbert_json_and_csv(loopy_path, capsys):
    assert run(["hilbert", "--graph", loopy_path, "--r", "2,2",
                "--level", "2", "--max-dilation", "3"]) == 0
    assert out_json(capsys)["table"] == [1, 3, 5, 7]
    assert run(["hilbert", "--graph", loopy_path, "--r", "2,2",
                "--level", "2", "--max-dilation", "2",
                "--format", "csv"]) == 0
    assert capsys.readouterr().out == "N,count\n0,1\n1,3\n2,5\n"


def test_normal_exit_codes(t4_path, capsys):
    assert run(["normal", "--graph", t4_path, "--r", "2,2,2,2",
                "--level", "2"]) == 0
    capsys.readouterr()
    # full lattice on a trinode-bearing graph loses degree-1 generation
    code = run(["normal", "--graph", t4_path, "--r", "1,1,2,2",
                "--level", "2", "--lattice", "full", "--dmax", "3"])
    rep = out_json(capsys)
    assert (code == 1) == (not rep["normal"])


def test_relations(loopy_path, capsys):
    assert run(["relations", "--graph", loopy_path, "--r", "2,2",
                "--level", "2"]) == 0
    rep = out_json(capsys)
    assert rep["relationDegree"] <= 3
    assert set(rep["minimalRelations"]) == {"2", "3", "4"}


def test_relations_reports_move_bound_failure(loopy_path, capsys):
    # fibers that moves of degree 1 cannot connect: exit 1 with a report
    # whose witnesses are (N, fiber) pairs
    assert run(["relations", "--graph", loopy_path, "--r", "2,2",
                "--level", "4", "--move-max", "1", "--dmax", "3"]) == 1
    rep = out_json(capsys)
    assert rep["relationDegree"] is None
    assert rep["witnesses"]
    for n, b in rep["witnesses"]:
        assert n in (2, 3) and len(b) == 4


@pytest.mark.parametrize("g,r,L,witness", [
    (graphs.enumerate_graphs(0, 6)[0], (1,) * 6, 2, (2, [2] * 9)),
    (graphs.enumerate_graphs(2, 1)[1], (0,), 3, (2, [3, 6, 6, 3, 0]))])
def test_relations_on_non_normal_polytope_exit_1(g, r, L, witness, tmp_path,
                                                  capsys):
    # the normality prerequisite fails: a property failure with the witness
    # that `normal` reports, not an input error
    path = tmp_path / "g.json"
    path.write_text(json.dumps(g.to_json_dict()))
    argv = ["--graph", str(path), "--r", ",".join(map(str, r)),
            "--level", str(L)]
    assert run(["normal", *argv]) == 1
    rep = out_json(capsys)
    assert (rep["witnessDegree"], rep["witness"]) == witness
    assert run(["relations", *argv]) == 1
    rep = out_json(capsys)
    assert rep["relationDegree"] is None
    assert rep["witnesses"] == [list(witness)]


def test_gb_check(t4_path, capsys):
    assert run(["gb-check", "--graph", t4_path, "--r", "2,2,2,2",
                "--level", "2", "--dmax", "3"]) == 0
    rep = out_json(capsys)
    assert rep["pass"] is True
    assert "p3_fixed2" in rep["components"]


def test_gb_check_refuses_odd_cut_edge(t4_path, capsys):
    # r = 1,2,1,2 makes the caterpillar's cut edge odd, and the components'
    # lattice maps halve it: the check is refused before any point is read
    assert run(["gb-check", "--graph", t4_path, "--r", "1,2,1,2",
                "--level", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "error: cut edge 0 ('v1', 'v2') has odd weight at " \
        "r=[1, 2, 1, 2]" in err


def test_balanced(t4_path, capsys):
    code = run(["balanced", "--graph", t4_path, "--r", "2,2,2,2",
                "--level", "2", "--depth", "2"])
    rep = out_json(capsys)
    assert code in (0, 1)
    assert rep["balanced"] == (code == 0)


def test_balanced_witness(t4_path, capsys):
    # the pair of points whose sum has no slice-balanced rewrite, as lists
    assert run(["balanced", "--graph", t4_path, "--r", "1,1,1,1",
                "--level", "2"]) == 1
    rep = out_json(capsys)
    assert rep["balanced"] is False
    assert rep["witness"] == [[0, 1, 1, 1, 1], [2, 1, 1, 1, 1]]


def test_explode(loopy_path, capsys):
    assert run(["explode", "--graph", loopy_path]) == 0
    rep = out_json(capsys)
    assert len(rep["components"]) == 2
    assert len(rep["splitEdges"]) == 1


def _explode_hash(path, capsys):
    assert run(["explode", "--graph", str(path)]) == 0
    return out_json(capsys)["inputHash"]


def test_input_hash_follows_graph_content(tmp_path, capsys):
    # the same path holding two graphs gives two hashes
    path = tmp_path / "g.json"
    path.write_text(json.dumps(graphs.caterpillar_tree(4).to_json_dict()))
    first = _explode_hash(path, capsys)
    path.write_text(json.dumps(graphs.caterpillar_tree(5).to_json_dict()))
    assert _explode_hash(path, capsys) != first
    # two paths holding the same graph, written differently, give one hash
    other = tmp_path / "h.json"
    other.write_text(json.dumps(graphs.caterpillar_tree(5).to_json_dict(),
                                indent=2, sort_keys=True))
    assert _explode_hash(other, capsys) == _explode_hash(path, capsys)


def test_blocks(loopy_path, capsys):
    assert run(["blocks", "--graph", loopy_path, "--r", "2,2",
                "--level", "2"]) == 0
    rep = out_json(capsys)
    kinds = sorted(c["kind"] for c in rep["components"])
    assert kinds == ["loop_b", "p3_fixed2"]


def test_verify_invariance(capsys):
    assert run(["verify", "--theorem", "invariance", "--genus", "0",
                "--leaves", "4", "--r", "1,1,2,2", "--level", "2"]) == 0
    rep = out_json(capsys)
    assert rep["result"] is True
    assert rep["table"] == [1, 1, 1, 1]


@pytest.mark.parametrize("genus,leaves,r", [
    ("0", "1", "2"), ("1", "0", ""), ("-1", "4", "2,2,2,2")])
def test_verify_invariance_empty_family_exit_2(genus, leaves, r, capsys):
    # an empty family has no tables to compare: no vacuous pass
    assert run(["verify", "--theorem", "invariance", "--genus", genus,
                "--leaves", leaves, "--r", r, "--level", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:")


@pytest.mark.parametrize("r,level,msg", [
    ("5,5,5,5", "2", "table [0, 0, 0, 0] has no degree-1 point"),
    ("1,1,1,2", "2", "table [1, 0, 1, 0] has no degree-1 point"),
    ("1,1,2,2", "-1", "level L = -1 must be >= 0")])
def test_verify_invariance_no_degree_one_point_exit_2(r, level, msg, capsys):
    # r_i > L, an odd number of odd r_i, L < 0: no vacuous pass
    assert run(["verify", "--theorem", "invariance", "--genus", "0",
                "--leaves", "4", "--r", r, "--level", level]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and msg in err


def test_verify_polypres_bad_level_exit_2(t4_path, capsys):
    assert run(["verify", "--theorem", "polypres", "--graph", t4_path,
                "--r", "2,2,2,2", "--level", "1"]) == 2
    err = capsys.readouterr().err
    assert "L > 1" in err


def test_verify_polyquad_odd_level_counterexample_exit_1(tmp_path, capsys):
    p = tmp_path / "cat6.json"
    p.write_text(json.dumps(graphs.caterpillar_tree(6).to_json_dict()))
    assert run(["verify", "--theorem", "polyquad", "--graph", str(p),
                "--r", "2,2,2,2,2,2", "--level", "3"]) == 1
    rep = out_json(capsys)
    assert rep["instance"]["level"] == 3
    assert rep["witnesses"][0]["standard_count"] == 14


@pytest.mark.parametrize("theorem", ["polypres", "polyquad", "d2bp"])
def test_verify_empty_polytope_exit_2(theorem, tmp_path, capsys):
    # leaf sum 6 > 2L = 4: no degree-1 point, so no vacuous pass
    p = tmp_path / "cat3.json"
    p.write_text(json.dumps(graphs.caterpillar_tree(3).to_json_dict()))
    assert run(["verify", "--theorem", theorem, "--graph", str(p),
                "--r", "2,2,2", "--level", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "has no degree-1 point" in err


@pytest.mark.parametrize("command", ["normal", "relations", "gb-check",
                                     "balanced"])
def test_check_on_empty_polytope_exit_2(command, tmp_path, capsys):
    # as for verify: a check on no point would pass vacuously
    p = tmp_path / "cat3.json"
    p.write_text(json.dumps(graphs.caterpillar_tree(3).to_json_dict()))
    assert run([command, "--graph", str(p), "--r", "2,2,2",
                "--level", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "P(graph, r=[2, 2, 2], L=2) has no degree-1 point" in err


@pytest.mark.parametrize("argv", [
    ["verify", "--theorem", "polypres", "--level", "2"],
    ["verify", "--theorem", "polyquad", "--level", "2"],
    ["verify", "--theorem", "polyquad", "--r", "2,2,2", "--level", "2"],
    ["verify", "--theorem", "polyquad", "--r", "2,2,2,2", "--level", "2",
     "--dmax", "-1"],
    ["verify", "--theorem", "d2bp", "--r", "2,2,2,2", "--level", "2",
     "--dmax", "0"],
    ["normal", "--r", "2,2,2,2", "--level", "2", "--dmax", "1"],
    ["relations", "--r", "2,2,2,2", "--level", "2", "--dmax", "1"],
    ["gb-check", "--r", "2,2,2,2", "--level", "2", "--dmax", "1"],
    ["balanced", "--r", "2,2,2,2", "--level", "2", "--depth", "1"],
    ["normal", "--r", "2,2,2,2", "--level", "-1"],
    ["balanced", "--r", "2,2,2,2", "--level", "-2"],
    ["hilbert", "--r", "2,2,2,2", "--level", "2", "--max-dilation", "-1"],
    ["verify", "--theorem", "invariance", "--genus", "0", "--leaves", "4",
     "--r", "1,1,2,2", "--level", "2", "--max-dilation", "0"],
    ["verify", "--theorem", "invariance", "--genus", "0", "--leaves", "4",
     "--r", "1,1,2,2", "--level", "2", "--max-dilation", "-1"],
    ["relations", "--r", "2,2,2,2", "--level", "2", "--move-max", "0"],
])
def test_bad_input_exit_2(argv, t4_path, capsys):
    # each used to raise, or to exit 0 having checked nothing
    assert run(argv[:1] + ["--graph", t4_path] + argv[1:]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "error" in err


_EVERY_COMMAND = """
import sys
from spinpoly.cli import run
g, gr = ["--graph", sys.argv[1]], ["--r", "2,2,2,2", "--level", "2"]
for argv in (["points", *g, *gr], ["hilbert", *g, *gr],
             ["normal", *g, *gr], ["relations", *g, *gr],
             ["gb-check", *g, *gr], ["balanced", *g, *gr], ["explode", *g],
             ["blocks", *g, *gr], ["graphs", "--genus", "1", "--leaves", "2"]):
    print(argv[0], run(argv), flush=True)
"""


def test_reports_do_not_follow_the_hash_seed(tmp_path):
    # one process per seed runs every graph subcommand on the doubled-edge
    # caterpillar; string hashing orders sets of vertex names differently
    t4 = graphs.caterpillar_tree(4)
    internal = [i for i, (a, b) in enumerate(t4.edges)
                if t4.degree(a) == 3 and t4.degree(b) == 3]
    path = tmp_path / "dbl4.json"
    path.write_text(json.dumps(
        graphs.double_edge_at(t4, internal[0]).to_json_dict()))
    src = str(Path(__file__).resolve().parent.parent / "src")
    procs = [subprocess.Popen(
        [sys.executable, "-c", _EVERY_COMMAND, str(path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed})
        for seed in ("1", "2")]
    (out1, err1), (out2, err2) = (p.communicate(timeout=60) for p in procs)
    assert [p.returncode for p in procs] == [0, 0], (err1, err2)
    assert out1.count(b"explode 0") == 1
    assert out1 == out2


def test_verify_move_max_rejected(loopy_path, capsys):
    # polypres bounds relations by the theorem's fixed degree 3
    assert run(["verify", "--theorem", "polypres", "--graph", loopy_path,
                "--r", "2,2", "--level", "2", "--move-max", "1"]) == 2
    capsys.readouterr()


def test_one_parser_serves_every_run(loopy_path, t4_path, capsys):
    # the parser is built once per process; an error exit leaves nothing
    # behind that changes a later run's report
    calls = [["relations", "--graph", loopy_path, "--r", "2,2", "--level",
              "2", "--dmax", "3"],
             ["points", "--graph", t4_path, "--r", "1,1,2,2", "--level", "3"]]
    _build_parser.cache_clear()
    assert run(["relations", "--graph", loopy_path, "--dmax", "1"]) == 2
    capsys.readouterr()
    shared = []
    for argv in calls:
        assert run(argv) == 0
        shared.append(capsys.readouterr().out)
    assert _build_parser.cache_info().misses == 1
    for argv, out in zip(calls, shared):
        _build_parser.cache_clear()
        assert run(argv) == 0
        assert capsys.readouterr().out == out


def test_level_help_is_the_same_everywhere():
    subparsers = _build_parser()._subparsers._group_actions[0].choices
    helps = {name: a.help for name, sp in subparsers.items()
             for a in sp._actions if "--level" in a.option_strings}
    assert set(helps) == {"points", "hilbert", "normal", "relations",
                          "gb-check", "balanced", "blocks", "verify"}
    assert len(set(helps.values())) == 1 and "2L" in helps["verify"]


def test_graphs_command(capsys):
    assert run(["graphs", "--genus", "1", "--leaves", "2"]) == 0
    rep = out_json(capsys)
    assert rep["count"] == 2
    assert len(rep["graphs"]) == 2


def test_graphs_command_output_unchanged(capsys):
    # sha256 of the report written by the n!-canonicalizing enumerator, with
    # empty bounds: the enumeration takes no vertex bound
    assert run(["graphs", "--genus", "1", "--leaves", "4"]) == 0
    text = capsys.readouterr().out.encode()
    assert hashlib.sha256(text).hexdigest() == \
        "c9765b5e6ca73bb54724e3512f9eb697bc90efe5159135b47bf2c480cd32e082"


@pytest.mark.parametrize("genus,leaves", [("-1", "4"), ("0", "-1")])
def test_graphs_negative_bounds_exit_2(genus, leaves, capsys):
    assert run(["graphs", "--genus", genus, "--leaves", leaves]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "must be >= 0" in err


def test_graphs_empty_family_exit_0(capsys):
    assert run(["graphs", "--genus", "1", "--leaves", "0"]) == 0
    rep = out_json(capsys)
    assert rep["count"] == 0 and rep["graphs"] == []


def test_missing_file_exit_2(capsys):
    assert run(["points", "--graph", "/nonexistent.json", "--r", "1,1",
                "--level", "1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_bad_usage_exit_2(capsys):
    assert run(["points"]) == 2
    capsys.readouterr()


def test_main_entrypoint(t4_path, capsys):
    assert main(["points", "--graph", t4_path, "--r", "1,1,2,2",
                 "--level", "2"]) == 0
    capsys.readouterr()


def test_threads_flag_rejected(t4_path, capsys):
    assert run(["--threads", "4", "points", "--graph", t4_path,
                "--r", "1,1,2,2", "--level", "2"]) == 2
    capsys.readouterr()
