import json

import pytest

from spinpoly.cli import run

from helpers import load_script


@pytest.fixture(scope="module")
def battery(tmp_path_factory):
    """The battery script, its exit code and its certificates: one run
    serves every test below."""
    script = load_script("run_verifications")
    out = tmp_path_factory.mktemp("certs")
    code = script.main(["--out", str(out)])
    return script, code, [json.loads(p.read_text())
                          for p in sorted(out.glob("*.json"))]


def test_run_verifications_battery(battery):
    script, code, certs = battery
    assert code == 0
    expected = [e for _, _, e in script.instances()]
    assert len(certs) == 20 and expected.count(False) == 6
    assert [c["result"] for c in certs] == expected


def test_battery_certificates_are_verify_reports(battery, tmp_path, capsys):
    # each certificate is the report `spinpoly verify` writes for its
    # instance, envelope and inputHash included; only the timings differ
    script, _, certs = battery
    path = tmp_path / "g.json"
    for (name, kw, _), cert in zip(script.instances(), certs, strict=True):
        assert "inputHash" in cert
        argv = ["verify", "--theorem", name, "--r",
                ",".join(map(str, kw["r"])), "--level", str(kw["level"])]
        if "graph" in kw:
            path.write_text(json.dumps(kw["graph"].to_json_dict(), indent=1))
            argv += ["--graph", str(path)]
        else:
            argv += ["--genus", str(kw["genus"]), "--leaves", str(kw["leaves"])]
        assert run(argv) == (0 if cert["result"] else 1)
        report = json.loads(capsys.readouterr().out)
        assert {**report, "timings": None} == {**cert, "timings": None}


def test_record_bench_guard_line_check():
    check = load_script("record_bench").check_result_line
    metric = {"value": 0.5, "unit": "s"}
    good = {"correct": True, "attempted": 7, "failed": 0,
            "metrics": {"wall_s": metric}}
    assert check(json.dumps(good)) == []
    nan = json.dumps({**good, "metrics": {"wall_s": {
        "value": float("nan"), "unit": "s"}}})
    assert check(nan)[0].startswith("result line does not parse")
    assert check(json.dumps({**good, "metrics": {
        "wall_s": metric, "toric.is_normal.self_s": {**metric,
                                                    "absent": True}}})) \
        == ["absent metrics: toric.is_normal.self_s"]
    assert check(json.dumps({**good, "correct": False})) == \
        ["correct is False"]
    assert check(json.dumps({**good, "failed": 2})) == ["failed is 2"]
    assert check("not json")
