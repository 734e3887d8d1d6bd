import importlib.util
import json
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_verifications_battery(tmp_path, capsys):
    script = load_script("run_verifications")
    assert script.main(["--out", str(tmp_path)]) == 0
    capsys.readouterr()
    certs = [json.loads(p.read_text()) for p in sorted(tmp_path.glob("*.json"))]
    expected = [e for _, _, e in script.instances()]
    assert len(certs) == 20 and expected.count(False) == 6
    assert [c["result"] for c in certs] == expected


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
