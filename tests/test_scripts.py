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
    assert load_script("run_verifications").main(["--out", str(tmp_path)]) == 0
    capsys.readouterr()
    certs = [json.loads(p.read_text()) for p in sorted(tmp_path.glob("*.json"))]
    assert len(certs) == 14
    levels = [c["instance"]["level"] for c in certs
              if c["theorem"] != "invariance"]
    assert levels == [2] * 10
    assert all(c["result"] for c in certs)


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
