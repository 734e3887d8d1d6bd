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
