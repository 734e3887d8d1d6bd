"""Self-tests of the benchmark, on the shortest workload (about a minute):

    python3 perfbench/selftest.py

1. A traced run prints every metric that BENCHMARK.json names, with its
   unit, and reports no failure on the unchanged program.
2. Its traced self times add up to no more than its traced wall_s.
3. A run whose program returns wrong answers counts them as failed.
4. In a directory with only BENCHMARK.json and perfbench/, the benchmark
   exits with an error and prints no result.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dilate",
         "--seed", "1", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []

    traced = bench("--trace", "1")
    printed = dict(re.findall(r"^(\S+) = \S+ (\S+)", traced.stdout, re.M))
    for m in spec["end_to_end"] + spec["per_layer"]:
        if printed.get(m["name"]) != m["unit"]:
            problems.append(f"metric {m['name']} ({m['unit']}) not printed")
    result = json.loads(traced.stdout.splitlines()[-1])
    if not result["correct"] or result["failed"]:
        problems.append(f"unchanged program failed: {traced.stdout}")
    values = {k: v["value"] for k, v in result["metrics"].items()}
    self_s = sum(v for k, v in values.items() if k.endswith(".self_s"))
    if self_s > values["trace.wall_s"]:
        problems.append(f"self times {self_s} s exceed traced wall_s "
                        f"{values['trace.wall_s']} s")

    faulty = json.loads(bench("--trace", "0", "--inject-fault")
                        .stdout.splitlines()[-1])
    if faulty["correct"] or faulty["failed"] < 1:
        problems.append(f"injected wrong answers not counted: {faulty}")

    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    empty = bench("--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    if empty.returncode == 0 or empty.stdout.strip():
        problems.append("ran without the program's sources")

    for p in problems:
        print(f"FAIL {p}")
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
