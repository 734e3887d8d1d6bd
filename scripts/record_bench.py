#!/usr/bin/env python3
"""Record benchmark runs in BENCH_<label>.json, and compare two such files.

    python3 scripts/record_bench.py record --label 15 [--checkout DIR]
        [--workloads certify invariance dilate] [--seeds 1-10]
    python3 scripts/record_bench.py compare BENCH_14.json BENCH_15.json
    python3 scripts/record_bench.py guard

`record` runs `perfbench/run.py --workload W --seed S --seconds T --trace 0`
in the checkout (default: this one), T being the checkout's BENCHMARK.json
`run_seconds`, one run at a time, for each workload and seed.  It stores the
checkout's git SHA and a sha256 of its `src/` files (which also identifies
uncommitted changes), and per run the metric lines and the result line (the
last stdout line).  A file already holding runs of the same tree and command
is extended, so two checkouts can be recorded in alternation, one seed at a
time.  `compare` prints, per workload and metric, the medians over seeds of
both files with their quartiles, and the number of seeds on which the second
file reads lower (better).  `guard` runs `perfbench/run.py --workload W
--seed 1 --seconds 10 --trace X` in this checkout for every workload of its
BENCHMARK.json and X in {0, 1}, and exits 1 unless every run's result line
parses with NaN and Infinity rejected, reads `correct` true and `failed` 0,
and marks no metric absent.
"""

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GUARD_SECONDS = 10


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in a result line")


def check_result_line(line):
    """What is wrong with a run's result line, as a list of messages (empty
    if nothing): it must be a JSON object, with no NaN or Infinity, that
    reads `correct` true and `failed` 0 and marks no metric `absent`."""
    try:
        result = json.loads(line, parse_constant=_reject_constant)
    except ValueError as e:
        return [f"result line does not parse: {e}"]
    if not isinstance(result, dict):
        return ["result line is not a JSON object"]
    problems = []
    if result.get("correct") is not True:
        problems.append(f"correct is {result.get('correct')}")
    if result.get("failed") != 0:
        problems.append(f"failed is {result.get('failed')}")
    absent = [name for name, m in result.get("metrics", {}).items()
              if m.get("absent")]
    if absent:
        problems.append(f"absent metrics: {', '.join(absent)}")
    return problems


def _git(checkout, *args):
    return subprocess.run(["git", *args], cwd=checkout, capture_output=True,
                          text=True, check=True).stdout.strip()


def _src_sha256(checkout):
    h = hashlib.sha256()
    for f in sorted((checkout / "src").rglob("*.py")):
        h.update(f"{f.relative_to(checkout)}\0".encode() + f.read_bytes())
    return h.hexdigest()


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def record(args):
    checkout = Path(args.checkout).resolve()
    sha = _git(checkout, "rev-parse", "HEAD")
    src = _src_sha256(checkout)
    bench = json.loads((checkout / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    out = ROOT / f"BENCH_{args.label}.json"
    doc = {"label": args.label, "sha": sha, "srcSha256": src,
           "command": "python3 perfbench/run.py --workload W --seed S "
                      f"--seconds {seconds} --trace 0",
           "runs": {}}
    if out.exists():
        old = json.loads(out.read_text())
        if (old["sha"], old["srcSha256"], old["command"]) != \
                (sha, src, doc["command"]):
            sys.exit(f"{out.name} holds runs of another tree or command")
        doc = old
    for workload in args.workloads:
        for seed in _seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", "0"],
                cwd=checkout, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
            result = json.loads(lines[-1], parse_constant=_reject_constant)
            doc["runs"].setdefault(workload, {})[str(seed)] = {
                "lines": lines[:-1], "result": result}
            out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
            print(f"{workload} seed {seed}: correct={result['correct']}",
                  file=sys.stderr)


def _quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def compare(args):
    a, b = (json.loads(Path(p).read_text())["runs"] for p in args.files)
    for workload in sorted(set(a) & set(b)):
        seeds = sorted(set(a[workload]) & set(b[workload]), key=int)
        metrics = a[workload][seeds[0]]["result"]["metrics"]
        for name in metrics:
            xs = [a[workload][s]["result"]["metrics"][name]["value"]
                  for s in seeds]
            ys = [b[workload][s]["result"]["metrics"][name]["value"]
                  for s in seeds]
            qa, qb = _quartiles(xs), _quartiles(ys)
            better = sum(y < x for x, y in zip(xs, ys))
            print(f"{workload} {name}: {statistics.median(xs):.4g} "
                  f"({qa[0]:.4g}..{qa[1]:.4g}) -> {statistics.median(ys):.4g} "
                  f"({qb[0]:.4g}..{qb[1]:.4g}), "
                  f"better in {better}/{len(seeds)}")


def guard():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    failed = 0
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", "1", "--seconds", str(GUARD_SECONDS),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            problems = check_result_line(lines[-1]) if lines else \
                ["no stdout"]
            if proc.returncode != 0:
                problems.insert(0, f"exited {proc.returncode}: "
                                   f"{proc.stderr[-500:]}")
            print(f"{workload} trace {trace}: "
                  f"{'; '.join(problems) or 'ok'}")
            failed += bool(problems)
    return 1 if failed else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    rec = sub.add_parser("record")
    rec.add_argument("--label", required=True)
    rec.add_argument("--checkout", default=str(ROOT))
    rec.add_argument("--workloads", nargs="+",
                     default=["certify", "invariance", "dilate"])
    rec.add_argument("--seeds", default="1-10")
    cmp_ = sub.add_parser("compare")
    cmp_.add_argument("files", nargs=2)
    sub.add_parser("guard")
    args = ap.parse_args(argv)
    if args.cmd == "record":
        record(args)
    elif args.cmd == "compare":
        compare(args)
    else:
        return guard()
    return 0


if __name__ == "__main__":
    sys.exit(main())
