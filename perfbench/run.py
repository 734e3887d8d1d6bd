"""spinpoly benchmark: run one workload for a fixed time and report its
metrics.

    python3 perfbench/run.py --workload certify --seed 0 --seconds 40 --trace 0

Each sample runs the workload's operation list once in a fresh interpreter
(perfbench/worker.py), one process at a time.  Set-up-only processes run
between samples so that `setup_s` has more samples than the long workloads
give.  Every metric is printed by name with its unit; the last stdout line
is one JSON object with the keys correct, attempted, failed and metrics.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 traced
and untraced samples alternate and the metrics are the per-layer ones.
See perfbench/README.md.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
RUN_METRICS = (("failed_frac", "ratio"), ("trace.wall_s", "s"),
               ("trace.overhead_s", "s"))
SETUP_PROBES_PER_SAMPLE = 2
TIME_LIMIT_S = 170  # a run must end within 180 s


class RunError(Exception):
    pass


def _clock_ns():
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def _spawn(args, extra, deadline):
    """Run one worker to completion; returns (its result, seconds taken)."""
    t0 = _clock_ns()
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--spawned-at", str(t0), *extra]
    if args.inject_fault:
        cmd.append("--inject-fault")
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as e:
        raise RunError(f"worker exceeded {timeout:.0f} s") from e
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RunError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), \
        (_clock_ns() - t0) / 1e9


def _quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def measure(args):
    """Alternate full samples (and set-up probes) until `--seconds` is used."""
    start = time.monotonic()
    end = start + args.seconds
    hard_deadline = start + TIME_LIMIT_S
    kinds = ["plain", "traced"] if args.trace else ["plain"]
    full = {k: [] for k in kinds}
    setup, durations = [], []
    out_dir = ROOT / ".bench_out"
    while True:
        for _ in range(SETUP_PROBES_PER_SAMPLE):
            res, _ = _spawn(args, ["--setup-only"], hard_deadline)
            setup.append(res["setup_s"])
        kind = min(kinds, key=lambda k: len(full[k]))
        extra = []
        if kind == "traced":
            extra = ["--trace", str(out_dir / f"spans-{args.workload}"
                                    f"-seed{args.seed}.json")]
        res, dt = _spawn(args, extra, hard_deadline)
        full[kind].append(res)
        durations.append(dt)
        if kind == "plain":
            setup.append(res["setup_s"])
        if all(full.values()) and \
                time.monotonic() + statistics.median(durations) > end:
            break
    return full, setup


def report(args, full, setup):
    plain = full["plain"]
    runs = [r for rs in full.values() for r in rs]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    instances = runs[0]["instances"]
    empty = [n for n, i in instances.items() if i["degree_one_points"] < 1]
    for name, i in instances.items():
        print(f"instance {name}: r={i['r']} L={i['L']} "
              f"degree-1 points={i['degree_one_points']}")
    for msg in sorted({m for r in runs for m in r["failures"]}):
        print(f"FAILED {msg}")
    for name in empty:
        print(f"FAILED instance {name} has no degree-1 point")

    samples = {"wall_s": [r["wall_s"] for r in plain], "setup_s": setup,
               "peak_rss_mb": [r["peak_rss_mb"] for r in plain]}
    values = {}
    for name, unit in END_TO_END:
        xs = samples[name]
        values[name] = statistics.median(xs)
        lo, hi = _quartiles(xs)
        print(f"{name} = {values[name]} {unit}  (median of {len(xs)}, "
              f"quartiles {lo:.6g}..{hi:.6g})")
    values["failed_frac"] = failed / attempted
    print(f"failed_frac = {values['failed_frac']} ratio  "
          f"({failed} of {attempted} operations)")

    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END}
    if args.trace:
        traced = full["traced"]
        absent = sorted({a for r in traced for a in r["absent"]})
        values["trace.wall_s"] = statistics.median(r["wall_s"] for r in traced)
        values["trace.overhead_s"] = values["trace.wall_s"] - values["wall_s"]
        metrics = {}
        for name, unit in LAYER_METRICS + RUN_METRICS:
            if name not in values:
                values[name] = statistics.median(r["layers"][name]
                                                 for r in traced)
            metrics[name] = {"value": values[name], "unit": unit}
            mark = ""
            if name in absent:
                metrics[name]["absent"] = True
                mark = "  (absent)"
            if name != "failed_frac":  # printed above, with its counts
                print(f"{name} = {values[name]} {unit}{mark}")

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json") \
        .write_text(json.dumps({"setup_s": setup, "runs": full}, indent=1))
    return {"correct": failed == 0 and not empty, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject-fault", action="store_true",
                    help="self-test: make the program return wrong answers")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "spinpoly" / "__init__.py").is_file():
        print(f"error: no spinpoly sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    try:
        full, setup = measure(args)
    except RunError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps(report(args, full, setup)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
