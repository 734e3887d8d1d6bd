"""One run of a workload's operation list in a fresh interpreter.

Started by run.py, never two at once.  A fresh process per run keeps the
program's global `lattice_points` cache from turning repeats into cache
hits.  Prints one JSON object on its last stdout line.

    python3 perfbench/worker.py --workload NAME --seed N --spawned-at NS
        [--trace SPANS.json] [--setup-only] [--inject-fault] [--record]
"""

import argparse
import contextlib
import io
import json
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _clock_ns():
    # CLOCK_MONOTONIC is shared by all processes, so the parent's spawn
    # time and this process's clock can be subtracted.
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def _inject_fault(sp):
    """A wrong answer for the self-test: every dilation N >= 2 loses its
    last lattice point."""
    real = sp.polytopes.lattice_points

    def lossy(P, N):
        pts = real(P, N)
        return pts[:-1] if N >= 2 and pts else pts

    sp.polytopes.lattice_points = lossy


def _run_op(sp, workloads, op):
    """(exit code, parsed report, stdout bytes)."""
    if op.kind == "balanced":
        return 0, workloads.run_library_op(sp, op), 0
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = sp.cli.run(op.argv)
    text = buf.getvalue()
    return rc, json.loads(text) if text else None, len(text.encode())


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=int, required=True,
                    help="CLOCK_MONOTONIC ns at which the parent spawned us")
    ap.add_argument("--trace", help="write the spans here")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--inject-fault", action="store_true")
    ap.add_argument("--record", action="store_true",
                    help="report each operation's summary")
    args = ap.parse_args(argv)

    sys.path[:0] = [str(SRC), str(HERE)]
    import spinpoly as sp
    if Path(sp.__file__).resolve().parent != SRC / "spinpoly":
        raise SystemExit(f"spinpoly imported from {sp.__file__}, not {SRC}")
    import tracing
    import workloads

    expected = json.loads((HERE / "expected.json").read_text())
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{_clock_ns()}"
    workdir.mkdir(parents=True)
    try:
        plan = workloads.plan(sp, args.workload, args.seed, workdir)
        if args.inject_fault:
            _inject_fault(sp)
        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install(sp)
        setup_s = (_clock_ns() - args.spawned_at) / 1e9
        out = {"setup_s": setup_s,
               "instances": {i.name: {"r": list(i.r), "L": i.level,
                                      "degree_one_points": i.degree_one_points}
                             for i in plan.instances}}
        if args.setup_only:
            print(json.dumps(out))
            return 0

        wall = 0.0
        failures, summaries, op_s = [], {}, []
        for op in plan.ops:
            t0 = time.perf_counter()
            try:
                rc, report, nbytes = _run_op(sp, workloads, op)
            except Exception as e:  # a raising operation is a failed one
                op_s.append(time.perf_counter() - t0)
                wall += op_s[-1]
                failures.append(f"{op.label}: raised {type(e).__name__}: {e}")
                continue
            dt = time.perf_counter() - t0
            wall += dt
            op_s.append(dt)
            if tracer:
                tracer.add("cli.run.out_bytes", nbytes)
            try:
                err = workloads.check(op, rc, report, expected)
                if args.record:
                    summaries[op.label] = workloads.summarize(op, report)
            except (KeyError, TypeError, ValueError) as e:
                err = f"unreadable report: {type(e).__name__}: {e}"
            if err:
                failures.append(f"{op.label}: {err}")

        out.update(
            wall_s=wall, op_s=op_s, attempted=len(plan.ops),
            failed=len(failures), failures=failures,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        if args.record:
            out["summaries"] = summaries
        if tracer:
            out["layers"], out["absent"] = tracer.layer_metrics()
            Path(args.trace).parent.mkdir(parents=True, exist_ok=True)
            with open(args.trace, "w") as fh:
                json.dump({"fields": ["name", "start", "end", "parent"],
                           "spans": tracer.spans}, fh)
        print(json.dumps(out))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
