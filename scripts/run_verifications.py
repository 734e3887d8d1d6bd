#!/usr/bin/env python3
"""Run the full theorem battery and write one JSON certificate per instance.

Usage: python3 scripts/run_verifications.py [--out certs/] [--dmax 4]
"""

import argparse
import json
import pathlib
import sys
import time

from spinpoly import graphs
from spinpoly.toric import verify_theorem


def instances():
    t4 = graphs.caterpillar_tree(4)
    internal = [i for i, (a, b) in enumerate(t4.edges)
                if t4.degree(a) == 3 and t4.degree(b) == 3]
    doubled = graphs.double_edge_at(t4, internal[0])
    loopy = graphs.add_loop_at_leaf(graphs.caterpillar_tree(3), 1)

    yield "polypres", dict(graph=graphs.caterpillar_tree(3),
                           r=(2, 2, 2), level=2)
    yield "polypres", dict(graph=t4, r=(1, 1, 2, 2), level=2)
    yield "polypres", dict(graph=t4, r=(2, 2, 2, 2), level=2)
    yield "polypres", dict(graph=graphs.caterpillar_tree(5),
                           r=(1, 1, 2, 1, 1), level=2)
    yield "polypres", dict(graph=loopy, r=(2, 2), level=2)

    yield "polyquad", dict(graph=t4, r=(2, 2, 2, 2), level=2)
    yield "polyquad", dict(graph=doubled, r=(2, 2, 2, 2), level=2)
    yield "polyquad", dict(graph=loopy, r=(2, 2), level=2)

    yield "d2bp", dict(graph=t4, r=(2, 2, 2, 2), level=2)
    yield "d2bp", dict(graph=graphs.caterpillar_tree(5),
                       r=(2, 2, 2, 2, 2), level=2)

    yield "invariance", dict(genus=0, leaves=4, r=(1, 1, 2, 2), level=2)
    yield "invariance", dict(genus=0, leaves=5, r=(1, 1, 2, 1, 1), level=2)
    yield "invariance", dict(genus=1, leaves=1, r=(2,), level=2)
    yield "invariance", dict(genus=1, leaves=2, r=(2, 2), level=2)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="certs")
    ap.add_argument("--dmax", type=int, default=4)
    ap.add_argument("--nmax", type=int, default=3)
    args = ap.parse_args(argv)

    outdir = pathlib.Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)

    failures = 0
    t0 = time.perf_counter()
    for i, (name, kw) in enumerate(instances()):
        cert = verify_theorem(name, dmax=args.dmax, nmax=args.nmax, **kw)
        path = outdir / f"{i:02d}_{name}.json"
        path.write_text(json.dumps(cert.to_json_dict(), indent=2,
                                   sort_keys=True) + "\n")
        status = "ok" if cert.result else "FAIL"
        print(f"[{status}] {name:10s} -> {path} "
              f"({cert.timings.get('total', 0):.2f}s)")
        if not cert.result:
            failures += 1
    print(f"done: {failures} failure(s) in {time.perf_counter() - t0:.1f}s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
