#!/usr/bin/env python3
"""Run the full theorem battery and write one JSON certificate per instance.

Each instance carries its expected result: true for the paper's claims,
false for the recorded counterexamples.  The exit code is 1 when some
result differs from the expected one, else 0.  A certificate is the report
that `spinpoly verify` writes for the instance, envelope and inputHash
included.

Usage: python3 scripts/run_verifications.py [--out certs/] [--dmax 4]
"""

import argparse
import json
import pathlib
import sys
import time

from spinpoly import graphs
from spinpoly.cli import envelope
from spinpoly.toric import verify_theorem


def instances():
    """(theorem, arguments, expected result) for every battery instance."""
    t4 = graphs.caterpillar_tree(4)
    internal = [i for i, (a, b) in enumerate(t4.edges)
                if t4.degree(a) == 3 and t4.degree(b) == 3]
    doubled = graphs.double_edge_at(t4, internal[0])
    loopy = graphs.add_loop_at_leaf(graphs.caterpillar_tree(3), 1)

    yield "polypres", dict(graph=t4, r=(1, 1, 1, 1), level=2), True
    yield "polypres", dict(graph=t4, r=(1, 1, 2, 2), level=2), True
    yield "polypres", dict(graph=t4, r=(2, 2, 2, 2), level=2), True
    yield "polypres", dict(graph=graphs.caterpillar_tree(5),
                           r=(1, 1, 2, 1, 1), level=2), True
    yield "polypres", dict(graph=loopy, r=(2, 2), level=2), True

    yield "polyquad", dict(graph=t4, r=(2, 2, 2, 2), level=2), True
    yield "polyquad", dict(graph=doubled, r=(2, 2, 2, 2), level=2), True
    yield "polyquad", dict(graph=loopy, r=(2, 2), level=2), True

    yield "d2bp", dict(graph=t4, r=(2, 2, 2, 2), level=2), True
    yield "d2bp", dict(graph=graphs.caterpillar_tree(5),
                       r=(2, 2, 2, 2, 2), level=4), True

    yield "invariance", dict(genus=0, leaves=4, r=(1, 1, 2, 2), level=2), True
    yield "invariance", dict(genus=0, leaves=5, r=(1, 1, 2, 1, 1),
                             level=2), True
    yield "invariance", dict(genus=1, leaves=1, r=(2,), level=2), True
    yield "invariance", dict(genus=1, leaves=2, r=(2, 2), level=2), True

    # recorded counterexamples inside the coded hypotheses: odd L for
    # polyquad, and two polypres rings that are not normal
    for n in (6, 7):
        for L in (3, 5):
            yield "polyquad", dict(graph=graphs.caterpillar_tree(n),
                                   r=(2,) * n, level=L), False
    yield "polypres", dict(graph=graphs.enumerate_graphs(2, 1)[1], r=(0,),
                           level=3), False
    yield "polypres", dict(graph=graphs.enumerate_graphs(0, 6)[0],
                           r=(1,) * 6, level=2), False


def verify_payload(name, kw, nmax, dmax):
    """The instance's `spinpoly verify` command line as the CLI hashes it,
    with the graph's JSON in place of its path."""
    g = kw.get("graph")
    return {"command": "verify", "theorem": name,
            "graph": g.to_json_dict() if g else None,
            "r": list(kw["r"]), "level": kw["level"],
            "genus": kw.get("genus"), "leaves": kw.get("leaves"),
            "max_dilation": nmax, "dmax": dmax}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="certs")
    ap.add_argument("--dmax", type=int, default=4)
    ap.add_argument("--nmax", type=int, default=3)
    args = ap.parse_args(argv)

    outdir = pathlib.Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)

    unexpected = 0
    t0 = time.perf_counter()
    for i, (name, kw, expected) in enumerate(instances()):
        cert = verify_theorem(name, dmax=args.dmax, nmax=args.nmax, **kw)
        path = outdir / f"{i:02d}_{name}.json"
        report = envelope(verify_payload(name, kw, args.nmax, args.dmax),
                          cert.bounds, cert.to_json_dict())
        path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        status = "ok" if cert.result == expected else "UNEXPECTED"
        print(f"[{status}] {name:10s} result={str(cert.result).lower():5s} "
              f"-> {path} ({cert.timings.get('total', 0):.2f}s)")
        if cert.result != expected:
            unexpected += 1
    print(f"done: {unexpected} unexpected result(s) in "
          f"{time.perf_counter() - t0:.1f}s")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
