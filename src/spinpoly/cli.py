"""Command-line front end: load graphs, run enumerations and theorem
verifications, emit JSON/CSV reports.

Exit codes: 0 success / property holds, 1 property failure (report carries a
witness), 2 usage or input error."""

import argparse
import hashlib
import json
import sys

from . import __version__
from .errors import HypothesisViolated, SpinpolyError
from .graphs import classify, enumerate_graphs, explode, graph_from_json, validate
from .polytopes import assemble, from_graph, with_full_lattice
from .termorders import is_balanced
from .toric import (
    hilbert,
    is_normal,
    quadratic_squarefree_gb,
    relation_degree,
    require_degree_one_point,
    verify_theorem,
)


def _int_list(text):
    if not text:
        return []
    return [int(x) for x in text.split(",")]


def _at_least(least, what):
    """An argparse type: an integer `what` of at least `least`."""
    def bound(text):
        d = int(text)
        if d < least:
            raise argparse.ArgumentTypeError(f"{what} {d} must be >= {least}")
        return d
    return bound


_degree_bound = _at_least(2, "degree bound")


_LEVEL_HELP = "the SL2 level L: each trinode's weight sum is at most 2L"


def _build_parser():
    p = argparse.ArgumentParser(
        prog="spinpoly",
        description="lattice polytopes of trivalent-graph edge weightings",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_graph_args(sp, need_r=True):
        sp.add_argument("--graph", required=True, help="graph JSON file")
        if need_r:
            sp.add_argument("--r", type=_int_list, required=True,
                            help="comma-separated leaf weights")
            sp.add_argument("--level", type=int, required=True,
                            help=_LEVEL_HELP)
        sp.add_argument("--out", help="write the report here instead of stdout")

    def add_lattice_arg(sp):
        sp.add_argument("--lattice", choices=("parity", "full"),
                        default="parity", help="full drops the parity sets")

    sp = sub.add_parser("points", help="lattice points of a dilation")
    add_graph_args(sp)
    sp.add_argument("--dilation", type=int, default=1)
    add_lattice_arg(sp)

    sp = sub.add_parser("hilbert", help="lattice point counts per dilation")
    add_graph_args(sp)
    sp.add_argument("--max-dilation", type=_at_least(0, "dilation bound"),
                    default=3)
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    add_lattice_arg(sp)

    sp = sub.add_parser("normal", help="degree-1 generation check")
    add_graph_args(sp)
    sp.add_argument("--dmax", type=_degree_bound, default=4)
    add_lattice_arg(sp)

    sp = sub.add_parser("relations", help="ideal generation degree")
    add_graph_args(sp)
    sp.add_argument("--move-max", type=int, default=3)
    sp.add_argument("--dmax", type=_degree_bound, default=4)

    sp = sub.add_parser("gb-check", help="quadratic square-free GB check "
                        "under the assembled order")
    add_graph_args(sp)
    sp.add_argument("--dmax", type=_degree_bound, default=4)

    sp = sub.add_parser("balanced", help="balancedness of the graph polytope")
    add_graph_args(sp)
    sp.add_argument("--depth", type=_degree_bound, default=3)

    sp = sub.add_parser("explode", help="cut all separating edges")
    add_graph_args(sp, need_r=False)

    sp = sub.add_parser("blocks", help="building blocks of the exploded graph")
    add_graph_args(sp)

    sp = sub.add_parser("verify", help="theorem-level verification")
    sp.add_argument("--theorem", required=True,
                    choices=("polypres", "polyquad", "invariance", "d2bp"))
    sp.add_argument("--graph")
    sp.add_argument("--r", type=_int_list)
    sp.add_argument("--level", type=int, help=_LEVEL_HELP)
    sp.add_argument("--genus", type=int)
    sp.add_argument("--leaves", type=int)
    sp.add_argument("--max-dilation", type=_at_least(1, "dilation bound"),
                    default=3)
    sp.add_argument("--dmax", type=_degree_bound, default=4)
    sp.add_argument("--out")

    sp = sub.add_parser("graphs", help="enumerate trivalent graphs")
    sp.add_argument("--genus", type=int, required=True)
    sp.add_argument("--leaves", type=int, required=True)
    sp.add_argument("--out")

    return p


def _input_hash(payload):
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _envelope(args, bounds, body):
    payload = {k: v for k, v in sorted(vars(args).items())
               if k not in ("out",)}
    return {
        "tool": "spinpoly",
        "version": __version__,
        "inputHash": _input_hash(payload),
        "bounds": bounds,
        **body,
    }


def _emit(report, args, fmt="json"):
    if fmt == "csv":
        text = report
    else:
        text = json.dumps(report, separators=(",", ":"), sort_keys=True,
                          default=str) + "\n"
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_graph(args):
    """Load --graph and put its canonical JSON in place of the path, so the
    envelope's inputHash follows the graph's content."""
    with open(args.graph) as fh:
        g = graph_from_json(fh.read())
    args.graph = g.to_json_dict()
    return g


def run(argv):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0

    try:
        return _dispatch(args)
    except (SpinpolyError, OSError, ValueError, KeyError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2


def _dispatch(args):
    cmd = args.command

    if cmd == "graphs":
        gs = enumerate_graphs(args.genus, args.leaves)
        report = _envelope(args, {}, {
            "count": len(gs),
            "graphs": [g.to_json_dict() for g in gs],
        })
        _emit(report, args)
        return 0

    if cmd == "verify":
        kwargs = dict(r=args.r, level=args.level, genus=args.genus,
                      leaves=args.leaves, nmax=args.max_dilation,
                      dmax=args.dmax)
        if args.theorem != "invariance":
            if not args.graph:
                raise HypothesisViolated("--graph is required")
            kwargs["graph"] = _load_graph(args)
        cert = verify_theorem(args.theorem, **kwargs)
        report = _envelope(args, cert.bounds, cert.to_json_dict())
        _emit(report, args)
        return 0 if cert.result else 1

    g = _load_graph(args)

    if cmd == "explode":
        eg = explode(g)
        report = _envelope(args, {}, {
            "class": classify(g).value,
            "components": [
                {"vertices": [str(v) for v in f.vertices],
                 "edges": [[str(a), str(b)] for a, b in f.edges],
                 "leaves": {str(k): str(v) for k, v in f.leaves},
                 "stubEdges": list(f.stub_edges)}
                for f in eg.components
            ],
            "splitEdges": [[orig, list(a), list(b)]
                           for orig, a, b in eg.split_edges],
        })
        _emit(report, args)
        return 0

    r, L = tuple(args.r), args.level
    if cmd in ("points", "hilbert", "normal", "relations", "balanced"):
        P = from_graph(g, r, L)
        if getattr(args, "lattice", "parity") == "full":
            P = with_full_lattice(P)
        if cmd in ("normal", "relations", "balanced"):
            # a check on no point would pass vacuously
            require_degree_one_point(P, r, L)

    if cmd == "points":
        pts = P.lattice_points(args.dilation)
        report = _envelope(args, {"dilation": args.dilation}, {
            "count": len(pts),
            "points": [list(p) for p in pts],
        })
        _emit(report, args)
        return 0

    if cmd == "hilbert":
        table = hilbert(P, args.max_dilation)
        if args.format == "csv":
            rows = "".join(f"{n},{c}\n" for n, c in enumerate(table))
            _emit("N,count\n" + rows, args, fmt="csv")
        else:
            report = _envelope(args, {"maxDilation": args.max_dilation},
                               {"table": list(table)})
            _emit(report, args)
        return 0

    if cmd == "normal":
        chk = is_normal(P, args.dmax)
        report = _envelope(args, {"dmax": args.dmax}, {
            "normal": chk.ok,
            "witness": list(chk.witness[1]) if not chk.ok else None,
            "witnessDegree": chk.witness[0] if not chk.ok else None,
        })
        _emit(report, args)
        return 0 if chk.ok else 1

    if cmd == "relations":
        cert = relation_degree(P, args.move_max, args.dmax)
        ok = cert.relation_degree is not None
        report = _envelope(args, {"moveMax": args.move_max,
                                  "dmax": args.dmax}, {
            "relationDegree": cert.relation_degree,
            # (N, b, d) for the tightest fibers, (N, b) for failing ones
            "witnesses": [[w[0], list(w[1]), *w[2:]] for w in cert.witnesses],
            "minimalRelations": cert.minimal_relations,
        })
        _emit(report, args)
        return 0 if ok else 1

    if cmd == "gb-check":
        from .catp import boxtimes_assemble

        wp, assembly = boxtimes_assemble(g, r, L)
        require_degree_one_point(wp.polytope, r, L)
        chk = quadratic_squarefree_gb(wp.polytope, wp.order, args.dmax)
        report = _envelope(args, {"dmax": args.dmax}, {
            "pass": chk.ok,
            "detail": chk.witness if isinstance(chk.witness, dict) else None,
            "components": [k for _, k, _ in assembly.components],
        })
        _emit(report, args)
        return 0 if chk.ok else 1

    if cmd == "balanced":
        chk = is_balanced(P, args.depth)
        report = _envelope(args, {"depth": args.depth}, {
            "balanced": chk.ok,
            "witness": [list(p) for p in chk.witness] if not chk.ok else None,
        })
        _emit(report, args)
        return 0 if chk.ok else 1

    if cmd == "blocks":
        eg = explode(g)
        A = assemble(eg, r, L)
        report = _envelope(args, {}, {
            "steps": list(A.steps),
            "components": [
                {"kind": k,
                 "dim": P.dim,
                 "degreeOnePoints": len(P.lattice_points(1))}
                for _, k, P in A.components
            ],
        })
        _emit(report, args)
        return 0

    raise HypothesisViolated(f"unknown command {cmd!r}")


def main(argv=None):
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
