"""Command-line front end: load graphs, run enumerations and theorem
verifications, emit JSON/CSV reports.

Exit codes: 0 success / property holds, 1 property failure (report carries a
witness), 2 usage or input error."""

import argparse
import hashlib
import json
import sys
from functools import lru_cache

from . import __version__
from .catp import boxtimes_assemble
from .errors import HypothesisViolated, SpinpolyError
from .graphs import classify, enumerate_graphs, explode, graph_from_json
from .polytopes import (
    assemble,
    from_graph,
    require_degree_one_point,
    with_full_lattice,
)
from .termorders import is_balanced
from .toric import (
    generation,
    hilbert,
    is_normal,
    quadratic_squarefree_gb,
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


@lru_cache(maxsize=1)  # built on the first run, then shared by every run
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
    sp.add_argument("--move-max", type=_at_least(1, "move degree bound"),
                    default=3)
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


def envelope(payload, bounds, body):
    """A report: the tool, its version, a hash of the instance content and
    the bounds, then the body.  `payload` is the parsed command line with the
    graph's JSON in place of its path, so one instance gets one inputHash
    whatever file holds the graph."""
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return {
        "tool": "spinpoly",
        "version": __version__,
        "inputHash": hashlib.sha256(blob).hexdigest()[:16],
        "bounds": bounds,
        **body,
    }


def _load_graph(args):
    """Load --graph and put its canonical JSON in place of the path, so the
    envelope's inputHash follows the graph's content."""
    with open(args.graph) as fh:
        g = graph_from_json(fh.read())
    args.graph = g.to_json_dict()
    return g


def run(argv):
    """Parse argv, run the command and write its report; return the exit
    code.  This is the one place that writes a report or picks a code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0

    try:
        ok, bounds, body = _dispatch(args)
        if getattr(args, "format", "json") == "csv":
            text = "N,count\n" + "".join(
                f"{n},{c}\n" for n, c in enumerate(body["table"]))
        else:
            payload = {k: v for k, v in vars(args).items() if k != "out"}
            text = json.dumps(envelope(payload, bounds, body),
                              separators=(",", ":"), sort_keys=True,
                              default=str) + "\n"
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (SpinpolyError, OSError, ValueError, KeyError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2
    return 0 if ok else 1


def _dispatch(args):
    """(ok, bounds, body): whether the property holds, and the report's
    bounds and fields."""
    cmd = args.command

    if cmd == "graphs":
        gs = enumerate_graphs(args.genus, args.leaves)
        return True, {}, {"count": len(gs),
                          "graphs": [g.to_json_dict() for g in gs]}

    if cmd == "verify":
        kwargs = dict(r=args.r, level=args.level, genus=args.genus,
                      leaves=args.leaves, nmax=args.max_dilation,
                      dmax=args.dmax)
        if args.theorem != "invariance":
            if not args.graph:
                raise HypothesisViolated("--graph is required")
            kwargs["graph"] = _load_graph(args)
        cert = verify_theorem(args.theorem, **kwargs)
        return cert.result, cert.bounds, cert.to_json_dict()

    g = _load_graph(args)

    if cmd == "explode":
        eg = explode(g)
        return True, {}, {
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
        }

    r, L = tuple(args.r), args.level
    if cmd in ("points", "hilbert", "normal", "relations", "balanced"):
        P = from_graph(g, r, L)
        if getattr(args, "lattice", "parity") == "full":
            P = with_full_lattice(P)
        if cmd in ("normal", "relations", "balanced"):
            require_degree_one_point(P, r, L)

    if cmd == "points":
        pts = P.lattice_points(args.dilation)
        return True, {"dilation": args.dilation}, {
            "count": len(pts),
            "points": [list(p) for p in pts],
        }

    if cmd == "hilbert":
        return True, {"maxDilation": args.max_dilation}, {
            "table": list(hilbert(P, args.max_dilation))}

    if cmd == "normal":
        chk = is_normal(P, args.dmax)
        return chk.ok, {"dmax": args.dmax}, {
            "normal": chk.ok,
            "witness": list(chk.witness[1]) if not chk.ok else None,
            "witnessDegree": chk.witness[0] if not chk.ok else None,
        }

    if cmd == "relations":
        cert = generation(P, args.move_max, args.dmax)
        return cert.relation_degree is not None, {
            "moveMax": args.move_max, "dmax": args.dmax}, {
            "relationDegree": cert.relation_degree,
            # (N, b, d) for the tightest fibers, (N, b) for failing ones,
            # (N, point) for a failed normality prerequisite
            "witnesses": [[w[0], list(w[1]), *w[2:]] for w in cert.witnesses],
            "minimalRelations": cert.minimal_relations,
        }

    if cmd == "gb-check":
        order, assembly = boxtimes_assemble(g, r, L)
        chk = quadratic_squarefree_gb(assembly.polytope, order,
                                      hilbert(from_graph(g, r, L), args.dmax))
        return chk.ok, {"dmax": args.dmax}, {
            "pass": chk.ok,
            "detail": chk.witness if isinstance(chk.witness, dict) else None,
            "components": [k for _, k, _ in assembly.components],
        }

    if cmd == "balanced":
        chk = is_balanced(P, args.depth)
        return chk.ok, {"depth": args.depth}, {
            "balanced": chk.ok,
            "witness": [list(p) for p in chk.witness] if not chk.ok else None,
        }

    if cmd == "blocks":
        A = assemble(explode(g), r, L)
        return True, {}, {
            "steps": list(A.steps),
            "components": [
                {"kind": k,
                 "dim": P.dim,
                 "degreeOnePoints": len(P.lattice_points(1))}
                for _, k, P in A.components
            ],
        }

    raise HypothesisViolated(f"unknown command {cmd!r}")


def main(argv=None):
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
