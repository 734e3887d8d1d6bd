"""The three benchmark workloads: graph instances, seeded draws, operation
lists and the check applied to every operation's output.

Each workload is a fixed list of operations run back to back by one caller
(a closed loop).  An operation is either one `spinpoly.cli.run` call or one
library call; it passes when it returns without raising, exits with the
expected code and its parsed output passes `check`.
"""

import json
import random
from dataclasses import dataclass, field

WORKLOADS = ("certify", "invariance", "dilate")

# The invariance calls as (genus, leaves, L, entries of r).  The entries come
# from 1..L with an even number of odd entries.  They keep each family's
# polytopes small, so that graph enumeration stays the largest cost, and are
# unequal where the family allows, so that the seed has something to order.
INVARIANCE_CALLS = (
    (0, 6, 2, (1, 1, 1, 1, 2, 2)),
    (0, 6, 3, (1, 1, 2, 2, 3, 3)),
    (1, 4, 2, (1, 1, 2, 2)),
    (1, 4, 3, (1, 2, 2, 3)),
    (2, 2, 2, (1, 1)),
    (2, 2, 3, (1, 3)),
    (2, 3, 2, (2, 2, 2)),
)


@dataclass
class Op:
    label: str            # stable identity; keys the recorded expected values
    kind: str             # CLI subcommand, or "balanced" for the library call
    argv: list = None     # CLI arguments
    block: tuple = None   # ("quadrant", q, L) or ("p3", L) for "balanced"
    graph: dict = None    # graph JSON of a `points` op, for the point check
    r: tuple = None
    level: int = None


@dataclass
class Instance:
    """One graph polytope P(graph, r, L) fed to the program."""
    name: str
    graph: object         # spinpoly MarkedGraph
    r: tuple
    level: int
    degree_one_points: int = None
    path: str = None


@dataclass
class Plan:
    instances: list = field(default_factory=list)
    ops: list = field(default_factory=list)


def _rstr(r):
    return ",".join(map(str, r))


def _graphs(sp):
    """The fixed graph instances.  The doubled edge is the internal edge of
    the 4-leaf caterpillar, as in scripts/run_verifications.py."""
    t4 = sp.graphs.caterpillar_tree(4)
    internal = [i for i, (a, b) in enumerate(t4.edges)
                if t4.degree(a) == 3 and t4.degree(b) == 3]
    return {
        "cat6": sp.graphs.caterpillar_tree(6),
        "loop3": sp.graphs.add_loop_at_leaf(sp.graphs.caterpillar_tree(3), 1),
        "dbl4": sp.graphs.double_edge_at(t4, internal[0]),
    }


def _family_representative(sp, genus, leaves):
    """A graph with the given genus and leaf count: a caterpillar tree whose
    first `genus` leaves are turned into loops.  Its degree-1 point count is
    that of the whole family when the family's Hilbert tables agree, the
    claim the invariance operation checks."""
    g = sp.graphs.caterpillar_tree(leaves + genus)
    for _ in range(genus):
        g = sp.graphs.add_loop_at_leaf(g, 1)
    return g


def degree_one_count(sp, g, r, L):
    """Degree-1 lattice point count, computed past the program's
    `lattice_points` cache so that set-up leaves no cache entry behind for
    the timed operations."""
    lp = sp.polytopes.lattice_points
    enumerate_points = getattr(lp, "__wrapped__", lp)
    return len(enumerate_points(sp.polytopes.from_graph(g, r, L), 1))


def plan(sp, workload, seed, workdir):
    """Instances and operations of `workload`; graph JSON files go to
    `workdir`.

    Only the invariance workload draws r from the seed: a random order of
    each call's entries.  The family enumerates every leaf labelling, so
    reordering r changes the inputs but not the amount of work, whereas
    drawing the entries themselves changes a call's time by up to 1.4x.
    The certify and dilate instances keep r = (2, ..., 2): no other r within
    their checks' hypotheses gives the same degree-1 point counts at the
    levels used (scanned over r in {0..8}^n), and permuting the graph's
    edges instead changes the lattice-point search time up to sixteenfold."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    p = Plan()

    if workload == "invariance":
        rng = random.Random(seed)
        for genus, leaves, L, entries in INVARIANCE_CALLS:
            r = tuple(rng.sample(entries, len(entries)))
            g = _family_representative(sp, genus, leaves)
            p.instances.append(Instance(f"g{genus}n{leaves} L={L}", g, r, L,
                                        degree_one_count(sp, g, r, L)))
            p.ops.append(Op(
                f"invariance g={genus} n={leaves} L={L}", "verify",
                ["verify", "--theorem", "invariance", "--genus", str(genus),
                 "--leaves", str(leaves), "--r", _rstr(r),
                 "--level", str(L), "--max-dilation", "3"]))
        return p

    graphs = _graphs(sp)

    def inst(name, L):
        g = graphs[name]
        r = (2,) * g.n_leaves
        path = workdir / f"{name}.json"
        if not path.exists():
            path.write_text(json.dumps(g.to_json_dict()))
        i = Instance(f"{name} L={L}", g, r, L,
                     degree_one_count(sp, g, r, L), path=str(path))
        p.instances.append(i)
        return i

    def cli(kind, i, *extra):
        argv = [kind, "--graph", i.path, "--r", _rstr(i.r),
                "--level", str(i.level), *extra]
        label = f"{kind} {i.name} r={_rstr(i.r)} {' '.join(extra)}".strip()
        p.ops.append(Op(label, kind, argv, r=i.r, level=i.level,
                        graph=i.graph.to_json_dict() if kind == "points"
                        else None))

    if workload == "certify":
        for name in ("cat6", "loop3"):
            i = inst(name, 4)
            cli("normal", i, "--dmax", "4")
            cli("relations", i, "--move-max", "3", "--dmax", "4")
            cli("gb-check", i, "--dmax", "4")
        i = inst("dbl4", 4)
        cli("normal", i, "--dmax", "4")
        cli("relations", i, "--move-max", "3", "--dmax", "3")
        cli("gb-check", i, "--dmax", "4")
        cli("gb-check", inst("dbl4", 6), "--dmax", "4")
        cli("relations", inst("cat6", 6), "--move-max", "3", "--dmax", "4")
        blocks = [("quadrant", q, 2) for q in (1, 2, 3, 4)]
        blocks += [("quadrant", 1, 3), ("quadrant", 3, 3), ("p3", 3)]
        for b in blocks:
            p.ops.append(Op(f"is_balanced {b[0]}({','.join(map(str, b[1:]))}) D=3", "balanced",
                            block=b))
        return p

    cli("hilbert", inst("cat6", 4), "--max-dilation", "10")
    cli("points", inst("dbl4", 6), "--dilation", "5")
    return p


def run_library_op(sp, op):
    """The one library operation: balancedness of a building block to
    degree 3, called through the module attribute so tracing sees it."""
    if op.block[0] == "quadrant":
        P = sp.polytopes.quadrant(op.block[1], op.block[2])
    else:
        P = sp.polytopes.p3(op.block[1])
    return {"balanced": sp.termorders.is_balanced(P, 3).ok}


# -- output checks -------------------------------------------------------


def summarize(op, report):
    """The parsed fields compared with the recorded values.  The report
    envelope (inputHash, version, timings) is left out on purpose."""
    k = op.kind
    if k in ("normal", "balanced"):
        return {k: report[k]}
    if k == "relations":
        return {"relationDegree": report["relationDegree"]}
    if k == "gb-check":
        detail = report["detail"] or {}
        return {"pass": report["pass"], "checked": detail.get("checked"),
                "relations": detail.get("relations"),
                "components": sorted(report["components"])}
    if k == "verify":
        return {"result": report["result"],
                "nGraphs": report["instance"]["nGraphs"]}
    if k == "hilbert":
        return {"table": report["table"]}
    if k == "points":
        return {"count": report["count"]}
    raise ValueError(f"no summary for {k!r}")


# The paper's predicted verdict, checked on every seed.
_PREDICTED = {
    "normal": ("normal", lambda s: s["normal"] is True),
    "relations": ("relation degree <= 3",
                  lambda s: s["relationDegree"] is not None
                  and s["relationDegree"] <= 3),
    "gb-check": ("quadratic square-free GB", lambda s: s["pass"] is True),
    "balanced": ("balanced", lambda s: s["balanced"] is True),
    "verify": ("graph-independent Hilbert tables",
               lambda s: s["result"] is True),
}


def _point_errors(op, report):
    """Independent membership test of every reported point of P(g, r, L)
    at dilation N: leaf pins, triangle inequalities, level sum <= 2NL and
    even trinode sums, loops counted twice."""
    N = int(op.argv[op.argv.index("--dilation") + 1])
    g = op.graph
    edges = [tuple(e) for e in g["edges"]]
    pts = [tuple(p) for p in report["points"]]
    if len(pts) != report["count"]:
        return f"count {report['count']} != {len(pts)} points listed"
    if len(set(pts)) != len(pts) or pts != sorted(pts):
        return "points are not distinct and sorted"
    pins = {}
    for label, v in g["leaves"].items():
        e = next(i for i, (a, b) in enumerate(edges) if v in (a, b))
        pins[e] = N * op.r[int(label) - 1]
    leafv = set(g["leaves"].values())
    nodes = []
    for v in g["vertices"]:
        if v in leafv:
            continue
        inc = [i for i, (a, b) in enumerate(edges) for x in (a, b) if x == v]
        nodes.append(inc)
    for p in pts:
        if len(p) != len(edges) or min(p) < 0 \
                or any(p[e] != w for e, w in pins.items()):
            return f"point {p} breaks the leaf pins"
        for inc in nodes:
            w = [p[i] for i in inc]
            s = sum(w)
            if s % 2 or s > 2 * N * op.level or any(2 * x > s for x in w):
                return f"point {p} breaks a trinode condition"
    return None


def check(op, rc, report, expected):
    """None if the output is right, else a one-line reason."""
    if rc != 0:
        return f"exit code {rc}, expected 0"
    s = summarize(op, report)
    if op.kind in _PREDICTED:
        what, ok = _PREDICTED[op.kind]
        if not ok(s):
            return f"predicted {what}, got {json.dumps(s)}"
    if op.kind == "hilbert":
        t = s["table"]
        if t[0] != 1 or t[1] < 1 or any(a > b for a, b in zip(t, t[1:])):
            return f"Hilbert table {t} is not 1, positive, nondecreasing"
    if op.kind == "points":
        err = _point_errors(op, report)
        if err:
            return err
    if op.label not in expected:
        return "no recorded value to compare with"
    if s != expected[op.label]:
        return f"got {json.dumps(s)}, recorded {json.dumps(expected[op.label])}"
    return None
