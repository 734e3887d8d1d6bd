"""Semigroup-algebra verification: Hilbert functions, normality, degree of
ideal generation via fiber-graph connectivity, and quadratic square-free
Groebner bases checked by standard-monomial counting."""

import time
from collections import defaultdict
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb
from operator import itemgetter

from .errors import HypothesisViolated, NormalityPrerequisiteFailed
from .graphs import (
    GraphClass,
    classify,
    enumerate_graphs,
    is_compatible,
    validate,
    weighted_graph,
    _is_tree_like,
)
from .catp import boxtimes_assemble
from .polytopes import count_points, from_graph, require_degree_one_point
from .termorders import Check, is_balanced, standard_monomials, _sum_code


def _table(entries):
    """entries[N] = lattice point count of dilation N, as a tuple."""
    if len(entries) > 1 and not any(entries[1:]):
        entries[0] = 0  # empty-polytope convention
    return tuple(entries)


def hilbert(P, Nmax):
    """The lattice point counts of dilations 0..Nmax, by `count_points`,
    which lists no point.  Entry 0 is 1, or 0 when no dilation up to Nmax
    has a point: the empty-polytope convention reads only the table itself,
    so it is relative to the bound.  A polytope whose first point lies in
    dilation 2 reads (0, 0) to Nmax = 1 and (1, 0, 1) to Nmax = 2, and every
    polytope reads (1,) to Nmax = 0."""
    return _table([count_points(P, n) for n in range(Nmax + 1)])


def hilbert_by_fusion(g, r, L, Nmax):
    """The Hilbert table of from_graph(g, r, L), counted without listing a
    point.

    The polytope's constraints factor over trinodes: each asks for the
    triangle inequalities, an even sum and a sum <= 2NL (a loop counts
    twice), and leaf edges are pinned to N·r_i.  Eliminating the trinodes
    one at a time, with the running counts keyed by the weights of the edges
    a later trinode still reads, sums over exactly the points that
    `lattice_points` lists.  So the table equals `hilbert(from_graph(g, r,
    L), Nmax)` for every r and L: this is the polytope's own count, not the
    Verlinde formula, and needs none of its range conditions.

    Graphs of one `fusion_key` have equal tables."""
    g = weighted_graph(g, r)
    pinned, steps = _elimination_plan(g)
    entries = []
    for N in range(Nmax + 1):
        pins = tuple(N * x for x in r)
        # a negative pin, or unequal pins on the edge joining two leaves
        if min(pins, default=0) < 0 or any(
                p != pins[pinned.index(e)] for e, p in zip(pinned, pins)):
            entries.append(0)
        else:
            entries.append(_fusion_count(steps, pins, N * L))
    return _table(entries)


def fusion_key(g, r):
    """What `hilbert_by_fusion(g, r, L, Nmax)` reads of g and r: the
    internal edges in edge order, the sorted leaf weights at each trinode in
    vertex order, and the sorted weight pair of any edge joining two leaves.

    Graphs with equal keys have the same polytope up to an order of the
    leaf coordinates: a trinode's constraints are symmetric in its three
    edges, and a leaf edge is pinned to N times its weight.  So their tables
    are equal for every L and Nmax.  Vertices are keyed as they are, not by
    their str, so 1 and "1" stay apart."""
    g = weighted_graph(g, r)
    weight = {v: w for (_, v), w in zip(g.leaves, r)}
    internal, joined, at = [], [], {}
    for a, b in g.edges:
        if a in weight and b in weight:
            joined.append(tuple(sorted((weight[a], weight[b]))))
        elif a in weight or b in weight:
            v, leaf = (b, a) if a in weight else (a, b)
            at.setdefault(v, []).append(weight[leaf])
        else:
            internal.append((a, b))
    return (tuple(internal),
            tuple((v, tuple(sorted(at[v]))) for v in g.vertices if v in at),
            tuple(joined))


def _elimination_plan(g):
    """The leaf edges of g in label order, and its trinodes in a greedy
    elimination order as steps (loop, known, keep).  The running counts are
    keyed by the weights of the frontier: the edges that a later trinode
    still reads.  A step's trinode reads its known edges through the
    `_take` getter `known` of (leaf pins, frontier), and brings in the rest
    as new edges (a loop edge is always new, and last); the getter `keep`
    picks the next frontier from (leaf pins, frontier, new).  Each step
    takes the trinode that brings in the fewest new edges, then the one
    that reads the most frontier edges, then the first in vertex order."""
    at = {v: [] for v in g.vertices}
    for i, e in enumerate(g.edges):
        for v in e:
            at[v].append(i)  # a loop twice
    pinned = tuple(at[v][0] for _, v in g.leaves)
    todo = [inc for inc in at.values() if len(inc) == 3]
    frontier, steps = (), []
    while todo:
        known = set(pinned) | set(frontier)
        inc = todo.pop(min(range(len(todo)), key=lambda i: (
            len(set(todo[i]) - known), -len(set(todo[i]) & set(frontier)))))
        edges = sorted(set(inc), key=lambda e: (e not in known, inc.count(e), e))
        new = [e for e in edges if e not in known]
        later = {e for t in todo for e in t}
        keep = [e for e in (*frontier, *new) if e in later]
        layout = (*pinned, *frontier, *new)
        steps.append((len(edges) == 2,
                      _take([layout.index(e) for e in edges if e in known]),
                      _take([layout.index(e) for e in keep])))
        frontier = tuple(keep)
    return pinned, steps


def _fusion_count(steps, pins, NL):
    rules = _fusion_rules(NL)
    counts = {(): 1}
    for loop, known, keep in steps:
        nxt = {}
        for vals, c in counts.items():
            ext = pins + vals
            for new, m in rules[loop, known(ext)]:
                key = keep(ext + new)
                nxt[key] = nxt.get(key, 0) + c * m
        counts = nxt
    return sum(counts.values())


def _take(idx):
    """t -> the tuple of t's entries at positions idx."""
    if len(idx) > 1:
        return itemgetter(*idx)
    return lambda t: tuple(t[i] for i in idx)


@lru_cache(maxsize=16)
def _fusion_rules(k):
    """The SL2 fusion rules at level k as one table: (loop, known weights)
    -> a trinode's choices of its new edge weights, ((new weights, number
    of points), ...).  Entries are filled as they are first read, so the
    table holds what the counts use and no more.

    A trinode (a, b, c) is admissible, N_abc = 1, iff |a-b| <= c <= a+b,
    a+b+c is even and a+b+c <= 2k; so no weight exceeds k.  A trinode of
    three edges knows its first 0 to 3 weights, and its new weights are the
    rest.  A loop trinode (a, l, l) needs a even and a/2 <= l <= k - a/2, so
    l is counted, not listed: its choices are its even a <= k (given, or new
    and listed), each standing for k - a + 1 points."""
    return _FusionRules(k)


class _FusionRules(dict):
    def __init__(self, k):
        super().__init__()
        self.k = k

    def __missing__(self, key):
        loop, known = key
        k = self.k
        if loop:
            choices = tuple(((() if known else (a,)), k - a + 1)
                            for a in known or range(0, k + 1, 2)
                            if a % 2 == 0 and a <= k)
        else:
            choices = tuple((t[len(known):], 1) for t in _admissible(k, known))
        self[key] = choices
        return choices


def _admissible(k, known):
    """The admissible triples (a, b, c) at level k that begin with the
    weights `known`, in lexicographic order."""
    for a in known[:1] or range(k + 1):
        for b in known[1:2] or range(k + 1):
            cs = range(abs(a - b), min(a + b, 2 * k - a - b) + 1, 2)
            for c in known[2:] or cs:
                if c in cs:
                    yield a, b, c


def is_normal(P, Dmax):
    """Degree-1 generation: every point of NP is a sum of N points of P,
    for 2 <= N <= Dmax.  Returns Check(ok, (N, witness point)), the witness
    the first point of NP, in `lattice_points` order, that is no such sum.

    The N-fold sumset of the degree-1 points is built from their
    `_sum_code` integers, which add without carrying for N <= Dmax.  A sum
    of N degree-1 points lies in NP and in the lattice, whose rows and
    parity sets are additive, and `_sum_code` is injective on such sums; so
    the sumset has at most H(N) = `count_points(P, N)` codes, and H(N) iff
    every point of NP is a sum.  NP is listed only on a shortfall, for the
    witness; a point outside N times the degree-1 bounding box has no code."""
    gens = P.lattice_points(1)
    code = _sum_code(gens, Dmax)
    codes = [code(p, 1) for p in gens]
    reach = set(codes)
    for N in range(2, Dmax + 1):
        reach = {a + b for a in reach for b in codes}
        if len(reach) == count_points(P, N):
            continue
        for pt in P.lattice_points(N):
            if code(pt, N) not in reach:
                return Check(False, (N, pt))
    return Check(True)


@dataclass
class GenerationCertificate:
    relation_degree: int  # least d making all fibers connected; None if > bound
    witnesses: tuple = ()  # (N, b, required degree) for the tightest fibers
    minimal_relations: dict = field(default_factory=dict)  # N -> generators


def _next_fibers(fibers, codes, unit, bits):
    """The degree-N fibers from the degree-(N-1) ones, both as dicts image
    code -> monomial codes.  Each monomial u is extended by every point at
    or after its last point (its lowest nonzero digit), so each degree-N
    monomial is made once.  Each fiber is sorted in decreasing code order,
    which is combination order, and the fibers are ordered by their first
    monomial: the order of `monomials_by_image`."""
    n = len(codes)
    tails = [list(zip(codes[p:], unit[p:])) for p in range(n)]
    out = defaultdict(list)
    for key, fiber in fibers.items():
        for u in fiber:
            for c, e in tails[n - 1 - ((u & -u).bit_length() - 1) // bits]:
                out[key + c].append(u + e)
    for fiber in out.values():
        fiber.sort(reverse=True)
    return dict(sorted(out.items(), key=lambda kv: kv[1][0], reverse=True))


def _lifted_spanning_tree(fiber, lifts, N):
    """Minimum spanning tree of a degree-N fiber, as buckets tree[w] of its
    (u, v) edges of exchange size w, for 2 <= w <= N.  Two monomials that
    differ in w < N points share a point p, and their quotients by p differ
    in the same points inside fiber b - p; so the lifts by p of the trees of
    the fibers b - p connect what the exchange graph connects below weight N.
    `lifts` holds (unit[p], tree of b - p) in point order.  The walk takes
    weight 2, then 3, and so on; within a weight it goes by point, then in
    tree order, and it stops at |fiber| - 1 edges.  Weight-N edges join the
    rest."""
    index = {m: i for i, m in enumerate(fiber)}
    parent = list(range(len(fiber)))  # union-find with path halving
    tree = [[] for _ in range(N + 1)]
    need = len(fiber) - 1
    for w in range(2, N):
        edges = tree[w]
        for e, lower in lifts:
            for u, v in lower[w]:
                u += e
                v += e
                i, j = index[u], index[v]
                while parent[i] != i:
                    parent[i] = i = parent[parent[i]]
                while parent[j] != j:
                    parent[j] = j = parent[parent[j]]
                if i != j:
                    parent[i] = j
                    edges.append((u, v))
                    need -= 1
                    if not need:
                        return tree
    roots = [m for i, m in enumerate(fiber) if parent[i] == i]
    tree[N] = [(roots[0], r) for r in roots[1:]]
    return tree


def relation_degree(P, move_degree_max, Dmax):
    """Fiber-graph connectivity: the toric ideal is generated in degree <= d
    (up to the checked bound) iff every fiber of every degree <= Dmax is
    connected by exchanges of sub-multisets of size <= d.  A fiber's least d
    is the heaviest edge of its lifted spanning tree; its weight-N edges, one
    per extra component of monomials linked by shared points, count the
    degree-N minimal generators (Diaconis-Sturmfels 1998).

    A monomial is one integer: point i's multiplicity is its own digit of
    Dmax.bit_length() bits, point 0 in the top digit, so combination order
    is decreasing code order and unit[p] is the monomial p.  A fiber is keyed
    by the `_sum_code` integer of its image, and degree N's fibers grow from
    degree N-1's (`_next_fibers`).  Each tree is kept bucketed by weight, so
    a fiber's tree lifts the lower trees weight by weight.  Only the
    witnesses' images are decoded to point tuples.

    Normality, the prerequisite, is checked by `is_normal` before any fiber
    is built; a failure raises NormalityPrerequisiteFailed with its
    witness."""
    chk = is_normal(P, Dmax)
    if not chk.ok:
        raise NormalityPrerequisiteFailed(chk.witness)
    pts = P.lattice_points(1)
    n, bits = len(pts), Dmax.bit_length()
    code = _sum_code(pts, Dmax)
    codes = [code(p, 1) for p in pts]
    unit = [1 << bits * (n - 1 - p) for p in range(n)]
    overall = 1
    tight = []
    failed = []
    minimal = {}
    fibers = dict(zip(codes, ([u] for u in unit)))
    trees = {}
    for N in range(2, Dmax + 1):
        fibers = _next_fibers(fibers, codes, unit, bits)
        lower, trees = trees, {}
        minimal[N] = 0
        for b, fiber in fibers.items():
            if len(fiber) <= 1:
                continue
            # codes add without carrying, so b - codes[p] keys a degree-(N-1)
            # fiber only if that fiber times p lies in this one
            lifts = [(unit[p], t) for p in range(n)
                     if (t := lower.get(b - codes[p]))]
            tree = _lifted_spanning_tree(fiber, lifts, N)
            if N < Dmax:
                trees[b] = tree
            minimal[N] += len(tree[N])
            d = max(w for w in range(N + 1) if tree[w])
            if d > move_degree_max:
                failed.append((N, fiber[0]))
            elif d > overall:
                overall = d
                tight = [(N, fiber[0], d)]
            elif d == overall and len(tight) < 5:
                tight.append((N, fiber[0], d))

    def image(m):
        mult = [m >> bits * (n - 1 - p) & (1 << bits) - 1 for p in range(n)]
        return tuple(sum(k * x for k, x in zip(mult, c)) for c in zip(*pts))

    if failed:
        overall, tight = None, [(N, image(m)) for N, m in failed[:5]]
    else:
        tight = [(N, image(m), d) for N, m, d in tight]
    return GenerationCertificate(overall, tuple(tight), minimal)


def generation(P, move_degree_max, Dmax):
    """The relation step of `relations` and `polypres`: `relation_degree`,
    with a failed normality prerequisite turned into a failed certificate
    whose one witness is its (N, point)."""
    try:
        return relation_degree(P, move_degree_max, Dmax)
    except NormalityPrerequisiteFailed as e:
        return GenerationCertificate(None, (e.witness,))


def quadratic_squarefree_gb(P, order, table):
    """Certify, to degree Dmax = len(table) - 1, that the quadratic binomials
    with nonstandard leading terms form a square-free Groebner basis under
    the total order `order`: all squares must be standard, and the count of
    monomials avoiding the nonstandard degree-2 leading terms must match
    P's Hilbert table in every degree.  Any polytope with P's point counts
    gives the table: for an assembly, the graph polytope, searched on fewer
    free coordinates."""
    Dmax = len(table) - 1
    pts = list(P.lattice_points(1))
    std2 = standard_monomials(P, order, 2)
    for p in pts:
        if (p, p) not in std2:
            return Check(False, {"reason": "square leading term",
                                 "witness": (p, p)})
    counts = _pair_standard_counts(pts, std2, Dmax)
    for N in range(2, Dmax + 1):
        if counts[N] != table[N]:
            return Check(False, {"reason": "count mismatch", "degree": N,
                                 "standard_count": counts[N],
                                 "hilbert": table[N]})
    # one standard monomial per fiber: the others lead the relations
    relations = comb(len(pts) + 1, 2) - len(std2)
    return Check(True, {"checked": Dmax, "relations": relations})


def _pair_standard_counts(pts, std2, Dmax):
    """{N: number of degree-N multisets of points whose distinct points are
    pairwise standard} for 2 <= N <= Dmax; squares must be standard.  Their
    supports are the cliques of the standard-pair graph, and a k-clique
    carries C(N-1, k-1) multisets of degree N, so the count is the sum over
    k of f_k·C(N-1, k-1), f_k the number of k-cliques: the Hilbert function
    of the graph's Stanley-Reisner ring (Sturmfels 1996, ch. 8)."""
    n = len(pts)
    later = [{j for j in range(i + 1, n)
              if (pts[i], pts[j]) in std2} for i in range(n)]
    f = [0] * (Dmax + 2)  # f[k]: k-cliques, k <= max(Dmax, 1)

    def extend(k, common):
        f[k] += 1
        if k < Dmax:
            for j in common:
                extend(k + 1, common & later[j])

    for i in range(n):
        extend(1, later[i])
    return {N: sum(f[k] * comb(N - 1, k - 1) for k in range(1, N + 1))
            for N in range(2, Dmax + 1)}


# -- theorem orchestration ------------------------------------------------


@dataclass
class Certificate:
    theorem: str
    instance: dict
    bounds: dict
    result: bool
    witnesses: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)
    table: list = None  # invariance: the common Hilbert table

    def to_json_dict(self):
        out = {
            "theorem": self.theorem,
            "instance": self.instance,
            "bounds": self.bounds,
            "result": self.result,
            "witnesses": self.witnesses,
            "timings": {k: round(v, 6) for k, v in self.timings.items()},
        }
        if self.table is not None:
            out["table"] = self.table
        return out


def verify_theorem(name, graph=None, r=None, level=None, genus=None,
                   leaves=None, nmax=3, dmax=4):
    """Run one of the paper-scale verifications and emit a certificate.
    `level` is the SL2 level L of P(graph, r, L): each trinode sum <= 2L.

    polypres, L >= 2: tree-like + compatible: normal and relations in
      degree <= 3.
    polyquad, L >= 0: caterpillar + even r: quadratic square-free GB under
      the assembled concatenation order.
    invariance, L >= 0, nmax >= 1: Hilbert tables to dilation nmax, by
      `hilbert_by_fusion`, agree across all graphs with (genus, leaves).
      Every graph gets a table, and graphs of one `fusion_key` share one
      count: their polytopes differ only in the order of the leaf
      coordinates, so their tables are equal at every level and dilation.
    d2bp, L >= 0: caterpillar tree + even r: the assembly is a fiber
      product of <= 2-dimensional balanced blocks and its GB check passes.

    A polytope, or a family of them, with no degree-1 point is refused:
    every check on it would pass vacuously.
    """
    t0 = time.perf_counter()
    timings = {}
    if level is None:
        raise HypothesisViolated("a level L is required")
    if level < 0:
        raise HypothesisViolated(f"level L = {level} must be >= 0")
    if name == "polypres" and level < 2:
        raise HypothesisViolated(f"L > 1 required (level L = {level})")
    if name == "invariance":
        if genus is None or leaves is None or r is None:
            raise HypothesisViolated("invariance needs genus, leaves, r")
        if nmax < 1:
            # no table below dilation 1 reads a degree-1 point
            raise HypothesisViolated(f"dilation bound nmax = {nmax} must be >= 1")
        gs = enumerate_graphs(genus, leaves)
        if not gs:
            raise HypothesisViolated(f"no graph has genus {genus} and {leaves} leaves")
        t1 = time.perf_counter()
        timings["graphs"] = t1 - t0
        r = tuple(r)
        shared = {}  # fusion_key -> table, for this call only
        tables = []
        for g in gs:
            key = fusion_key(g, r)
            if key not in shared:
                shared[key] = hilbert_by_fusion(g, r, level, nmax)
            tables.append(shared[key])
        timings["counts"] = time.perf_counter() - t1
        ok = all(t == tables[0] for t in tables)
        if ok and not any(tables[0][1:2]):
            # nothing in degree 1: the polytopes are empty (say r_i > L) or their
            # points need an even dilation (an odd number of odd r_i)
            raise HypothesisViolated(
                f"the family's common table {list(tables[0])} has no "
                f"degree-1 point")
        timings["total"] = time.perf_counter() - t0
        return Certificate(
            "invariance",
            {"genus": genus, "leaves": leaves, "r": list(r), "level": level,
             "nGraphs": len(gs)},
            {"nmax": nmax}, ok,
            [] if ok else [{"tables": tables}], timings,
            list(tables[0]) if ok else None)

    if graph is None or r is None:
        raise HypothesisViolated(f"{name} needs graph, r")
    g = validate(graph)
    r = tuple(r)

    if name == "polypres":
        if not _is_tree_like(g):
            raise HypothesisViolated("graph is not tree-like")
        if not is_compatible(g, r):
            raise HypothesisViolated("weights are not compatible with the graph")
        P = from_graph(g, r, level)
        require_degree_one_point(P, r, level)
        t1 = time.perf_counter()
        cert = generation(P, 3, dmax)
        timings["relations"] = time.perf_counter() - t1
        timings["total"] = time.perf_counter() - t0
        rel = cert.relation_degree
        return Certificate(
            "polypres",
            {"graph": g.to_json_dict(), "r": list(r), "level": level,
             "relationDegree": rel},
            {"dmax": dmax, "moveMax": 3}, rel is not None,
            list(cert.witnesses), timings)

    if name in ("polyquad", "d2bp"):
        cls = classify(g)
        allowed = {GraphClass.CATERPILLAR_TREE, GraphClass.CATERPILLAR_GRAPH}
        if name == "d2bp":
            allowed = {GraphClass.CATERPILLAR_TREE}
        if cls not in allowed:
            raise HypothesisViolated(f"graph class {cls.value} not allowed")
        if any(x % 2 for x in r):
            raise HypothesisViolated("all leaf weights must be even")
        order, assembly = boxtimes_assemble(g, r, level)
        witnesses = []
        if name == "d2bp":
            t1 = time.perf_counter()
            for frag, kind, Pc in assembly.components:
                if Pc.dim - len(frag.leaves) > 2:
                    raise HypothesisViolated(
                        "a component is not 2-dimensional")
                bal = is_balanced(Pc, 3)
                if not bal.ok:
                    witnesses.append(bal.witness)
            timings["blocks"] = time.perf_counter() - t1
        t1 = time.perf_counter()
        gb = quadratic_squarefree_gb(assembly.polytope, order,
                                     hilbert(from_graph(g, r, level), dmax))
        timings["gb"] = time.perf_counter() - t1
        if not gb.ok:
            witnesses.append(gb.witness)
        timings["total"] = time.perf_counter() - t0
        return Certificate(
            name,
            {"graph": g.to_json_dict(), "r": list(r), "level": level,
             "components": [k for _, k, _ in assembly.components]},
            {"dmax": dmax}, not witnesses, witnesses, timings)

    raise HypothesisViolated(f"unknown theorem {name!r}")
