"""Graded lattice polytopes with parity sublattices.

A GradedPolytope is an integer system a·x <= N·b / c·x = N·d whose right-hand
sides scale with the dilation degree N, together with a parity sublattice
(subsets of coordinates required to have even sum).  Graph polytopes, the
building blocks of their exploded decompositions, fiber products, and the
assembly pipeline all live here.
"""

from dataclasses import dataclass, replace
from functools import lru_cache
from math import gcd, lcm

from .errors import (
    BaseMismatch,
    HypothesisViolated,
    InvalidParams,
    ParityViolation,
    Unbounded,
)
from .graphs import doubled_pairs, weighted_graph

INF = float("inf")


@dataclass(frozen=True)
class LatticeMap:
    """x -> rows·x / den: integer rows over a common denominator, required
    to be integral on every point it is applied to.  target names the
    polytope it maps into, where that matters (fiber products)."""

    rows: tuple  # tuple of integer tuples
    den: int = 1
    target: object = None  # GradedPolytope

    def apply(self, point):
        out = []
        for row in self.rows:
            v = sum(c * x for c, x in zip(row, point))
            if v % self.den:
                g = gcd(v, self.den)
                raise ParityViolation(
                    f"{point} maps to non-integer {v // g}/{self.den // g}")
            out.append(v // self.den)
        return tuple(out)


@dataclass(frozen=True)
class GradedPolytope:
    dim: int
    inequalities: tuple  # ((row), rhs): row·x <= N·rhs
    equalities: tuple    # ((row), rhs): row·x == N·rhs
    # coordinate index tuples of even sum; an index may repeat (a loop edge
    # counts twice in its trinode sum)
    parity_sets: tuple = ()
    to_lattice: LatticeMap = None  # lattice coordinates; None: identity

    def lattice_points(self, N):
        return lattice_points(self, N)

    def transform_point(self, point):
        """Image of a lattice point under to_lattice (identity if absent)."""
        if self.to_lattice is None:
            return tuple(point)
        return self.to_lattice.apply(point)


# -- lattice point enumeration -------------------------------------------


@lru_cache(maxsize=512)  # bounded; holds the repeats of one verification run
def lattice_points(P, N):
    """All lattice members of the N-th dilation, lexicographically sorted."""
    return _search(P, N, False)


@lru_cache(maxsize=512)
def count_points(P, N):
    """len(lattice_points(P, N)), by the same search without building a
    point: each leaf adds the length of its last coordinate's range."""
    return _search(P, N, True)


def _search(P, N, count):
    """The points of P's N-th dilation as a sorted tuple, or with count=True
    their number.

    The search is split in two.  `_plan(P)`, built once per polytope, holds
    what does not depend on N.  Each N then propagates integer bounds, places
    the pinned coordinates (lo == hi) once, decides the rows and parity sets
    left with no free coordinate, and searches the free coordinates in index
    order, so the points come out sorted without a sort.  ups[k] and downs[k]
    bound the coordinate at search position k from above and below: (row,
    |coefficient|, minus the row's least contribution from later positions),
    read against partial[row], the placed part of the row minus its rhs."""
    if N < 0:
        raise InvalidParams("dilation must be nonnegative")
    plan = _plan(P)
    rows, touching, _, parity = plan
    lo, hi = _propagate_bounds(P.dim, plan, N)
    none = 0 if count else ()
    if lo is None:
        return none
    free = [j for j in range(P.dim) if lo[j] < hi[j]]
    pos = {j: k for k, j in enumerate(free)}
    point = list(lo)  # original coordinate order; pinned values placed once
    partial = []
    for nz, b in rows:
        partial.append(sum(a * lo[j] for j, a in nz if j not in pos) - N * b)
        if partial[-1] > 0 and not any(j in pos for j, _ in nz):
            return none
    # a parity set is decided where its last free coordinate x_j is placed:
    # the rest of the set fixes the parity of x_j
    checks = [[] for _ in free]
    for s in parity:
        odd = sum(point[i] for i in s if i not in pos) % 2
        others = [i for i in s if i in pos]
        if not others:
            if odd:
                return none
            continue
        k = max(map(pos.get, others))
        others.remove(free[k])
        checks[k].append((others, odd))
    if not free:
        return 1 if count else (tuple(point),)

    smin = [0] * len(rows)
    ups, downs = [None] * len(free), [None] * len(free)
    for k in range(len(free) - 1, -1, -1):
        j = free[k]
        touch = touching[j]
        ups[k] = [(c, a, -smin[c]) for c, a in touch if a > 0]
        downs[k] = [(c, -a, -smin[c]) for c, a in touch if a < 0]
        for c, a in touch:
            smin[c] += a * (lo[j] if a > 0 else hi[j])
    out = []
    total = 0
    last = len(free) - 1

    def dfs(k):
        nonlocal total
        j = free[k]
        xlo, xhi = lo[j], hi[j]
        for c, a, cap in ups[k]:
            x = (cap - partial[c]) // a
            if x < xhi:
                xhi = x
        for c, a, cap in downs[k]:
            x = -((cap - partial[c]) // a)
            if x > xlo:
                xlo = x
        par = None
        for others, odd in checks[k]:
            p = (odd + sum(point[i] for i in others)) % 2
            if par is None:
                par = p
            elif p != par:
                return  # two sets disagree on the parity of x_j
        if par is not None and xlo % 2 != par:
            xlo += 1
        xs = range(xlo, xhi + 1, 1 if par is None else 2)
        if k == last:
            if count:
                total += len(xs)
                return
            for x in xs:
                point[j] = x
                out.append(tuple(point))
            return
        touch = touching[j]
        for x in xs:
            point[j] = x
            for c, a in touch:
                partial[c] += a * x
            dfs(k + 1)
            for c, a in touch:
                partial[c] -= a * x

    dfs(0)
    return total if count else tuple(out)


@lru_cache(maxsize=8)  # hilbert, is_normal and the GB check walk N on one P
def _plan(P):
    """The N-independent part of P's lattice-point search, as (rows,
    touching, units, parity): the rows other than single-coordinate ones as
    (((j, a), ...), b) for a·x <= N·b, the (row, a) pairs touching each
    coordinate, the single-coordinate rows as (j, a, b), which seed the
    bounds, and the parity sets reduced mod 2 to the coordinates they hold
    an odd number of times, empty ones dropped."""
    rows, units, touching = [], [], [[] for _ in range(P.dim)]
    negated = tuple((tuple(-a for a in r), -b) for r, b in P.equalities)
    for r, b in P.inequalities + P.equalities + negated:
        nz = tuple((j, a) for j, a in enumerate(r) if a)
        if len(nz) == 1:
            units.append((*nz[0], b))
            continue
        for j, a in nz:
            touching[j].append((len(rows), a))
        rows.append((nz, b))
    odd = ({i for i in s if s.count(i) % 2} for s in P.parity_sets)
    return rows, touching, units, [sorted(s) for s in odd if s]


def _propagate_bounds(dim, plan, N):
    """Exact interval propagation; returns (lo, hi) or (None, None) if
    infeasible; raises Unbounded if a coordinate cannot be bounded.

    The single-coordinate rows seed the bounds.  A worklist then revisits a
    row only when a bound its least value reads has tightened (lo of a
    positive coefficient, hi of a negative one), and sums that least value
    once per visit; it stops after 2·dim + 6 visits per row."""
    rows, touching, units, _ = plan
    lo, hi = [-INF] * dim, [INF] * dim
    for j, a, b in units:
        if a > 0:
            hi[j] = min(hi[j], N * b // a)
        else:
            lo[j] = max(lo[j], -(N * b // -a))
    queue = list(range(len(rows)))  # a stack: fewer visits than a queue
    queued = [True] * len(rows)
    budget = (2 * dim + 6) * len(rows)
    while queue and budget:
        budget -= 1
        c = queue.pop()
        queued[c] = False
        nz, b = rows[c]
        terms = [a * lo[j] if a > 0 else a * hi[j] for j, a in nz]
        least = sum(terms)
        tighten = range(len(nz))
        if least == -INF:  # one unbounded term bounds its own coordinate only
            tighten = [i for i, t in enumerate(terms) if t == -INF]
            if len(tighten) > 1:
                continue
            terms[tighten[0]] = 0
            least = sum(terms)
        for i in tighten:
            j, a = nz[i]
            room = N * b - least + terms[i]
            if a > 0:
                x = room // a
                if x >= hi[j]:
                    continue
                hi[j] = x
            else:
                x = -(room // -a)
                if x <= lo[j]:
                    continue
                lo[j] = x
            if lo[j] > hi[j]:
                return None, None
            for c2, a2 in touching[j]:
                if (a2 > 0) != (a > 0) and not queued[c2]:
                    queued[c2] = True
                    queue.append(c2)
    if any(l > h for l, h in zip(lo, hi)):
        return None, None
    if INF in hi or -INF in lo:
        raise Unbounded("could not bound all coordinates")
    return lo, hi


# -- graph polytopes -----------------------------------------------------


def _unit(dim, i, v=1):
    row = [0] * dim
    row[i] = v
    return tuple(row)


def _trinode_rows(dim, inc, L):
    """Triangle + level inequalities and parity set for incident edge index
    triple `inc` (loops appear twice)."""
    ineqs = []
    for i in range(3):
        row = [0] * dim
        row[inc[i]] += 1
        row[inc[(i + 1) % 3]] -= 1
        row[inc[(i + 2) % 3]] -= 1
        ineqs.append((tuple(row), 0))
    level = [0] * dim
    for e in inc:
        level[e] += 1
    ineqs.append((tuple(level), 2 * L))
    return ineqs, tuple(inc)


def _graph_system(g, pins, L):
    """The rows shared by graph and fragment polytopes, as (ineqs, eqs,
    psets): every edge weight >= 0, the trinode rows of each internal vertex
    in vertex order, and the leaf edge of each of g.leaves pinned to its
    entry of `pins`."""
    dim = len(g.edges)
    ineqs = [(_unit(dim, i, -1), 0) for i in range(dim)]
    psets = []
    for v in g.internal_vertices:
        rows, pset = _trinode_rows(dim, g.incident_edges(v), L)
        ineqs.extend(rows)
        psets.append(pset)
    eqs = [(_unit(dim, g.leaf_edge_index(lab)), w)
           for (lab, _), w in zip(g.leaves, pins)]
    return ineqs, eqs, psets


def from_graph(g, r, L):
    """The polytope of nonnegative edge weightings of g with leaf weights r
    and level L: per trinode the triangle inequalities, level sum <= 2L, and
    even trinode sum."""
    if L < 0:
        raise InvalidParams(f"level L = {L} must be >= 0")
    g = weighted_graph(g, r)
    ineqs, eqs, psets = _graph_system(g, r, L)
    return GradedPolytope(len(g.edges), tuple(ineqs), tuple(eqs), tuple(psets))


def require_degree_one_point(P, r, L):
    """Refuse a polytope with no degree-1 point: every check on it would
    pass vacuously."""
    if not P.lattice_points(1):
        raise HypothesisViolated(
            f"P(graph, r={list(r)}, L={L}) has no degree-1 point")


def _parity_span(psets):
    """Membership in the GF(2) span of the parity sets, as coordinate bit
    masks (a coordinate listed twice cancels): coordinates whose mask lies in
    the span have an even sum on every point of the lattice."""
    basis = {}  # leading bit -> mask

    def reduce(v):
        while v and v.bit_length() in basis:
            v ^= basis[v.bit_length()]
        return v

    for s in psets:
        v = reduce(sum(1 << i for i in set(s) if s.count(i) % 2))
        if v:
            basis[v.bit_length()] = v
    return lambda *coords: not reduce(sum(1 << i for i in coords))


def fragment_polytope(frag, r_map, L, even_stubs=False):
    """Polytope of a graph fragment; stub edges are free coordinates.

    With even_stubs=True every stub coordinate additionally carries an even
    parity condition (the interior-edge evenness that holds in context for
    compatible weights), and a lattice-coordinate transform is attached:
    the parity data (with the leaves pinned to even weights) force even
    sums on some edges and pairs: doubled-edge pairs of even sum map to
    ((y1-y2)/2, (y1+y2)/2), even edges are halved, and every other edge
    stays."""
    dim = len(frag.edges)
    ineqs, eqs, psets = _graph_system(
        frag, [r_map[lab] for lab, _ in frag.leaves], L)
    to_lattice = None
    if even_stubs:
        for e in frag.stub_edges:
            psets.append((e,))
        even = _parity_span(psets + [(row.index(1),) for row, r in eqs
                                     if r % 2 == 0])
        pairs = [pair for pair in doubled_pairs(frag.edges) if even(*pair)]
        paired = {i for pair in pairs for i in pair}
        rows = [_unit(dim, i, 1 if even(i) else 2)
                for i in range(dim) if i not in paired]
        for y1, y2 in pairs:
            u, v = _unit(dim, y1), _unit(dim, y2)
            rows.append(tuple(a - b for a, b in zip(u, v)))
            rows.append(tuple(a + b for a, b in zip(u, v)))
        to_lattice = LatticeMap(tuple(rows), 2)
    return GradedPolytope(dim, tuple(ineqs), tuple(eqs), tuple(psets),
                          to_lattice)


# -- building blocks -----------------------------------------------------


def interval(L):
    if L < 0:
        raise InvalidParams("L must be nonnegative")
    return GradedPolytope(1, (((-1,), 0), ((1,), L)), (), (),
                          LatticeMap(((1,),)))


_TRIANGLE_BASIS = LatticeMap(((-1, 1, 1), (1, -1, 1), (1, 1, -1)), 2)


def p3(L):
    """Trinode polytope: hull of (0,0,0),(L,L,0),(L,0,L),(0,L,L).  Its
    lattice map is the triangle basis (0,1,1),(1,0,1),(1,1,0) of the trinode
    parity lattice, which makes P3(L) the simplex {t >= 0, sum t <= L}."""
    if L < 0:
        raise InvalidParams("L must be nonnegative")
    ineqs = [(_unit(3, i, -1), 0) for i in range(3)]
    rows, pset = _trinode_rows(3, (0, 1, 2), L)
    ineqs.extend(rows)
    return GradedPolytope(3, tuple(ineqs), (), (pset,), _TRIANGLE_BASIS)


def with_full_lattice(P):
    return replace(P, parity_sets=(), to_lattice=None)


def quadrant(q, L):
    """The four interlacing-diagram quadrants of the transformed doubled-edge
    block, in (x, z, A, B) coordinates with the full integer lattice.

    Q1: 0 <= A <= x, z and x, z <= B <= L; Q2 mirrors A -> -A; Q3 and Q4
    are the reflections B -> 2L - B."""
    if q not in (1, 2, 3, 4):
        raise InvalidParams("quadrant index must be 1..4")
    if L < 0:
        raise InvalidParams("L must be nonnegative")
    X, Z, A, B = 0, 1, 2, 3
    ineqs = [(_unit(4, X, -1), 0), (_unit(4, Z, -1), 0)]
    s = 1 if q in (1, 3) else -1
    # s*A >= 0 ;  s*A <= x ;  s*A <= z
    ineqs.append((_unit(4, A, -s), 0))
    row = [0] * 4
    row[A], row[X] = s, -1
    ineqs.append((tuple(row), 0))
    row = [0] * 4
    row[A], row[Z] = s, -1
    ineqs.append((tuple(row), 0))
    if q in (1, 2):
        # x, z <= B <= L
        for i in (X, Z):
            row = [0] * 4
            row[i], row[B] = 1, -1
            ineqs.append((tuple(row), 0))
        ineqs.append((_unit(4, B), L))
        ineqs.append((_unit(4, B, -1), 0))
    else:
        # x, z <= 2L - B, and L <= B <= 2L
        for i in (X, Z):
            row = [0] * 4
            row[i], row[B] = 1, 1
            ineqs.append((tuple(row), 2 * L))
        ineqs.append((_unit(4, B, -1), -L))
        ineqs.append((_unit(4, B), 2 * L))
    return GradedPolytope(4, tuple(ineqs), ())


# -- lattice maps and fiber products -------------------------------------


def edge_projection(P, coord, L):
    """w -> w_coord / 2 into the interval [0, L] (interior edges carry even
    weight in context)."""
    return LatticeMap((_unit(P.dim, coord),), 2, interval(L))


@dataclass(frozen=True)
class FiberProduct:
    """A fiber product P1 x_Q P2 on concatenated coordinates."""

    polytope: GradedPolytope
    offset: int  # dim of P1; P2's coordinates start here


def fiber_product(P1, f1, P2, f2):
    """Points (x, y) with f1(x) = f2(y); BaseMismatch unless the maps share
    a target."""
    if f1.target != f2.target:
        raise BaseMismatch("maps must share a base polytope")
    d1, d2 = P1.dim, P2.dim
    dim = d1 + d2

    def pad1(row):
        return tuple(row) + (0,) * d2

    def pad2(row):
        return (0,) * d1 + tuple(row)

    ineqs = [(pad1(r), b) for r, b in P1.inequalities]
    ineqs += [(pad2(r), b) for r, b in P2.inequalities]
    eqs = [(pad1(r), b) for r, b in P1.equalities]
    eqs += [(pad2(r), b) for r, b in P2.equalities]
    den = lcm(f1.den, f2.den)
    k1, k2 = den // f1.den, den // f2.den
    for r1, r2 in zip(f1.rows, f2.rows):
        row = tuple(k1 * c for c in r1) + tuple(-k2 * c for c in r2)
        g = gcd(den, *row)
        eqs.append((tuple(c // g for c in row), 0))
    psets = [tuple(s) for s in P1.parity_sets]
    psets += [tuple(d1 + i for i in s) for s in P2.parity_sets]
    trans = None
    t1, t2 = P1.to_lattice, P2.to_lattice
    if t1 is not None and t2 is not None:
        den = lcm(t1.den, t2.den)
        rows = [pad1(den // t1.den * c for c in r) for r in t1.rows]
        rows += [pad2(den // t2.den * c for c in r) for r in t2.rows]
        trans = LatticeMap(tuple(rows), den)
    poly = GradedPolytope(dim, tuple(ineqs), tuple(eqs), tuple(psets), trans)
    return FiberProduct(poly, d1)


# -- assembly ------------------------------------------------------------


def recognize_block(frag):
    """The building block a fragment is, by name (loop_b2 | loop_b | p3 |
    p3_fixed1 | p3_fixed2), or "fragment" when it is none of them."""
    loops = [i for i, (a, b) in enumerate(frag.edges) if a == b]
    pairs = doubled_pairs(frag.edges)
    internal = frag.internal_vertices
    n_leaf = len(frag.leaves)
    if pairs and len(internal) == 2 and len(frag.edges) == 4:
        return "loop_b2"
    if loops and len(internal) == 1 and len(frag.edges) == 2:
        return "loop_b"
    if len(internal) == 1 and len(frag.edges) == 3 and not loops and n_leaf < 3:
        return ("p3", "p3_fixed1", "p3_fixed2")[n_leaf]
    return "fragment"


@dataclass(frozen=True)
class Assembly:
    polytope: GradedPolytope
    components: tuple  # (fragment, recognize_block name, GradedPolytope)
    steps: tuple       # readable fold description
    coord_map: tuple   # per final coordinate: (component, local edge, original edge)


def assemble(eg, r, L, even_interior=False):
    """Fold the exploded components into a single polytope via fiber products
    over [0, L] along the split edges.

    The result has one coordinate per component edge (split edges appear once
    per side, glued by an equality); its lattice point count matches the
    source graph polytope in every dilation."""
    r_map = {lab: r[lab - 1] for lab, _ in weighted_graph(eg.source, r).leaves}
    comps = []
    for frag in eg.components:
        P = fragment_polytope(frag, r_map, L, even_stubs=even_interior)
        comps.append((frag, recognize_block(frag), P))

    # order components along the split-edge tree, root = component 0
    n = len(eg.components)
    attach = {0: None}
    order = [0]
    pending = list(eg.split_edges)
    while pending:
        progressed = False
        for rec in list(pending):
            _, (ca, ea), (cb, eb) = rec
            if ca in attach and cb not in attach:
                attach[cb] = (rec, ca, ea, cb, eb)
                order.append(cb)
                pending.remove(rec)
                progressed = True
            elif cb in attach and ca not in attach:
                attach[ca] = (rec, cb, eb, ca, ea)
                order.append(ca)
                pending.remove(rec)
                progressed = True
        if not progressed:
            break

    coord_map = []
    placed_coord = {}  # (component, local edge) -> accumulated coordinate
    frag0 = eg.components[0]
    for i in range(len(frag0.edges)):
        placed_coord[(0, i)] = i
        coord_map.append((0, i, frag0.original_edges[i]))
    acc = comps[0][2]
    steps = [f"component0:{comps[0][1]}"]
    for c in order[1:]:
        rec, ca, ea, cb, eb = attach[c]
        frag = eg.components[c]
        P = comps[c][2]
        f1 = edge_projection(acc, placed_coord[(ca, ea)], L)
        f2 = edge_projection(P, eb, L)
        fp = fiber_product(acc, f1, P, f2)
        offset = fp.offset
        for i in range(len(frag.edges)):
            placed_coord[(c, i)] = offset + i
            coord_map.append((c, i, frag.original_edges[i]))
        acc = fp.polytope
        steps.append(f"x_[0,{L}] component{c}:{comps[c][1]}")
    return Assembly(acc, tuple(comps), tuple(steps), tuple(coord_map))

