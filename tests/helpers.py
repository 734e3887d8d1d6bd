"""Independent brute-force oracles for the test suite, and the building
blocks, weights, fiber products and fiber-product checks that only the
tests use.

The oracles are deliberately naive: box scans with no propagation or
pruning, so results are computed by a different route than the library's
enumerator."""

import importlib.util
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, permutations, product
from math import gcd, lcm
from pathlib import Path

from spinpoly.catp import component_total_order
from spinpoly.errors import InvalidParams, SpinpolyError
from spinpoly.graphs import (
    MarkedGraph,
    _canonical_key,
    _connected,
    _relabel,
    add_loop_at_leaf,
    caterpillar_tree,
    double_edge_at,
    validate,
)
from spinpoly.polytopes import (
    GradedPolytope,
    LatticeMap,
    assemble,
    p3,
    quadrant,
    _TRIANGLE_BASIS,
    _trinode_rows,
    _unit,
)
from spinpoly.termorders import Check, TotalOrder, monomials_by_image
from spinpoly.toric import GenerationCertificate


SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    """The module of scripts/<name>.py."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def gb_route_instances():
    """The graphs, r and L on which a GB check runs: perfbench's certify
    graphs at L = 4 and 6, every polyquad and d2bp instance of the battery,
    and cat6 at L = 3 and 5, where the check fails on the count."""
    t4 = caterpillar_tree(4)
    internal = [i for i, (a, b) in enumerate(t4.edges)
                if t4.degree(a) == 3 and t4.degree(b) == 3]
    for g in (caterpillar_tree(6), add_loop_at_leaf(caterpillar_tree(3), 1),
              double_edge_at(t4, internal[0])):
        for L in (4, 6):
            yield g, (2,) * g.n_leaves, L
    for name, kw, _ in load_script("run_verifications").instances():
        if name in ("polyquad", "d2bp"):
            yield kw["graph"], kw["r"], kw["level"]
    for L in (3, 5):
        yield caterpillar_tree(6), (2,) * 6, L


# -- building blocks that no command builds ------------------------------


def interval(L):
    if L < 0:
        raise InvalidParams("L must be nonnegative")
    return GradedPolytope(1, (((-1,), 0), ((1,), L)), (), (),
                          LatticeMap(((1,),)))


def point_polytope():
    """The 0-dimensional polytope (fiber products over it are products)."""
    return GradedPolytope(0, (), (), (), LatticeMap(()))


def p3_fixed1(r, L):
    """Trinode with first edge pinned to r."""
    if r < 0 or L < 0 or r > 2 * L:
        raise InvalidParams(f"need 0 <= r <= 2L, got r={r}, L={L}")
    base = p3(L)
    eqs = ((_unit(3, 0), r),)
    trans = None
    if r % 2 == 0:
        # lattice {w2 + w3 even}: basis ((w2+w3)/2, (w2-w3)/2), w1 pinned
        trans = LatticeMap(((1, 0, 0), (0, 1, 1), (0, 1, -1)), 2)
    return GradedPolytope(3, base.inequalities, eqs, base.parity_sets, trans)


def p3_fixed2(r, s, L):
    """Trinode with two edges pinned to r and s; the free weight t ranges
    over |r-s| <= t <= min(r+s, 2L-r-s) with t = r+s mod 2.  For r + s even
    the lattice map halves t, and r and s too when they are even."""
    if r < 0 or s < 0 or L < 0 or r > 2 * L or s > 2 * L:
        raise InvalidParams(f"need 0 <= r,s <= 2L, got r={r}, s={s}, L={L}")
    base = p3(L)
    eqs = ((_unit(3, 0), r), (_unit(3, 1), s))
    trans = None
    if (r + s) % 2 == 0:
        h = 1 + r % 2
        trans = LatticeMap(((h, 0, 0), (0, h, 0), (0, 0, 1)), 2)
    return GradedPolytope(3, base.inequalities, eqs, base.parity_sets, trans)


def loop_b(L):
    """Loop-with-edge block: coordinates (x, y), y <= 2x, 2x + y <= 2L,
    trinode sum 2x + y even (so y even)."""
    if L < 0:
        raise InvalidParams("L must be nonnegative")
    ineqs = (((-1, 0), 0), ((0, -1), 0), ((-2, 1), 0), ((2, 1), 2 * L))
    return GradedPolytope(2, ineqs, (), ((0, 0, 1),),
                          LatticeMap(((2, 0), (0, 1)), 2))


# (a, y1, y2, c) -> (x, z, A, B) = (a/2, c/2, (y1-y2)/2, (y1+y2)/2), and back
B2_COORDS = LatticeMap(((1, 0, 0, 0), (0, 0, 0, 1), (0, 1, -1, 0),
                        (0, 1, 1, 0)), 2)
B2_COORDS_INVERSE = LatticeMap(((2, 0, 0, 0), (0, 0, 1, 1), (0, 0, -1, 1),
                                (0, 2, 0, 0)))


def loop_b2(L):
    """Doubled-edge block at level 2L: coordinates (a, y1, y2, c) with both
    trinode systems, outer edges a, c even.  Lattice coordinates are
    (x, z, A, B) = (a/2, c/2, (y1-y2)/2, (y1+y2)/2)."""
    if L < 0:
        raise InvalidParams("L must be nonnegative")
    ineqs = [(_unit(4, i, -1), 0) for i in range(4)]
    rows_u, pset_u = _trinode_rows(4, (0, 1, 2), 2 * L)
    rows_v, pset_v = _trinode_rows(4, (3, 1, 2), 2 * L)
    psets = (pset_u, pset_v, (0,), (3,))
    return GradedPolytope(4, tuple(ineqs + rows_u + rows_v), (), psets,
                          B2_COORDS)


def trinode_cubic_region():
    """The standard region of the trinode polytope at the origin whose toric
    ideal needs a cubic generator: in triangle-basis coordinates it is the
    unit cube intersected with the simplex; in edge coordinates its degree-1
    points are (0,0,0),(1,1,2),(1,2,1),(2,1,1),(2,2,2)."""
    # t_i = (w_j + w_k - w_i) / 2 in the triangle basis
    t = [tuple(-1 if j == i else 1 for j in range(3)) for i in range(3)]
    ineqs = [(tuple(-c for c in row), 0) for row in t]  # t_i >= 0
    ineqs += [(row, 2) for row in t]  # t_i <= 1
    # triangle inequalities on t: w_j + w_k <= 3 w_i
    ineqs += [(tuple(-3 if j == i else 1 for j in range(3)), 0)
              for i in range(3)]
    # implied box 0 <= w_i <= 2 (w_i = t_j + t_k with t in the unit cube)
    for i in range(3):
        ineqs += [(_unit(3, i, -1), 0), (_unit(3, i), 2)]
    return GradedPolytope(3, tuple(ineqs), (), ((0, 1, 2),), _TRIANGLE_BASIS)


def in_parity_lattice(P, point):
    return all(sum(point[i] for i in s) % 2 == 0 for s in P.parity_sets)


def naive_points(P, N, radius=None, nonneg=False):
    """All lattice members of dilation N by scanning a box.

    radius defaults to N * (largest |rhs|) which encloses every polytope in
    this test suite (all are contained in such a box).  With nonneg=True,
    for graph polytopes, whose coordinates are edge weights, the scan
    covers the nonnegative orthant only, and a coordinate pinned by a unit
    equality row (a leaf edge) takes only its pinned value."""
    if P.dim == 0:
        return [()]
    if radius is None:
        rhss = [abs(b) for _, b in P.inequalities + P.equalities] + [1]
        radius = N * max(rhss)
    axes = [range(0 if nonneg else -radius, radius + 1)] * P.dim
    for row, b in P.equalities if nonneg else ():
        if sorted(row) == [0] * (P.dim - 1) + [1]:
            axes[row.index(1)] = [b * N]
    out = []
    for cand in product(*axes):
        if any(sum(a * x for a, x in zip(row, cand)) > b * N
               for row, b in P.inequalities):
            continue
        if any(sum(a * x for a, x in zip(row, cand)) != b * N
               for row, b in P.equalities):
            continue
        if not in_parity_lattice(P, cand):
            continue
        out.append(cand)
    return sorted(out)


def loop_with_leaf():
    """Single trinode carrying a loop and a pendant labeled leaf."""
    return validate(
        MarkedGraph(("v", "l1"), (("v", "v"), ("v", "l1")), ((1, "l1"),))
    )


def reglue(eg):
    """Inverse of explode (up to edge order)."""
    verts = []
    for frag in eg.components:
        for v in frag.vertices:
            if not (isinstance(v, tuple) and v and v[0] == "stub"):
                verts.append(v)
    edges = {}
    for i, (a, b) in enumerate(eg.source.edges):
        edges[i] = (a, b)
    leaves = []
    for frag in eg.components:
        leaves.extend(frag.leaves)
    return validate(
        MarkedGraph(tuple(verts), tuple(edges[i] for i in sorted(edges)), tuple(sorted(leaves)))
    )


def naive_candidates(genus, n_leaves):
    """(combo, assign) for every connected candidate graph of the family, in
    the order the enumerator visits them: internal edge multisets in
    combinations_with_replacement order, then the maps leaf label ->
    internal vertex filling the free slots, in lexicographic order."""
    n_internal = 2 * genus + n_leaves - 2
    internal = list(range(n_internal))
    slots = [(i, j) for i in internal for j in internal[i:]]
    for combo in combinations_with_replacement(slots, 3 * genus + n_leaves - 3):
        deg = [0] * n_internal
        for i, j in combo:
            deg[i] += 1
            deg[j] += 1
        if any(d > 3 for d in deg):
            continue
        free = [3 - d for d in deg]
        for assign in _leaf_assignments(free, n_leaves):
            verts = list(internal) + [f"leaf{k}" for k in range(1, n_leaves + 1)]
            edges = list(combo) + [
                (assign[k - 1], f"leaf{k}") for k in range(1, n_leaves + 1)
            ]
            if _connected(tuple(verts), edges):
                yield combo, assign


def naive_enumerate_graphs(genus, n_leaves):
    """enumerate_graphs by brute force: the first candidate of each
    isomorphism class, classes told apart by the n! canonical key."""
    n_internal = 2 * genus + n_leaves - 2
    if n_internal <= 0:
        return [caterpillar_tree(2)] if (genus, n_leaves) == (0, 2) else []
    verts = tuple(range(n_internal)) + tuple(f"leaf{k}" for k in range(1, n_leaves + 1))
    leaves = tuple((k, f"leaf{k}") for k in range(1, n_leaves + 1))
    seen = set()
    out = []
    for combo, assign in naive_candidates(genus, n_leaves):
        key = naive_canonical_key(n_internal, combo, assign)
        if key in seen:
            continue
        seen.add(key)
        edges = tuple(combo) + tuple(
            (assign[k - 1], f"leaf{k}") for k in range(1, n_leaves + 1))
        out.append(validate(MarkedGraph(verts, edges, leaves)))
    return out


def keyed_enumerate_graphs(genus, n_leaves):
    """enumerate_graphs without its orderly pruning or automorphisms: every
    edge multiset of the internal vertices, the first connected one of each
    shape, and a colour-refinement key per leaf assignment to keep the first
    of each isomorphism class."""
    n_internal = 2 * genus + n_leaves - 2
    if n_internal <= 0:
        return [caterpillar_tree(2)] if (genus, n_leaves) == (0, 2) else []
    internal = tuple(range(n_internal))
    verts = internal + tuple(f"leaf{k}" for k in range(1, n_leaves + 1))
    leaves = tuple((k, f"leaf{k}") for k in range(1, n_leaves + 1))
    pairs = [(i, j) for i in internal for j in internal[i:]]
    shapes, seen, out = set(), set(), []
    for combo in combinations_with_replacement(pairs, 3 * genus + n_leaves - 3):
        deg = Counter(v for e in combo for v in e)
        if max(deg.values()) > 3 or not _connected(internal, combo):
            continue
        shape = _canonical_key(n_internal, combo, ())
        if shape in shapes:
            continue
        shapes.add(shape)
        slots = [v for v in internal for _ in range(3 - deg[v])]
        for assign in sorted(set(permutations(slots))):
            key = _canonical_key(n_internal, combo, assign)
            if key not in seen:
                seen.add(key)
                edges = combo + tuple((v, f"leaf{k}") for k, v in enumerate(assign, 1))
                out.append(MarkedGraph(verts, edges, leaves))
    return out


def _leaf_assignments(free, n_leaves):
    """All maps leaf label -> internal vertex exactly filling the free slots."""
    def rec(label, free):
        if label > n_leaves:
            yield ()
            return
        for v, f in enumerate(free):
            if f > 0:
                free2 = list(free)
                free2[v] -= 1
                for rest in rec(label + 1, free2):
                    yield (v,) + rest

    return rec(1, list(free))


def naive_swap_makes_smaller(n, combo):
    """True iff swapping some two of the vertices 0..n-1 turns the sorted
    edge tuple `combo` into a smaller one, each swap relabelling and
    re-sorting every edge."""
    for a in range(n):
        for b in range(a + 1, n):
            swap = list(range(n))
            swap[a], swap[b] = b, a
            if _relabel(swap, combo) < combo:
                return True
    return False


def naive_canonical_key(n, combo, assign):
    """The least (edges, att) relabelling over all n! vertex permutations."""
    best = None
    for perm in permutations(range(n)):
        edges = tuple(sorted(tuple(sorted((perm[i], perm[j]))) for i, j in combo))
        att = tuple(perm[v] for v in assign)
        key = (edges, att)
        if best is None or key < best:
            best = key
    return best


def multiset_difference_size(m1, m2):
    """Degree of the exchanged part between two equal-degree monomials: the
    points of m2 left after striking out each point of m1 once."""
    rest = list(m2)
    for p in m1:
        if p in rest:
            rest.remove(p)
    return len(rest)


@lru_cache(maxsize=8)  # the degrees of the polytope under test
def _pairwise_exchanges(P, N):
    """Per degree-N fiber with two or more monomials: its image, size and
    the exchange size of every pair of its monomials."""
    out = []
    for b, fiber in monomials_by_image(P, N).items():
        n = len(fiber)
        if n > 1:
            out.append((b, n, [(i, j, multiset_difference_size(fiber[i], fiber[j]))
                               for i in range(n) for j in range(i + 1, n)]))
    return out


def _components(n, pairs):
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for i, j in pairs:
        parent[find(i)] = find(j)
    return len({find(i) for i in range(n)})


def naive_relation_degree(P, move_degree_max, Dmax):
    """relation_degree by the pairwise search: the exchange size of every
    pair of monomials in every fiber, then the least d <= move_degree_max
    whose exchanges of size <= d connect the fiber.  A degree-N fiber adds
    its number of components under exchanges of size < N (monomials that
    share a point), minus one, to the minimal relation count.  No
    normality check."""
    overall, tight, failed, minimal = 1, [], [], {}
    for N in range(2, Dmax + 1):
        minimal[N] = 0
        for b, n, diffs in _pairwise_exchanges(P, N):
            def parts(d):
                return _components(n, [(i, j) for i, j, s in diffs if s <= d])

            minimal[N] += parts(N - 1) - 1
            d = next((d for d in range(2, move_degree_max + 1)
                      if parts(d) == 1), None)
            if d is None:
                failed.append((N, b))
            elif d > overall:
                overall, tight = d, [(N, b, d)]
            elif d == overall and len(tight) < 5:
                tight.append((N, b, d))
    if failed:
        overall, tight = None, failed[:5]
    return GenerationCertificate(overall, tuple(tight), minimal)


def fiber_set(P, b, N):
    """All degree-N multisets of lattice points of P with coordinate sum b,
    by a depth-first search over the points pruned by suffix bounds."""
    pts = P.lattice_points(1)
    b = tuple(b)
    out = []
    if N == 0:
        return [()] if all(x == 0 for x in b) else []
    dim = len(b)
    n = len(pts)
    # suffix coordinate extremes over pts[i:] for pruning
    sufmin = [[0] * dim for _ in range(n + 1)]
    sufmax = [[0] * dim for _ in range(n + 1)]
    if n:
        sufmin[n - 1] = list(pts[n - 1])
        sufmax[n - 1] = list(pts[n - 1])
    for i in range(n - 2, -1, -1):
        for k in range(dim):
            sufmin[i][k] = min(pts[i][k], sufmin[i + 1][k])
            sufmax[i][k] = max(pts[i][k], sufmax[i + 1][k])

    chosen = []

    def dfs(i, rem, target):
        if rem == 0:
            if all(x == 0 for x in target):
                out.append(tuple(chosen))
            return
        if i == n:
            return
        for k in range(dim):
            if target[k] < rem * sufmin[i][k] or target[k] > rem * sufmax[i][k]:
                return
        # skip pts[i] entirely
        dfs(i + 1, rem, target)
        # or take it (staying at i allows multiplicity)
        p = pts[i]
        chosen.append(p)
        dfs(i, rem - 1, tuple(t - x for t, x in zip(target, p)))
        chosen.pop()

    dfs(0, N, b)
    return sorted(out)


def monomial_key(order, m):
    """The comparison of `order` on monomials: (degree, total weight, point
    keys sorted in decreasing order), lexicographically."""
    weights, keys = zip(*map(order.entry, m))
    return (len(m), sum(weights), tuple(sorted(keys, reverse=True)))


def standard_monomials(P, order, N):
    """The least monomial of each nonempty degree-N fiber under `order`:
    the oracle of `termorders.standard_pairs` in degree 2."""
    return {min(fiber, key=lambda m: monomial_key(order, m))
            for fiber in monomials_by_image(P, N).values()}


def degree_two_relations(P, order):
    """Pairs (nonstandard degree-2 monomial, the standard one in its fiber),
    sorted."""
    out = []
    for fiber in monomials_by_image(P, 2).values():
        std = min(fiber, key=lambda m: monomial_key(order, m))
        out += [(m, std) for m in fiber if m != std]
    return sorted(out)


# -- fiber products and the folded assembly -------------------------------


class BaseMismatch(SpinpolyError):
    """The two maps of a fiber product do not share a base polytope."""


@dataclass(frozen=True)
class BaseMap(LatticeMap):
    """A lattice map with the polytope it maps into: one side of a fiber
    product."""

    target: object = None  # GradedPolytope


def edge_projection(P, coord, L):
    """w -> w_coord / 2 into the interval [0, L] (interior edges carry even
    weight in context)."""
    return BaseMap((_unit(P.dim, coord),), 2, interval(L))


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


@dataclass(frozen=True)
class FoldedAssembly:
    """The fiber product that an assembly describes, built."""

    polytope: GradedPolytope
    coord_map: tuple   # per coordinate: (component, local edge, original edge)
    order: TotalOrder  # the component orders, folded two at a time


def fold_assembly(eg, r, L, even_interior=False):
    """Fold the exploded components into one polytope by fiber products
    over [0, L] along the split edges, in the assembly's fold sequence, and
    fold their `component_total_order`s alike by `split_boxtimes_order`,
    nested as ((k0, k1), k2).

    The polytope has one coordinate per component edge (split edges appear
    once per side, glued by an equality); its lattice point count matches
    the source graph polytope in every dilation."""
    A = assemble(eg, r, L, even_interior=even_interior)
    placed = {}  # (component, local edge) -> coordinate
    coord_map = []
    acc = order = None
    for c in A.sequence:
        frag, kind, P = A.components[c]
        o = component_total_order(P, frag, kind)
        if acc is None:
            acc, order, offset = P, o, 0
        else:
            # the split edge joining c to a component already folded
            for _, a, b in eg.split_edges:
                if a[0] == c and b in placed:
                    a, b = b, a
                if b[0] == c and a in placed:
                    break
            fp = fiber_product(acc, edge_projection(acc, placed[a], L),
                               P, edge_projection(P, b[1], L))
            acc, offset = fp.polytope, fp.offset
            order = split_boxtimes_order(order, o, offset)
        for i, orig in enumerate(frag.original_edges):
            placed[c, i] = offset + i
            coord_map.append((c, i, orig))
    return FoldedAssembly(acc, tuple(coord_map), order)


def split_boxtimes_order(o1, o2, split):
    """The two-factor concatenation order on fiber-product points, the
    first `split` coordinates from the left factor: the weight is the sum of
    the factor weights; ties break on the left factor's key, then the
    right's."""
    def entry(p):
        (w1, k1), (w2, k2) = o1.entry(p[:split]), o2.entry(p[split:])
        return w1 + w2, (k1, k2)

    return TotalOrder(entry)


# -- weights that may tie, and the fiber-product checks -------------------


def key_minima(order):
    """A fiber's standard members under a total order: its least one."""
    return lambda fiber: [min(fiber, key=lambda m: monomial_key(order, m))]


def weight_minima(weight):
    """A fiber's standard members under a point weight that may tie: every
    member of least total weight."""
    def minima(fiber):
        ws = [sum(map(weight, m)) for m in fiber]
        least = min(ws)
        return [m for m, w in zip(fiber, ws) if w == least]
    return minima


def standard_sets(P, minima, N):
    """The standard degree-N monomials of P: each fiber's minima."""
    return {m for fiber in monomials_by_image(P, N).values()
            for m in minima(fiber)}


def sum_weight(o1, o2, split):
    """The weight Σ1 ⊕ Σ2 on concatenated coordinates: the first `split`
    from the left factor.  It is not total: fibers may tie."""
    return lambda p: o1.entry(p[:split])[0] + o2.entry(p[split:])[0]


def split_monomial(offset, m):
    return (tuple(sorted(p[:offset] for p in m)),
            tuple(sorted(p[offset:] for p in m)))


def product_standard_characterization(fp, P1, P2, o1, o2, D):
    """Check: a monomial of the fiber product of P1 and P2 is
    (Σ1⊕Σ2)-standard iff both of its projections are standard, for degrees
    2..D."""
    minima = weight_minima(sum_weight(o1, o2, fp.offset))
    for N in range(2, D + 1):
        std1 = standard_monomials(P1, o1, N)
        std2 = standard_monomials(P2, o2, N)
        for fiber in monomials_by_image(fp.polytope, N).values():
            least = minima(fiber)
            for m in fiber:
                l, r = split_monomial(fp.offset, m)
                if (l in std1 and r in std2) != (m in least):
                    return Check(False, m)
    return Check(True)


def _single_support_row(trans, coord):
    """Index of a transform row supported exactly on `coord`, or None."""
    if trans is None:
        return None
    for k, row in enumerate(trans.rows):
        if row[coord] != 0 and all(c == 0 for j, c in enumerate(row) if j != coord):
            return k
    return None


def verify_double_weight_equivalence(fp, glued_pairs, D):
    """Standard monomials under the doubled weight Σ²⊕Σ² (each glued
    coordinate counted in both factors) agree with plain Σ² (counted once),
    to degree D.  Uses the product's lattice-coordinate transform."""
    P = fp.polytope
    glue_rows = []
    for i, j in glued_pairs:
        k = _single_support_row(P.to_lattice, j)
        if k is None:
            return Check(False, "no coordinate row for glued pair")
        glue_rows.append(k)

    def doubled(p):
        return sum(x * x for x in P.transform_point(p))

    def plain(p):
        t = P.transform_point(p)
        return sum(x * x for x in t) - sum(t[k] * t[k] for k in glue_rows)

    for N in range(2, D + 1):
        if standard_sets(P, weight_minima(doubled), N) != \
                standard_sets(P, weight_minima(plain), N):
            return Check(False, N)
    return Check(True)


def naive_is_flag(P, minima, D):
    """The flag property: standardness is equivalent to 'all degree-2
    divisors and the matching pure powers are standard', for all monomials
    of degree <= D.  Each degree's standard monomials are the `minima` of
    fibers grouped here by coordinate sum, and a monomial's degree-2
    divisors are the pairs of its distinct points that it holds as a
    sub-multiset.  Returns (ok, the first monomial in combination order
    whose standardness the pair and pure-power criterion mispredicts)."""
    pts = P.lattice_points(1)
    std = {}
    for N in range(2, D + 1):
        fibers = {}
        for m in combinations_with_replacement(pts, N):
            fibers.setdefault(tuple(map(sum, zip(*m))), []).append(m)
        std[N] = {s for f in fibers.values() for s in minima(f)}
    for N in range(3, D + 1):
        for m in combinations_with_replacement(pts, N):
            count = Counter(m)
            divisors = {d for d in combinations_with_replacement(sorted(count), 2)
                        if all(count[p] >= k for p, k in Counter(d).items())}
            predicted = divisors <= std[2] and all(
                (p,) * k in std[k] for p, k in count.items() if k >= 3)
            if predicted != (m in std[N]):
                return False, m
    return True, None


def p3_even_edges(L):
    """The trinode block with every edge even, in halved coordinates."""
    P = p3(L)
    return replace(P, parity_sets=P.parity_sets + ((0,), (1,), (2,)),
                   to_lattice=LatticeMap(((1, 0, 0), (0, 1, 0), (0, 0, 1)), 2))


def blocks_up_to_level_2():
    """Every building block at L = 1 and 2."""
    for L in (1, 2):
        yield from (interval(L), p3(L), p3_even_edges(L), loop_b(L),
                    loop_b2(L))
        qs = (1, 2, 3, 4) if L == 1 else (1, 3)
        yield from (quadrant(q, L) for q in qs)
        for r in range(2 * L + 1):
            yield p3_fixed1(r, L)
            yield from (p3_fixed2(r, s, L) for s in range(2 * L + 1))


def count_pair_standard_multisets(pts, ok_pair, N):
    """Nondecreasing sequences p1 <= ... <= pN with every pair (pi, pj),
    i < j, in ok_pair: the standard-monomial count by direct search."""
    n = len(pts)
    count = 0
    chosen = []

    def dfs(start, rem):
        nonlocal count
        if rem == 0:
            count += 1
            return
        for i in range(start, n):
            p = pts[i]
            if all((q, p) in ok_pair for q in chosen):
                chosen.append(p)
                dfs(i, rem - 1)
                chosen.pop()

    dfs(0, N)
    return count


def fraction_glue_rows(f1, f2, d1):
    """Glue equalities and glued coordinate pairs of the fiber product of
    two lattice maps, computed in rationals: each row pair as Fractions,
    scaled by the lcm of their reduced denominators."""
    eqs, glued = [], []
    for r1, r2 in zip(f1.rows, f2.rows):
        r1 = [Fraction(c, f1.den) for c in r1]
        r2 = [Fraction(c, f2.den) for c in r2]
        combined = r1 + [-c for c in r2]
        den = 1
        for c in combined:
            den = den * c.denominator // gcd(den, c.denominator)
        eqs.append((tuple(int(c * den) for c in combined), 0))
        s1 = [j for j, c in enumerate(r1) if c != 0]
        s2 = [j for j, c in enumerate(r2) if c != 0]
        if len(s1) == 1 and len(s2) == 1 and r1[s1[0]] == r2[s2[0]]:
            glued.append((s1[0], d1 + s2[0]))
    return eqs, glued


def balance_pair(x, y):
    s = x + y
    return (s // 2, s - s // 2)


def balance_tuple(vectors):
    """Repeated entrywise pairwise balancing to a fixpoint: the result has
    the same vector sum and every coordinate slice balanced (max-min <= 1)."""
    vecs = [list(v) for v in vectors]
    if not vecs:
        return ()
    dim = len(vecs[0])
    changed = True
    while changed:
        changed = False
        for i in range(len(vecs)):
            for j in range(i + 1, len(vecs)):
                for k in range(dim):
                    a, b = vecs[i][k], vecs[j][k]
                    lo, hi = balance_pair(a, b)
                    if (a, b) != (lo, hi) and abs(a - b) > 1:
                        vecs[i][k], vecs[j][k] = lo, hi
                        changed = True
    return tuple(tuple(v) for v in vecs)


def is_slice_balanced(vectors):
    if not vectors:
        return True
    dim = len(vectors[0])
    for k in range(dim):
        vals = [v[k] for v in vectors]
        if max(vals) - min(vals) > 1:
            return False
    return True


def naive_is_normal(P, Dmax):
    """is_normal by the tuple sumset: the N-fold sums of the degree-1 points
    as coordinate tuples, and the first point of NP, for 2 <= N <= Dmax,
    that is not one of them."""
    gens = set(P.lattice_points(1))
    reach = set(gens)
    for N in range(2, Dmax + 1):
        reach = {tuple(a + b for a, b in zip(p, q))
                 for p in reach for q in gens}
        for pt in P.lattice_points(N):
            if pt not in reach:
                return Check(False, (N, pt))
    return Check(True)
