"""Total term orders on lattice points and monomials.

A TotalOrder gives each lattice point a weight and a tie-break key;
monomials are compared by (degree, weight, point keys sorted decreasingly),
which uniformly realizes lex-on-sorted-sequences, the doubled-edge cascade,
and the concatenation (boxtimes) rule.

A monomial is a multiset of lattice points: the sorted tuple of its points,
as `combinations_with_replacement` yields it over the sorted points of P.
Its fiber is the set of same-degree monomials with the same coordinate sum,
and its standard monomial is the fiber's least member under the order.
The GB check reads degree 2 only, from `standard_pairs`; whole fibers
(`monomials_by_image`) serve the tests and the benchmark's trace.
"""

from dataclasses import dataclass
from itertools import combinations_with_replacement

from .errors import NotTotal


def sigma_squared(v):
    return sum(x * x for x in v)


# -- orders ---------------------------------------------------------------


class TotalOrder:
    """A total order from one point table.

    entry(p) = (weight, point key), the key holding the declared tie-breaks;
    monomials of one degree compare by (total weight, point keys sorted in
    decreasing order), lexicographically.

    Each order keeps one point table: a point's entry is computed on first
    use and then looked up, so the lattice transform and the factor orders
    of a boxtimes order run once per point."""

    def __init__(self, entry):
        self._entry = entry
        self._table = {}

    def entry(self, point):
        e = self._table.get(point)
        if e is None:
            e = self._table[point] = self._entry(point)
        return e


def sigma2_lex_order(transform=None):
    """Degree, then Σ², then lexicographic comparison of (transformed)
    coordinates.  This is the interval order, and for 2-dimensional balanced
    polytopes it is the lex-on-the-unit-square rule
    [1,1] > [1,0] > [0,1] > [0,0]."""
    t = transform or tuple

    def entry(p):
        q = tuple(t(p))
        s = sigma_squared(q)
        return s, (s, q)

    return TotalOrder(entry)


def b2_cascade_order(transform=None):
    """The doubled-edge block order on (x, z, A, B) points: degree, Σ², then
    B, then z, then x, then A."""
    t = transform or tuple

    def entry(p):
        x, z, A, B = t(p)
        s = sigma_squared((x, z, A, B))
        return s, (s, B, z, x, A)

    return TotalOrder(entry)


def boxtimes_order(parts):
    """Concatenation order over ((order, coordinate indices), ...): a point
    p reads factor c on (p[i] for i in its indices); its weight is the sum
    of the factor weights, and ties break on the factors' keys in sequence,
    (k_1, k_2, ...)."""
    def entry(p):
        w, keys = 0, []
        for order, idx in parts:
            wc, kc = order.entry(tuple(p[i] for i in idx))
            w += wc
            keys.append(kc)
        return w, tuple(keys)

    return TotalOrder(entry)


# -- fibers and standard monomials ---------------------------------------


def monomials_by_image(P, N):
    """Dict image -> list of degree-N monomials over X_P."""
    pts = P.lattice_points(1)
    out = {}
    for m in combinations_with_replacement(pts, N):
        out.setdefault(tuple(map(sum, zip(*m))), []).append(m)
    return out


def standard_pairs(P, order):
    """The least pair of each degree-2 fiber of P under `order`.  One walk
    over pairs i <= j in combination order keys each pair's fiber by the
    `_sum_code` integer of its sum and keeps the least (w_i + w_j, larger
    key, smaller key), the order's degree-2 comparison; the first on a tie."""
    pts = P.lattice_points(1)
    code = _sum_code(pts, 2)
    table = [(code(p, 1), order.entry(p), p) for p in pts]
    best = {}
    for i, (ci, (wi, ki), p) in enumerate(table):
        for cj, (wj, kj), q in table[i:]:
            key = (wi + wj, ki, kj) if ki > kj else (wi + wj, kj, ki)
            old = best.get(ci + cj)
            if old is None or key < old[0]:
                best[ci + cj] = key, (p, q)
    return {m for _, m in best.values()}


@dataclass
class Check:
    ok: bool
    witness: object = None

    def __bool__(self):
        return self.ok


def _sum_code(points, D):
    """Integer codes for sums of up to D of `points`, packed so that adding
    codes adds the points.

    Coordinate k is shifted by its least value lo_k over the points and
    takes one digit of base D·(hi_k - lo_k) + 1.  A sum of N <= D points has
    its k-th digit in [0, N·(hi_k - lo_k)], so no addition of codes carries
    and the code of a sum is the sum of the codes.  Returns code(q, N): the
    integer of q read as a sum of N points, or None when q lies outside N
    times the points' bounding box, where no sum of N of them lies."""
    if not points:
        return lambda q, N: None
    lo = [min(c) for c in zip(*points)]
    span = [max(c) - m for c, m in zip(zip(*points), lo)]
    place, scale = [], 1
    for s in span:
        place.append(scale)
        scale *= D * s + 1

    def code(q, N):
        c = 0
        for x, m, s, w in zip(q, lo, span, place):
            x -= N * m
            if not 0 <= x <= N * s:
                return None
            c += x * w
        return c

    return code


def is_balanced(P, D):
    """Existential balancedness in lattice coordinates: every multiset of
    2..D lattice points admits a same-size, same-sum multiset of lattice
    points whose coordinate slices are balanced (max - min <= 1).

    A multiset is slice-balanced iff its points differ pairwise by at most 1
    in every coordinate, so the balanced multisets are the multisets on the
    cliques of that closeness graph.  A depth-first walk over those cliques
    collects each degree's balanced sums, and P is balanced in degree N iff
    they make up the whole N-fold sumset.  Sums are added as `_sum_code`
    integers, which do not carry for up to D points.  On failure the witness
    is the first multiset, in combination order, whose sum has no balanced
    member: the first multiset of the first fiber with no balanced
    rewrite."""
    pts = P.lattice_points(1)
    tpts = [P.transform_point(p) for p in pts]
    if len(set(tpts)) != len(tpts):
        raise NotTotal("lattice transform is not injective on points")
    code = _sum_code(tpts, D)
    codes = [code(q, 1) for q in tpts]
    n = len(tpts)
    # close[i]: the points from i on within 1 of point i in every coordinate
    close = [{j for j in range(i, n) if all(
        -1 <= a - b <= 1 for a, b in zip(tpts[i], tpts[j]))} for i in range(n)]
    balanced = [set() for _ in range(D + 1)]

    def walk(s, k, cand):
        # s: the sum of k points; cand: the points from the last one chosen
        # on that are close to every point chosen
        if k + 1 == D:
            balanced[D].update([s + codes[j] for j in cand])
            return
        for i, j in enumerate(cand):
            t = s + codes[j]
            balanced[k + 1].add(t)
            walk(t, k + 1, [c for c in cand[i:] if c in close[j]])

    if D > 1:
        walk(0, 0, range(n))
    sums = set(codes)
    for N in range(2, D + 1):
        sums = {s + c for s in sums for c in codes}
        if len(sums) != len(balanced[N]):
            for combo in combinations_with_replacement(range(n), N):
                if sum(codes[i] for i in combo) not in balanced[N]:
                    return Check(False, tuple(pts[i] for i in combo))
    return Check(True)


def _balanced_decomposition_exists(tset, target, N):
    """Direct search for a slice-balanced member of one fiber; the
    reference for is_balanced."""
    dim = len(target)
    lo = [t // N for t in target]
    # slice k uses values in {lo, lo+1} with (target - N*lo) entries raised
    box = []
    for p in tset:
        if all(lo[k] <= p[k] <= lo[k] + 1 for k in range(dim)):
            box.append(p)
    need = [target[k] - N * lo[k] for k in range(dim)]

    def dfs(i, rem, need):
        if rem == 0:
            return all(x == 0 for x in need)
        if i == len(box):
            return False
        if any(x < 0 or x > rem for x in need):
            return False
        # take box[i] again or move on
        p = box[i]
        off = [p[k] - lo[k] for k in range(dim)]
        if dfs(i, rem - 1, [n - o for n, o in zip(need, off)]):
            return True
        return dfs(i + 1, rem, need)

    return dfs(0, N, need)

