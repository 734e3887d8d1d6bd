import random
from collections import Counter
from dataclasses import replace
from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinpoly import graphs
from spinpoly.catp import boxtimes_assemble
from spinpoly.errors import NotTotal
from spinpoly.polytopes import (
    LatticeMap,
    from_graph,
    p3,
    quadrant,
)
from spinpoly.termorders import (
    Check,
    TotalOrder,
    b2_cascade_order,
    boxtimes_order,
    is_balanced,
    monomials_by_image,
    sigma2_lex_order,
    sigma_squared,
    standard_pairs,
    _balanced_decomposition_exists,
)

from helpers import (
    BaseMap,
    balance_pair,
    balance_tuple,
    blocks_up_to_level_2,
    fiber_product,
    fiber_set,
    gb_route_instances,
    interval,
    is_slice_balanced,
    key_minima,
    loop_b,
    loop_b2,
    monomial_key,
    multiset_difference_size,
    naive_is_flag,
    p3_fixed1,
    p3_fixed2,
    standard_monomials,
    sum_weight,
    weight_minima,
)


# -- balancing ------------------------------------------------------------


def test_balance_pair():
    assert balance_pair(0, 4) == (2, 2)
    assert balance_pair(1, 4) == (2, 3)
    assert balance_pair(3, 3) == (3, 3)
    assert balance_pair(-1, 2) == (0, 1)


def test_balance_tuple_fixpoint():
    out = balance_tuple([(0, 5), (4, 1), (2, 0)])
    assert is_slice_balanced(out)
    assert tuple(map(sum, zip(*out))) == (6, 6)


def test_balance_tuple_already_balanced_unchanged():
    vecs = ((0, 1), (1, 1), (1, 0))
    assert balance_tuple(vecs) == vecs


vec_lists = st.lists(
    st.tuples(st.integers(0, 20), st.integers(0, 20), st.integers(0, 20)),
    min_size=1, max_size=6)


@given(vec_lists)
@settings(max_examples=200, deadline=None)
def test_balance_tuple_properties(vecs):
    out = balance_tuple(vecs)
    assert len(out) == len(vecs)
    assert tuple(map(sum, zip(*out))) == tuple(map(sum, zip(*vecs)))
    assert is_slice_balanced(out)
    total = sum(sigma_squared(v) for v in vecs)
    assert sum(sigma_squared(v) for v in out) <= total


def test_balance_tuple_seeded_battery():
    rng = random.Random(20260824)
    for _ in range(500):
        dim = rng.randint(1, 4)
        n = rng.randint(1, 6)
        vecs = [tuple(rng.randint(0, 20) for _ in range(dim))
                for _ in range(n)]
        out = balance_tuple(vecs)
        assert tuple(map(sum, zip(*out))) == tuple(map(sum, zip(*vecs)))
        assert is_slice_balanced(out)
        assert sum(sigma_squared(v) for v in out) <= \
            sum(sigma_squared(v) for v in vecs)


# -- monomials ------------------------------------------------------------


def test_multiset_difference_size():
    a = ((0,), (1,), (2,))
    b = ((0,), (0,), (3,))
    assert multiset_difference_size(a, b) == 2
    assert multiset_difference_size(a, a) == 0


# -- fibers and standard monomials ---------------------------------------


def test_fiber_set_interval_oracle():
    # [PAPER] degree-3 fiber over b=3 for the interval [0, 3]
    fib = fiber_set(interval(3), (3,), 3)
    assert sorted(fib) == [
        ((0,), (0,), (3,)), ((0,), (1,), (2,)), ((1,), (1,), (1,))]
    order = sigma2_lex_order()
    weights = sorted(monomial_key(order, m)[1] for m in fib)
    assert weights == [3, 5, 9]
    assert standard_monomials(interval(3), order, 3) >= {
        ((1,), (1,), (1,))}


def test_fiber_set_matches_monomials_by_image():
    P = p3(2)
    for N in (2, 3):
        grouped = monomials_by_image(P, N)
        for b, fiber in grouped.items():
            assert sorted(fiber) == fiber_set(P, b, N)


def test_standard_monomial_p3_oracle():
    # [DERIVED] the fiber of (2,2,2) in degree 3 over P3(2) is minimized by
    # the three triangle-basis vertices
    P = p3(2)
    order = sigma2_lex_order(P.transform_point)
    fib = fiber_set(P, (2, 2, 2), 3)
    best = min(fib, key=lambda m: monomial_key(order, m))
    assert best == ((0, 1, 1), (1, 0, 1), (1, 1, 0))
    std = standard_monomials(P, order, 3)
    assert best in std
    assert ((0, 0, 0), (0, 2, 2), (2, 2, 2)) not in std


def test_p3_level1_degree2_fiber_singleton():
    # [DERIVED] at L=1 the degree-2 fiber over (1,1,2) has a single member
    fib = fiber_set(p3(1), (1, 1, 2), 2)
    assert fib == [((0, 1, 1), (1, 0, 1))]


def test_unique_standard_with_total_order():
    # one standard monomial per fiber, each a member of its fiber
    P = p3(1)
    order = sigma2_lex_order(P.transform_point)
    for N in (2, 3):
        fibers = monomials_by_image(P, N)
        std = standard_monomials(P, order, N)
        assert len(std) == len(fibers)
        assert all(sum(m in std for m in f) == 1 for f in fibers.values())


def test_non_total_weight_can_tie():
    # the sum weight of criterion 7 ties in 7 fibers of loop_b(2) glued to
    # itself, where the concatenation order picks one member of each
    B = loop_b(2)
    x_to_base = BaseMap(((1, 0),), 1, interval(2))
    fp = fiber_product(B, x_to_base, B, x_to_base)
    o = sigma2_lex_order(B.transform_point)
    ties = weight_minima(sum_weight(o, o, fp.offset))
    total = key_minima(boxtimes_order(((o, (0, 1)), (o, (2, 3)))))
    tied = 0
    for N in (2, 3):
        for f in monomials_by_image(fp.polytope, N).values():
            least = ties(f)
            assert total(f)[0] in least
            tied += len(least) > 1
    assert tied == 7


def test_standard_pairs_match_least_pair_of_each_fiber():
    # the GB check's packed pair walk against the least member, by
    # monomial_key, of each degree-2 fiber that monomials_by_image lists
    cases = []
    for g, r, L in gb_route_instances():
        order, _ = boxtimes_assemble(g, r, L)
        cases.append((from_graph(g, r, L), order))
    for L in (1, 2, 3):
        cases.append((interval(L), sigma2_lex_order()))
        for q in (1, 2, 3, 4):
            cases.append((quadrant(q, L), sigma2_lex_order()))
            cases.append((quadrant(q, L), b2_cascade_order()))
    cases.append((loop_b2(1), b2_cascade_order(loop_b2(1).transform_point)))
    for P, order in cases:
        assert standard_pairs(P, order) == standard_monomials(P, order, 2)


def test_standard_count_matches_fibers():
    P = interval(2)
    order = sigma2_lex_order()
    for N in (2, 3):
        assert len(standard_monomials(P, order, N)) == \
            len(monomials_by_image(P, N))


# -- flag property and initial complexes ----------------------------------


def test_interval_is_flag_and_faces():
    P = interval(3)
    order = sigma2_lex_order()
    assert naive_is_flag(P, key_minima(order), 4) == (True, None)
    # [DERIVED] the interval order's initial complex is the path
    # {k, k+1}: its faces are the standard pairs of distinct points, and
    # those are the consecutive points only
    std2 = standard_monomials(P, order, 2)
    assert {frozenset(m) for m in std2 if m[0] != m[1]} == \
        {frozenset({(k,), (k + 1,)}) for k in range(3)}


def _scrambled_interval_order():
    scramble = {(0,): 5, (1,): 0, (2,): 4, (3,): 1}
    return TotalOrder(lambda p: (scramble[p], (scramble[p], p)))


def _pair_rule_is_flag(P, order, D):
    """The flag property from `standard_monomials`: a monomial's degree-2
    divisors are its pairs of positions, its pure powers those of its
    points of multiplicity >= 3."""
    std = {N: standard_monomials(P, order, N) for N in range(2, D + 1)}
    for N in range(3, D + 1):
        for m in combinations_with_replacement(P.lattice_points(1), N):
            predicted = all(d in std[2] for d in combinations(m, 2)) and all(
                (p,) * k in std[k] for p, k in Counter(m).items() if k >= 3)
            if predicted != (m in std[N]):
                return False, m
    return True, None


def test_is_flag_matches_divisor_reference():
    # verdict and witness, the first mispredicted monomial in combination
    # order, on the scrambled interval order and seeded random total orders
    cases = [(interval(3), _scrambled_interval_order(), 4)]
    rng = random.Random(20261019)
    for P in (p3(2), loop_b(2), quadrant(1, 2), p3_fixed2(2, 2, 4),
              interval(4)):
        for _ in range(10):
            w = {p: rng.randint(0, 3) for p in P.lattice_points(1)}
            rank = {p: rng.random() for p in P.lattice_points(1)}
            order = TotalOrder(lambda p, w=w, rank=rank:
                               (w[p], (w[p], rank[p])))
            cases.append((P, order, 3))
    verdicts = []
    for P, order, D in cases:
        ok, witness = _pair_rule_is_flag(P, order, D)
        assert (ok, witness) == naive_is_flag(P, key_minima(order), D)
        verdicts.append(ok)
    assert verdicts.count(False) > 10 and verdicts.count(True) > 10


def test_p3_flag_under_lattice_order():
    P = p3(1)
    assert naive_is_flag(P, key_minima(sigma2_lex_order(P.transform_point)),
                         4)[0]


# -- balancedness ---------------------------------------------------------


def test_balanced_battery():
    # [DERIVED] trinodes, quadrants and the two-pin blocks are balanced in
    # lattice coordinates
    for P in [p3(2), p3(3), p3_fixed1(2, 3), p3_fixed2(2, 2, 4),
              quadrant(1, 1), quadrant(2, 1), quadrant(3, 1), quadrant(4, 1)]:
        assert is_balanced(P, 3).ok


def test_p3_raw_coordinates_not_balanced():
    # [DERIVED] in raw edge coordinates P3(3) is not balanced: the pair
    # (1,1,2),(1,3,2) has no slice-balanced rewrite with the same sum
    chk = is_balanced(replace(p3(3), to_lattice=None), 2)
    assert not chk.ok


def _balanced_per_combination(P, D):
    """Reference: a decomposition search for every unbalanced multiset of
    lattice coordinates, in combination order (remembered per fiber)."""
    pts = P.lattice_points(1)
    tpts = [P.transform_point(p) for p in pts]
    tset = set(tpts)
    for N in range(2, D + 1):
        found = {}
        for combo in combinations_with_replacement(tpts, N):
            if is_slice_balanced(combo):
                continue
            target = tuple(map(sum, zip(*combo)))
            if target not in found:
                found[target] = _balanced_decomposition_exists(tset, target, N)
            if not found[target]:
                native = sorted(pts[tpts.index(q)] for q in combo)
                return Check(False, tuple(native))
    return Check(True)


def _raw_and_lattice(blocks):
    """Blocks in raw and, where they have a lattice map, lattice
    coordinates."""
    for P in blocks:
        yield replace(P, to_lattice=None)
        if P.to_lattice:
            yield P


def _balancedness_instances():
    """Blocks in raw and lattice coordinates; graph polytopes, which have no
    lattice map, in raw ones."""
    yield from _raw_and_lattice(
        (*blocks_up_to_level_2(), quadrant(1, 3), quadrant(3, 3), p3(3)))
    t4 = graphs.caterpillar_tree(4)
    for r in ((1, 1, 1, 1), (1, 1, 2, 2), (2, 2, 2, 2), (2, 2, 0, 0)):
        yield from (from_graph(t4, r, L) for L in (1, 2, 3))


def test_is_balanced_matches_per_combination_reference():
    # the clique walk keeps the verdict and the first witness
    cases = [(P, 3) for P in _balancedness_instances()]
    cases += [(P, 4) for P in _raw_and_lattice(blocks_up_to_level_2())]
    verdicts = set()
    for P, D in cases:
        chk = is_balanced(P, D)
        assert chk == _balanced_per_combination(P, D)
        verdicts.add((D, chk.ok))
    assert verdicts == {(3, True), (3, False), (4, True), (4, False)}


def test_p3_fixed2_odd_pins_balanced_in_lattice_coordinates():
    # [DERIVED] with r = s = 1 the free weight t is even and runs over
    # {0, 2}; the lattice map halves t alone, giving the interval [0, 1]
    for L in (2, 3):
        P = p3_fixed2(1, 1, L)
        assert [P.transform_point(p) for p in P.lattice_points(1)] == \
            [(1, 1, 0), (1, 1, 1)]
        assert is_balanced(P, 3) == Check(True)
        assert not is_balanced(replace(P, to_lattice=None), 3).ok


def test_is_balanced_requires_injective_transform():
    P = replace(interval(2), to_lattice=LatticeMap(((0,),)))
    with pytest.raises(NotTotal):
        is_balanced(P, 2)


# -- order realizations ---------------------------------------------------


def test_sigma2_lex_unit_square_rule():
    order = sigma2_lex_order()
    keys = [order.entry(p)[1] for p in [(1, 1), (1, 0), (0, 1), (0, 0)]]
    assert keys == sorted(keys, reverse=True)


def test_b2_cascade_tie_breaks():
    order = b2_cascade_order()
    # equal sigma2: cascade compares B, then z, then x, then A
    def key(p):
        return order.entry(p)[1]

    assert key((1, 0, 0, 0)) < key((0, 0, 0, 1))
    assert key((0, 1, 0, 0)) < key((0, 0, 0, 1))
    assert key((0, 0, 1, 0)) < key((1, 0, 0, 0))


def test_b2_cascade_unique_standards():
    # the cascade tells every two points apart, so no two monomials of a
    # fiber share a key and the least one is unique
    P = loop_b2(1)
    order = b2_cascade_order(P.transform_point)
    for N in (2, 3):
        for f in monomials_by_image(P, N).values():
            assert len({monomial_key(order, m) for m in f}) == len(f)


def test_boxtimes_order_composition():
    o = boxtimes_order(((sigma2_lex_order(), (0,)),
                        (sigma2_lex_order(), (1,))))
    # ties in total weight break on the first factor first
    assert o.entry((1, 2))[0] == 5
    assert o.entry((2, 1))[1] > o.entry((1, 2))[1]
    # a factor reads its own coordinates, in the order given, and the
    # keys of three factors are one flat tuple
    o3 = boxtimes_order(((sigma2_lex_order(), (2, 0)),
                         (sigma2_lex_order(), (1,)),
                         (sigma2_lex_order(), (0,))))
    assert o3.entry((1, 2, 3)) == (10 + 4 + 1,
                                   ((10, (3, 1)), (4, (2,)), (1, (1,))))


def test_monomial_key_orders_by_degree_then_weight():
    order = sigma2_lex_order()
    m1 = ((0,),)
    m2 = ((1,), (1,))
    m3 = ((0,), (2,))
    assert monomial_key(order, m1) < monomial_key(order, m2)
    assert monomial_key(order, m2) < monomial_key(order, m3)


def test_point_table_keys_match_fresh_order(monkeypatch):
    # the boxtimes order of the doubled-edge caterpillar at L=4 nests
    # cascade and sigma2-lex orders over the lattice transform
    t4 = graphs.caterpillar_tree(4)
    internal = [i for i, (a, b) in enumerate(t4.edges)
                if t4.degree(a) == 3 and t4.degree(b) == 3]
    dbl4 = graphs.double_edge_at(t4, internal[0])
    order, _ = boxtimes_assemble(dbl4, (2, 2, 2, 2), 4)
    pts = from_graph(dbl4, (2, 2, 2, 2), 4).lattice_points(1)
    monos = list(combinations_with_replacement(pts, 2))
    assert len(monos) > 100
    # fill the tables in reverse, then read every key back from them
    filled = [monomial_key(order, m) for m in reversed(monos)][::-1]
    memo = [monomial_key(order, m) for m in monos]
    # each order has its own table
    assert sigma2_lex_order().entry((1, 0, 0, 0)) == (1, (1, (1, 0, 0, 0)))
    assert b2_cascade_order().entry((1, 0, 0, 0)) == (1, (1, 0, 0, 1, 0))
    # a fresh order that recomputes every entry on each call, at each level
    # of the nesting; its monomial keys are assembled from its point values
    # by the documented rule
    monkeypatch.setattr(TotalOrder, "entry", lambda self, p: self._entry(p))
    fresh, _ = boxtimes_assemble(dbl4, (2, 2, 2, 2), 4)
    w, k = {}, {}
    for p in pts:
        w[p], k[p] = fresh.entry(p)
    expected = [(2, w[p] + w[q], tuple(sorted((k[p], k[q]), reverse=True)))
                for p, q in monos]
    assert memo == filled == expected


def test_boxtimes_keys_run_each_transform_once_per_point():
    # one table per order: a point's weight and key come from one entry, so
    # each factor's lattice transform runs once per distinct point
    A, B = loop_b2(1), p3_fixed2(2, 2, 2)
    calls = (Counter(), Counter())

    def counting(P, count):
        def transform(p):
            count[p] += 1
            return P.transform_point(p)
        return transform

    order = boxtimes_order(((b2_cascade_order(counting(A, calls[0])),
                             (0, 1, 2, 3)),
                            (sigma2_lex_order(counting(B, calls[1])),
                             (4, 5, 6))))
    pts = [p + q for p in A.lattice_points(1) for q in B.lattice_points(1)]
    for m in combinations_with_replacement(pts, 2):
        monomial_key(order, m)
    for P, count in zip((A, B), calls):
        assert sorted(count) == list(P.lattice_points(1))
        assert set(count.values()) == {1}
