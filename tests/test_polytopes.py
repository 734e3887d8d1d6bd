import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinpoly import graphs, polytopes
from spinpoly.catp import boxtimes_assemble
from spinpoly.errors import (
    BaseMismatch,
    InvalidParams,
    LengthMismatch,
    ParityViolation,
    Unbounded,
)
from spinpoly.polytopes import (
    GradedPolytope,
    LatticeMap,
    assemble,
    count_points,
    edge_projection,
    fiber_product,
    from_graph,
    interval,
    lattice_points,
    p3,
    quadrant,
    recognize_block,
    with_full_lattice,
    _unit,
)
from spinpoly.toric import hilbert

from helpers import (
    B2_COORDS,
    B2_COORDS_INVERSE,
    assembled_point_to_graph_point,
    fraction_glue_rows,
    in_parity_lattice,
    load_script,
    loop_b,
    loop_b2,
    loop_with_leaf,
    naive_nonneg_points,
    naive_points,
    p3_fixed1,
    p3_fixed2,
    point_polytope,
    trinode_cubic_region,
)


# -- enumeration vs brute force ------------------------------------------


NAIVE_CASES = [
    (interval(2), 3, 6),
    (p3(1), 2, 3),
    (p3(2), 2, 5),
    (p3_fixed1(2, 2), 2, 5),
    (p3_fixed2(2, 2, 2), 2, 3),
    (loop_b(2), 2, 3),
    (loop_b2(1), 1, 3),
    (quadrant(1, 1), 2, 2),
    (quadrant(3, 1), 1, 3),
    (trinode_cubic_region(), 2, 3),
    (point_polytope(), 3, 0),
    # empty by bounds: the free edge would need 4 <= t <= 0
    (p3_fixed2(0, 4, 2), 2, 4),
    # x + y <= 1 with x = y = 1 pinned: the row fails at every N >= 1
    (GradedPolytope(2, (((1, 1), 1),), (((1, 0), 1), ((0, 1), 1))), 2, 2),
    # x = 1, y = 0 pinned in the parity set {x, y}: odd at every odd N
    (GradedPolytope(3, (((0, 0, -1), 0), ((1, 1, 1), 2)),
                    (((1, 0, 0), 1), ((0, 1, 0), 0)), ((0, 1),)), 3, 2),
    # 1 <= x <= 0: empty, but its 0-th dilation is the origin
    (GradedPolytope(1, (((-1,), -1), ((1,), 0)), ()), 2, 1),
]


@pytest.mark.parametrize("P,Nmax,radius", NAIVE_CASES)
def test_enumerator_matches_naive(P, Nmax, radius):
    for N in range(Nmax + 1):
        assert list(P.lattice_points(N)) == naive_points(P, N, radius * N + 1)
        assert count_points(P, N) == len(P.lattice_points(N))


def test_graph_polytope_matches_naive():
    # (polytope, dilations, box radius per dilation); an edge weight of a
    # level-L graph polytope is at most L·N
    t4 = graphs.caterpillar_tree(4)
    internal = [i for i, (a, b) in enumerate(t4.edges)
                if t4.degree(a) == 3 and t4.degree(b) == 3]
    dbl = graphs.double_edge_at(t4, internal[0])
    loop = graphs.add_loop_at_leaf(graphs.caterpillar_tree(3), 1)
    cases = [
        (from_graph(t4, (1, 1, 2, 2), 2), (1, 2), 4),
        # the loop edge occurs twice in its trinode's parity set
        (from_graph(loop, (2, 2), 2), (0, 1, 2, 3), 2),
        (from_graph(dbl, (2, 2, 2, 2), 4), (0, 1, 2), 4),
        # glue equalities between the exploded components
        (assemble(graphs.explode(dbl), (2, 2, 2, 2), 2).polytope, (1, 2), 2),
        # empty: the two trinodes force the interior edge odd and even
        (from_graph(t4, (1, 2, 2, 2), 2), (1, 2), 2),
    ]
    for P, dilations, radius in cases:
        for N in dilations:
            assert list(P.lattice_points(N)) == \
                naive_nonneg_points(P, N, radius * N)
            assert count_points(P, N) == len(P.lattice_points(N))


def test_lattice_points_cache_is_bounded():
    assert lattice_points.cache_info().maxsize is not None
    assert count_points.cache_info().maxsize is not None


def test_search_plan_cache_is_bounded():
    for L in range(20):
        p3(L).lattice_points(1)
    info = polytopes._plan.cache_info()
    assert info.maxsize == 8 and info.currsize <= 8


def test_unbounded_polytope_raises():
    # 0 <= x <= y, and nothing bounds y
    P = GradedPolytope(2, (((-1, 0), 0), ((1, -1), 0)), ())
    with pytest.raises(Unbounded):
        P.lattice_points(1)


@st.composite
def small_systems(draw):
    """A random integer system in the box 0 <= x <= B: rows with
    coefficients in -2..2, at most one equality, parity sets with repeats."""
    dim = draw(st.integers(1, 3))
    box = draw(st.integers(1, 3))
    coef = st.lists(st.integers(-2, 2), min_size=dim, max_size=dim)
    ineqs = [(tuple(draw(coef)), draw(st.integers(-2, 4)))
             for _ in range(draw(st.integers(0, 3)))]
    for j in range(dim):
        ineqs += [(_unit(dim, j, -1), 0), (_unit(dim, j), box)]
    eqs = [(tuple(draw(coef)), draw(st.integers(-1, 2)))
           for _ in range(draw(st.integers(0, 1)))]
    psets = draw(st.lists(st.lists(st.integers(0, dim - 1), max_size=3)
                          .map(tuple), max_size=2))
    return box, GradedPolytope(dim, tuple(ineqs), tuple(eqs), tuple(psets))


@given(small_systems(), st.integers(0, 3))
@settings(max_examples=150, deadline=None)
def test_random_systems_match_naive(system, N):
    box, P = system
    assert list(lattice_points(P, N)) == naive_nonneg_points(P, N, box * N)
    assert count_points(P, N) == len(lattice_points(P, N))


# -- frozen oracles -------------------------------------------------------


def test_interval_points():
    # [DERIVED] dilations of the interval [0, 2]
    assert interval(2).lattice_points(3) == tuple((k,) for k in range(7))
    assert interval(0).lattice_points(2) == ((0,),)


def test_p3_level1_points():
    # [PAPER] degree-1 points of the trinode at L=1: the four parity vertices
    assert p3(1).lattice_points(1) == (
        (0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0))


def test_p3_transform_is_simplex():
    # [DERIVED] the triangle-basis image of P3(L) is {t >= 0, sum t <= L}
    for L in (1, 2):
        for N in (1, 2):
            imgs = sorted(p3(L).transform_point(p)
                          for p in p3(L).lattice_points(N))
            simplex = sorted(
                (a, b, c)
                for a in range(N * L + 1)
                for b in range(N * L + 1)
                for c in range(N * L + 1)
                if a + b + c <= N * L)
            assert imgs == simplex


def test_p3_fixed2_free_edge_range():
    # [DERIVED] p3_fixed2(2, 2, 4): the free weight runs over {0, 2, 4}
    pts = p3_fixed2(2, 2, 4).lattice_points(1)
    assert sorted(p[2] for p in pts) == [0, 2, 4]


def test_p3_fixed2_parity_of_free_edge():
    pts = p3_fixed2(1, 2, 3).lattice_points(1)
    assert sorted(p[2] for p in pts) == [1, 3]


def test_loop_b_points():
    # [DERIVED] loop-with-edge block at L=1: (x, y) with y <= 2x,
    # 2x + y <= 2, y even
    assert loop_b(1).lattice_points(1) == ((0, 0), (1, 0))


def test_loop_b2_level1_count():
    # [DERIVED] the doubled-edge block at native level 2 has 8 degree-1 points
    assert len(loop_b2(1).lattice_points(1)) == 8


def test_b2_transform_bijection_and_roundtrip():
    P = loop_b2(1)
    for N in (1, 2):
        pts = P.lattice_points(N)
        imgs = [B2_COORDS.apply(p) for p in pts]
        assert len(set(imgs)) == len(pts)
        for p, q in zip(pts, imgs):
            assert P.transform_point(p) == q
            assert B2_COORDS_INVERSE.apply(q) == p


def test_b2_change_of_coords_rejects_odd():
    with pytest.raises(ParityViolation):
        B2_COORDS.apply((1, 0, 0, 0))


def test_quadrants_cover_b2():
    # [DERIVED] the four quadrants partition the transformed doubled-edge
    # block up to shared boundary; each quadrant has 6 degree-1 points at
    # L=1 and the union has 8
    P = loop_b2(1)
    all_imgs = {B2_COORDS.apply(p) for p in P.lattice_points(1)}
    union = set()
    for q in (1, 2, 3, 4):
        pts = set(quadrant(q, 1).lattice_points(1))
        assert len(pts) == 6
        union |= pts
    assert union == all_imgs


def test_quadrant_one_points():
    # [PAPER] the six generators of the first quadrant at L=1
    assert set(quadrant(1, 1).lattice_points(1)) == {
        (0, 0, 0, 0), (0, 0, 0, 1), (0, 1, 0, 1),
        (1, 0, 0, 1), (1, 1, 0, 1), (1, 1, 1, 1)}


def test_cubic_region_points():
    # [PAPER] degree-1 points of the cubic-relation region, edge coordinates
    assert trinode_cubic_region().lattice_points(1) == (
        (0, 0, 0), (1, 1, 2), (1, 2, 1), (2, 1, 1), (2, 2, 2))


def test_fragment_matches_two_pin_block():
    # each exploded half of the 4-leaf tree is a trinode with two pinned
    # leaves and one free stub: same counts and the same free-weight set as
    # the two-pin block
    eg = graphs.explode(graphs.caterpillar_tree(4))
    frag = eg.components[0]
    labs = sorted(lab for lab, _ in frag.leaves)
    P = polytopes.fragment_polytope(frag, {labs[0]: 1, labs[1]: 1}, 2)
    Q = p3_fixed2(1, 1, 2)
    stub = frag.stub_edges[0]
    for N in (1, 2, 3):
        assert len(P.lattice_points(N)) == len(Q.lattice_points(N))
        assert {p[stub] for p in P.lattice_points(N)} == \
            {q[2] for q in Q.lattice_points(N)}


def test_from_graph_rejects_wrong_weight_count():
    with pytest.raises(LengthMismatch):
        from_graph(graphs.caterpillar_tree(4), (1, 1), 2)


def test_invalid_block_params():
    with pytest.raises(InvalidParams):
        interval(-1)
    with pytest.raises(InvalidParams):
        p3_fixed1(5, 1)
    with pytest.raises(InvalidParams):
        p3_fixed2(1, 7, 2)
    with pytest.raises(InvalidParams):
        quadrant(5, 1)


def test_loop_with_leaf_polytope():
    # [DERIVED] loop with one leaf pinned to 0, level 1: points (x, 0),
    # x in {0, 1}
    P = from_graph(loop_with_leaf(), (0,), 1)
    pts = P.lattice_points(1)
    assert len(pts) == 2
    for p in pts:
        assert 0 in p


def test_contradictory_parities_give_empty_polytope():
    # head trinode forces the interior edge odd, the tail forces it even
    g = graphs.caterpillar_tree(4)
    P = from_graph(g, (1, 2, 2, 2), 2)
    assert P.lattice_points(1) == ()
    assert P.lattice_points(2) == ()


def test_incompatible_weights_give_odd_interior_edge():
    # (1,2,1,2) is not compatible, yet the polytope is nonempty: its
    # interior edge carries odd weight on every point
    g = graphs.caterpillar_tree(4)
    assert not graphs.is_compatible(g, (1, 2, 1, 2))
    P = from_graph(g, (1, 2, 1, 2), 2)
    pts = P.lattice_points(1)
    assert pts
    leaf_edges = {g.leaf_edge_index(lab) for lab, _ in g.leaves}
    interior = [i for i in range(len(g.edges)) if i not in leaf_edges]
    assert len(interior) == 1
    for p in pts:
        assert p[interior[0]] % 2 == 1


def test_full_lattice_is_superset():
    P = p3(1)
    Q = with_full_lattice(P)
    assert set(P.lattice_points(2)) <= set(Q.lattice_points(2))
    # (1, 1, 1) has odd trinode sum: full lattice only, from dilation 2 on
    assert (1, 1, 1) in Q.lattice_points(2)
    assert (1, 1, 1) not in P.lattice_points(2)


# -- fiber products and assembly -----------------------------------------


def test_edge_projection_and_fiber_product_counts():
    # two trinodes with pinned leaves glued along their free edge: must
    # reproduce the 4-leaf tree polytope counts
    g = graphs.caterpillar_tree(4)
    P = from_graph(g, (2, 2, 2, 2), 2)
    A = p3_fixed2(2, 2, 2)
    B = p3_fixed2(2, 2, 2)
    fp = fiber_product(A, edge_projection(A, 2, 2),
                       B, edge_projection(B, 2, 2))
    for N in (1, 2, 3):
        assert len(fp.polytope.lattice_points(N)) == len(P.lattice_points(N))


def test_fiber_product_base_mismatch():
    A = p3_fixed2(2, 2, 2)
    with pytest.raises(BaseMismatch):
        fiber_product(A, edge_projection(A, 2, 2),
                      A, edge_projection(A, 2, 3))


def test_edge_projection_rejects_odd_weight():
    A = p3_fixed2(1, 1, 2)
    f = edge_projection(A, 2, 2)
    with pytest.raises(ParityViolation):
        f.apply((1, 1, 1))


def test_assemble_matches_graph_polytope():
    cases = [
        (graphs.caterpillar_tree(4), (1, 1, 2, 2), 2),
        (graphs.caterpillar_tree(5), (1, 1, 2, 1, 1), 2),
        (graphs.add_loop_at_leaf(graphs.caterpillar_tree(3), 1), (2, 2), 2),
    ]
    for g, r, L in cases:
        P = from_graph(g, r, L)
        A = assemble(graphs.explode(g), r, L)
        for N in (1, 2, 3):
            direct = set(P.lattice_points(N))
            via = {assembled_point_to_graph_point(A, p)
                   for p in A.polytope.lattice_points(N)}
            assert direct == via
            assert len(A.polytope.lattice_points(N)) == len(direct)


def _gb_route_instances():
    """The graphs, r and L on which a GB check runs: perfbench's certify
    graphs at L = 4 and 6, every polyquad and d2bp instance of the battery,
    and cat6 at L = 3 and 5, where the check fails on the count."""
    t4 = graphs.caterpillar_tree(4)
    internal = [i for i, (a, b) in enumerate(t4.edges)
                if t4.degree(a) == 3 and t4.degree(b) == 3]
    for g in (graphs.caterpillar_tree(6),
              graphs.add_loop_at_leaf(graphs.caterpillar_tree(3), 1),
              graphs.double_edge_at(t4, internal[0])):
        for L in (4, 6):
            yield g, (2,) * g.n_leaves, L
    for name, kw, _ in load_script("run_verifications").instances():
        if name in ("polyquad", "d2bp"):
            yield kw["graph"], kw["r"], kw["level"]
    for L in (3, 5):
        yield graphs.caterpillar_tree(6), (2,) * 6, L


def test_even_interior_assembly_counts_match_graph_polytope():
    # the GB check reads the graph polytope's table against the standard
    # monomials of the even-interior assembly: their counts must agree
    cases = list(_gb_route_instances())
    assert len(cases) == 6 + 9 + 2
    for g, r, L in cases:
        assembled = boxtimes_assemble(g, r, L)[1].polytope
        assert hilbert(assembled, 4) == hilbert(from_graph(g, r, L), 4), \
            (g.edges, r, L)


def test_assemble_even_interior_has_transform():
    g = graphs.caterpillar_tree(4)
    A = assemble(graphs.explode(g), (2, 2, 2, 2), 2, even_interior=True)
    P = A.polytope
    assert P.to_lattice is not None
    imgs = {P.transform_point(p) for p in P.lattice_points(1)}
    assert len(imgs) == len(P.lattice_points(1))


@pytest.mark.parametrize("L", [2, 3])
def test_even_interior_maps_are_integral_on_cycles(L):
    # the edges of a cycle with odd weights are not halved: the triangle
    # with three leaves, and the genus-2 graph with a doubled edge beside a
    # triangle, whose doubled pair has an odd sum on some points
    triangle = graphs.enumerate_graphs(1, 3)[6]
    genus2 = graphs.enumerate_graphs(2, 1)[2]
    assert triangle.edges[:3] == ((0, 1), (0, 2), (1, 2))
    assert genus2.edges.count((0, 1)) == 2
    for g, r in ((triangle, (2, 2, 2)), (genus2, (2,))):
        A = assemble(graphs.explode(g), r, L, even_interior=True)
        for _, _, P in A.components:
            for N in (1, 2):
                pts = P.lattice_points(N)
                assert len({P.transform_point(p) for p in pts}) == len(pts)
    A = assemble(graphs.explode(triangle), (2, 2, 2), 2, even_interior=True)
    assert A.polytope.transform_point((1, 1, 1, 2, 2, 2)) == (1, 1, 1, 1, 1, 1)


def test_recognize_blocks():
    g = graphs.add_loop_at_leaf(graphs.caterpillar_tree(3), 1)
    eg = graphs.explode(g)
    kinds = sorted(recognize_block(f) for f in eg.components)
    assert kinds == ["loop_b", "p3_fixed2"]

    t4 = graphs.caterpillar_tree(4)
    internal = [i for i, (a, b) in enumerate(t4.edges)
                if t4.degree(a) == 3 and t4.degree(b) == 3]
    dg = graphs.double_edge_at(t4, internal[0])
    eg = graphs.explode(dg)
    kinds = sorted(recognize_block(f) for f in eg.components)
    assert kinds == ["loop_b2", "p3_fixed2", "p3_fixed2"]

    # a doubled pair beside a triangle is no block
    eg = graphs.explode(graphs.enumerate_graphs(2, 1)[2])
    assert [recognize_block(f) for f in eg.components] == ["fragment"]


def test_hilbert_invariance_g0_n4():
    # [DERIVED] all three 4-leaf trees give identical counts
    tables = []
    for g in graphs.enumerate_graphs(0, 4):
        P = from_graph(g, (1, 1, 2, 2), 2)
        tables.append(tuple(len(P.lattice_points(n)) for n in range(4)))
    assert len(set(tables)) == 1


def test_hilbert_tree_like_g1_n2():
    # [DERIVED] loop-at-leaf graph, r=(2,2), L=2: counts 1, 3, 5, 7
    g = graphs.add_loop_at_leaf(graphs.caterpillar_tree(3), 1)
    P = from_graph(g, (2, 2), 2)
    assert [len(P.lattice_points(n)) for n in range(4)] == [1, 3, 5, 7]


def test_t4_1122_level2_degree1():
    # [DERIVED] caterpillar_tree(4), r=(1,1,2,2), L=2 has a single degree-1
    # point with interior weight 2
    P = from_graph(graphs.caterpillar_tree(4), (1, 1, 2, 2), 2)
    assert len(P.lattice_points(1)) == 1


# -- hypothesis property tests -------------------------------------------


@given(st.integers(0, 2), st.integers(1, 3), st.integers(1, 2))
@settings(max_examples=30, deadline=None)
def test_semigroup_containment(L, n1, n2):
    P = p3(L)
    pts1 = set(P.lattice_points(n1))
    pts2 = set(P.lattice_points(n2))
    total = set(P.lattice_points(n1 + n2))
    for a in pts1:
        for b in pts2:
            assert tuple(x + y for x, y in zip(a, b)) in total


@given(st.lists(st.integers(0, 4), min_size=4, max_size=4),
       st.integers(1, 3), st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_caterpillar_points_sorted_distinct_members(r, L, N):
    P = from_graph(graphs.caterpillar_tree(4), tuple(r), L)
    pts = P.lattice_points(N)
    assert list(pts) == sorted(set(pts))
    for p in pts:
        assert in_parity_lattice(P, p)
        assert all(sum(a * x for a, x in zip(row, p)) <= b * N
                   for row, b in P.inequalities)
        assert all(sum(a * x for a, x in zip(row, p)) == b * N
                   for row, b in P.equalities)


@given(st.integers(1, 3), st.integers(0, 3))
@settings(max_examples=30, deadline=None)
def test_transform_injective_on_points(L, N):
    P = p3(L)
    pts = P.lattice_points(N)
    assert len({P.transform_point(p) for p in pts}) == len(pts)


@st.composite
def lattice_map_pairs(draw):
    """Two lattice maps with the same number of random integer rows over
    denominators in {1, 2, 4}, on sources of dimension 1-3."""
    k = draw(st.integers(1, 3))
    maps = []
    for _ in range(2):
        d = draw(st.integers(1, 3))
        rows = draw(st.lists(st.tuples(*[st.integers(-4, 4)] * d),
                             min_size=k, max_size=k))
        maps.append((d, LatticeMap(tuple(rows), draw(st.sampled_from((1, 2, 4))))))
    return maps


@given(lattice_map_pairs())
@settings(max_examples=150, deadline=None)
def test_glue_rows_match_fraction_route(maps):
    (d1, f1), (d2, f2) = maps
    P1 = GradedPolytope(d1, (), ())
    P2 = GradedPolytope(d2, (), ())
    fp = fiber_product(P1, f1, P2, f2)
    eqs, _ = fraction_glue_rows(f1, f2, d1)
    assert list(fp.polytope.equalities) == eqs
