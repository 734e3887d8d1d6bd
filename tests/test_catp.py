import pytest

from spinpoly import graphs
from spinpoly.catp import (
    WeightedPolytope,
    boxtimes_assemble,
    boxtimes_object,
    check_morphism,
    component_total_order,
    fiber_product_object,
    product_standard_characterization,
    split_monomial,
    sum_weight,
    verify_double_weight_equivalence,
    verify_flag_product_faces,
)
from spinpoly.errors import (
    HypothesisViolated,
    NonUniqueBase,
    NotAPolytopeMap,
    NotTotal,
)
from spinpoly.polytopes import (
    LatticeMap,
    edge_projection,
    fiber_product,
    from_graph,
    interval,
    p3,
    p3_fixed2,
)
from spinpoly.termorders import (
    TermWeight,
    TotalOrder,
    has_unique_standard_monomials,
    initial_complex_maximal_faces,
    sigma2_lex_order,
)


def interval_object(L):
    return WeightedPolytope(interval(L), sigma2_lex_order())


def halving_map(L):
    """[0, 2L] -> [0, L], t -> t/2 (only valid on even points)."""
    return LatticeMap(((1,),), 2, interval(L))


def inclusion_map(L, M):
    """[0, L] -> [0, M], t -> t (needs L <= M)."""
    return LatticeMap(((1,),), 1, interval(M))


def test_check_morphism_inclusion_is_morphism():
    # balanced multisets stay balanced in the larger interval
    src, tgt = interval_object(2), interval_object(4)
    chk = check_morphism(inclusion_map(2, 4), src, tgt, 3)
    assert chk.ok
    assert chk.witness.verified_degree == 3


def test_doubling_is_not_a_morphism():
    # t -> 2t sends the standard pair (0,),(1,) to (0,),(2,), which loses to
    # the balanced pair (1,),(1,) in the target
    src, tgt = interval_object(2), interval_object(4)
    dbl = LatticeMap(((2,),), 1, interval(4))
    chk = check_morphism(dbl, src, tgt, 2)
    assert not chk.ok
    assert chk.witness == ((0,), (1,))


def test_check_morphism_rejects_out_of_range():
    src, tgt = interval_object(4), interval_object(2)
    ident = LatticeMap(((1,),), 1, interval(2))
    with pytest.raises(NotAPolytopeMap):
        check_morphism(ident, src, tgt, 2)


def test_check_morphism_zero_weight_counterexample():
    # [DERIVED] with the zero weight on the target every fiber member is
    # standard-minimal only by accident; a weight collapsing the order finds
    # the counterexample ((0,), (2,))
    src = interval_object(2)
    tgt = WeightedPolytope(interval(2),
                           TermWeight(lambda p: -p[0] * p[0], "neg"))
    ident = LatticeMap(((1,),), 1, interval(2))
    chk = check_morphism(ident, src, tgt, 2)
    assert not chk.ok
    assert chk.witness == ((1,), (1,))


def test_sum_weight_and_split():
    A = p3_fixed2(2, 2, 2)
    fp = fiber_product(A, edge_projection(A, 2, 2),
                       A, edge_projection(A, 2, 2))
    o = sum_weight(sigma2_lex_order(A.transform_point),
                   sigma2_lex_order(A.transform_point), fp.offset)
    pt = fp.polytope.lattice_points(1)[0]
    left, right = pt[:fp.offset], pt[fp.offset:]
    l, r = split_monomial(fp, (pt,))
    assert l == (left,) and r == (right,)
    assert o.weight(pt) == sum(x * x for x in A.transform_point(left)) + \
        sum(x * x for x in A.transform_point(right))


def test_product_standard_characterization():
    A = p3_fixed2(2, 2, 2)
    fp = fiber_product(A, edge_projection(A, 2, 2),
                       A, edge_projection(A, 2, 2))
    o = sigma2_lex_order(A.transform_point)
    assert product_standard_characterization(fp, o, o, 3).ok


def test_fiber_product_object_and_closures():
    A = p3_fixed2(2, 2, 2)
    oA = sigma2_lex_order(A.transform_point)
    base = interval_object(2)
    m1 = check_morphism(edge_projection(A, 2, 2),
                        WeightedPolytope(A, oA), base, 3).witness
    m2 = check_morphism(edge_projection(A, 2, 2),
                        WeightedPolytope(A, oA), base, 3).witness
    wp, fp = fiber_product_object(m1, m2, 3)
    assert wp.polytope is fp.polytope
    # the doubled weight on the glued coordinate is order-equivalent to the
    # plain one
    assert verify_double_weight_equivalence(fp, 3).ok
    # flag initial complexes glue facewise
    report = verify_flag_product_faces(fp, oA, oA, 3)
    assert report.ok


def test_flag_product_faces_failure_witness():
    # two trinode blocks glued along their first edge: some maximal face of
    # the product complex glues no pair of factor faces, and the least one
    # is the witness
    A = p3(2)
    fp = fiber_product(A, edge_projection(A, 0, 2),
                       A, edge_projection(A, 0, 2))
    o = sigma2_lex_order(A.transform_point)
    chk = verify_flag_product_faces(fp, o, o, 2)
    assert not chk.ok
    assert chk.witness == sorted(chk.witness)
    assert frozenset(chk.witness) in initial_complex_maximal_faces(
        fp.polytope, sum_weight(o, o, fp.offset), 2)


def test_fiber_product_object_rejects_weak_base():
    A = p3_fixed2(2, 2, 2)
    oA = sigma2_lex_order(A.transform_point)
    base = WeightedPolytope(interval(2), TermWeight.zero())
    m1 = check_morphism(edge_projection(A, 2, 2),
                        WeightedPolytope(A, oA), base, 2).witness
    with pytest.raises(NonUniqueBase):
        fiber_product_object(m1, m1, 2)


def test_boxtimes_object_total():
    A = p3_fixed2(2, 2, 2)
    oA = sigma2_lex_order(A.transform_point)
    base = interval_object(2)
    m1 = check_morphism(edge_projection(A, 2, 2),
                        WeightedPolytope(A, oA), base, 3).witness
    wp, fp = boxtimes_object(m1, m1, 3)
    assert isinstance(wp.order, TotalOrder)
    assert has_unique_standard_monomials(wp.polytope, wp.order, 3)


def test_boxtimes_object_rejects_non_total():
    A = p3_fixed2(2, 2, 2)
    base = interval_object(2)
    src = WeightedPolytope(A, TermWeight.sigma2(A.transform_point))
    m1 = check_morphism(edge_projection(A, 2, 2), src, base, 2).witness
    with pytest.raises(NotTotal):
        boxtimes_object(m1, m1, 2)


def test_component_total_order_kinds():
    t4 = graphs.caterpillar_tree(4)
    internal = [i for i, (a, b) in enumerate(t4.edges)
                if t4.degree(a) == 3 and t4.degree(b) == 3]
    dg = graphs.double_edge_at(t4, internal[0])
    eg = graphs.explode(dg)
    from spinpoly.polytopes import fragment_polytope, recognize_block

    kinds = set()
    for frag in eg.components:
        P = fragment_polytope(frag, {1: 2, 2: 2, 3: 2, 4: 2}, 2,
                              even_stubs=True)
        order = component_total_order(P, frag, recognize_block(frag))
        kinds.add(order.kind)
    assert kinds == {"sigma2-lex", "b2-cascade"}


def test_doubled_pair_outside_loop_b2_is_refused():
    # genus 2, one leaf: the doubled pair sits in a 5-edge fragment with a
    # third trinode, which recognize_block does not name loop_b2
    g = graphs.enumerate_graphs(2, 1)[2]
    with pytest.raises(HypothesisViolated,
                       match="5-edge fragment with a doubled pair"):
        boxtimes_assemble(g, (2,), 2)


def test_boxtimes_assemble_tree():
    g = graphs.caterpillar_tree(4)
    wp, assembly = boxtimes_assemble(g, (2, 2, 2, 2), 2)
    assert isinstance(wp.order, TotalOrder)
    assert has_unique_standard_monomials(wp.polytope, wp.order, 3)
    P = from_graph(g, (2, 2, 2, 2), 2)
    for N in (1, 2, 3):
        assert len(wp.polytope.lattice_points(N)) == len(P.lattice_points(N))


def test_boxtimes_assemble_doubled_edge():
    t4 = graphs.caterpillar_tree(4)
    internal = [i for i, (a, b) in enumerate(t4.edges)
                if t4.degree(a) == 3 and t4.degree(b) == 3]
    dg = graphs.double_edge_at(t4, internal[0])
    wp, assembly = boxtimes_assemble(dg, (2, 2, 2, 2), 2)
    assert isinstance(wp.order, TotalOrder)
    names = sorted(k for _, k, _ in assembly.components)
    assert names == ["loop_b2", "p3_fixed2", "p3_fixed2"]
    P = from_graph(dg, (2, 2, 2, 2), 2)
    for N in (1, 2):
        assert len(wp.polytope.lattice_points(N)) == len(P.lattice_points(N))
