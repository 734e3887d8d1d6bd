import re

import pytest

from spinpoly import graphs
from spinpoly.catp import boxtimes_assemble, component_total_order
from spinpoly.errors import HypothesisViolated
from spinpoly.polytopes import (
    fragment_polytope,
    from_graph,
    recognize_block,
)
from spinpoly.termorders import (
    b2_cascade_order,
    sigma2_lex_order,
    standard_pairs,
)

from helpers import (
    edge_projection,
    fiber_product,
    fold_assembly,
    gb_route_instances,
    p3_fixed2,
    product_standard_characterization,
    split_monomial,
    sum_weight,
)


def test_sum_weight_and_split():
    A = p3_fixed2(2, 2, 2)
    fp = fiber_product(A, edge_projection(A, 2, 2),
                       A, edge_projection(A, 2, 2))
    w = sum_weight(sigma2_lex_order(A.transform_point),
                   sigma2_lex_order(A.transform_point), fp.offset)
    pt = fp.polytope.lattice_points(1)[0]
    left, right = pt[:fp.offset], pt[fp.offset:]
    l, r = split_monomial(fp.offset, (pt,))
    assert l == (left,) and r == (right,)
    assert w(pt) == sum(x * x for x in A.transform_point(left)) + \
        sum(x * x for x in A.transform_point(right))


def test_product_standard_characterization():
    A = p3_fixed2(2, 2, 2)
    fp = fiber_product(A, edge_projection(A, 2, 2),
                       A, edge_projection(A, 2, 2))
    o = sigma2_lex_order(A.transform_point)
    assert product_standard_characterization(fp, A, A, o, o, 3).ok


def test_component_total_order_kinds():
    # the loop_b2 block gets the cascade, every other component Σ² + lex,
    # both on lattice coordinates
    t4 = graphs.caterpillar_tree(4)
    internal = [i for i, (a, b) in enumerate(t4.edges)
                if t4.degree(a) == 3 and t4.degree(b) == 3]
    dg = graphs.double_edge_at(t4, internal[0])
    kinds = []
    for frag in graphs.explode(dg).components:
        P = fragment_polytope(frag, {1: 2, 2: 2, 3: 2, 4: 2}, 2,
                              even_stubs=True)
        kind = recognize_block(frag)
        order = component_total_order(P, frag, kind)
        expected = (b2_cascade_order if kind == "loop_b2"
                    else sigma2_lex_order)(P.transform_point)
        pts = P.lattice_points(1)
        assert [order.entry(p) for p in pts] == \
            [expected.entry(p) for p in pts]
        kinds.append(kind)
    assert sorted(kinds) == ["loop_b2", "p3_fixed2", "p3_fixed2"]


def test_doubled_pair_outside_loop_b2_is_refused():
    # genus 2, one leaf: the doubled pair sits in a 5-edge fragment with a
    # third trinode, which recognize_block does not name loop_b2
    g = graphs.enumerate_graphs(2, 1)[2]
    with pytest.raises(HypothesisViolated,
                       match="5-edge fragment with a doubled pair"):
        boxtimes_assemble(g, (2,), 2)


def _keys_are_distinct(order, P):
    """Distinct points get distinct keys, so distinct monomials get distinct
    monomial keys and each fiber has one least member."""
    pts = P.lattice_points(1)
    return len({order.entry(p)[1] for p in pts}) == len(pts)


def test_boxtimes_assemble_tree():
    g = graphs.caterpillar_tree(4)
    order, assembly = boxtimes_assemble(g, (2, 2, 2, 2), 2)
    P = from_graph(g, (2, 2, 2, 2), 2)
    assert _keys_are_distinct(order, P)
    # one key per component, in the fold sequence
    assert assembly.sequence == (0, 1)
    assert all(len(order.entry(p)[1]) == 2 for p in P.lattice_points(1))


def test_boxtimes_assemble_doubled_edge():
    t4 = graphs.caterpillar_tree(4)
    internal = [i for i, (a, b) in enumerate(t4.edges)
                if t4.degree(a) == 3 and t4.degree(b) == 3]
    dg = graphs.double_edge_at(t4, internal[0])
    order, assembly = boxtimes_assemble(dg, (2, 2, 2, 2), 2)
    assert _keys_are_distinct(order, from_graph(dg, (2, 2, 2, 2), 2))
    names = sorted(k for _, k, _ in assembly.components)
    assert names == ["loop_b2", "p3_fixed2", "p3_fixed2"]


def test_odd_cut_edge_is_refused():
    # r = 1,2,1,2 makes the cut edge of the 4-leaf caterpillar odd, which
    # the components' lattice maps would halve
    g = graphs.caterpillar_tree(4)
    assert {p[0] for p in from_graph(g, (1, 2, 1, 2), 2).lattice_points(1)} \
        == {1}
    with pytest.raises(HypothesisViolated, match=re.escape(
            "cut edge 0 ('v1', 'v2') has odd weight at r=[1, 2, 1, 2]")):
        boxtimes_assemble(g, (1, 2, 1, 2), 2)


def test_standard_pairs_match_the_folded_assembly():
    # the order on graph points against the fiber-product assembly and
    # its two-factor fold ((k0, k1), k2): graph points spread over the
    # assembled coordinates give the same standard pairs
    cases = list(gb_route_instances())
    assert len(cases) == 17
    for g, r, L in cases:
        order, _ = boxtimes_assemble(g, r, L)
        folded = fold_assembly(graphs.explode(g), r, L, even_interior=True)
        edges = [orig for _, _, orig in folded.coord_map]
        spread = {tuple(sorted(tuple(p[e] for e in edges) for p in m))
                  for m in standard_pairs(from_graph(g, r, L), order)}
        assert spread == standard_pairs(folded.polytope, folded.order), \
            (g.edges, r, L)
