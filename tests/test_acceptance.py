"""Acceptance battery: one test per criterion, each printing a single
pass/fail line with its stated bounds (run with -s to see the lines)."""

import random
import time
from itertools import product as iproduct

from spinpoly import graphs
from spinpoly.polytopes import (
    LatticeMap,
    edge_projection,
    fiber_product,
    from_graph,
    interval,
    p3,
    quadrant,
    with_full_lattice,
)
from spinpoly.termorders import (
    is_balanced,
    sigma2_lex_order,
    sigma_squared,
    standard_monomials,
)
from spinpoly.toric import (
    hilbert,
    is_normal,
    quadratic_squarefree_gb,
    relation_degree,
    verify_theorem,
)

from helpers import (
    B2_COORDS,
    B2_COORDS_INVERSE,
    balance_tuple,
    degree_two_relations,
    fiber_set,
    fraction_glue_rows,
    is_slice_balanced,
    loop_b,
    loop_b2,
    naive_is_flag,
    p3_fixed1,
    p3_fixed2,
    product_standard_characterization,
    sum_weight,
    trinode_cubic_region,
    verify_double_weight_equivalence,
    weight_minima,
)


def report(criterion, ok, detail=""):
    line = f"criterion {criterion}: {'pass' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def even_odd_count_weights(n, wmax=3):
    for r in iproduct(range(wmax + 1), repeat=n):
        if sum(1 for x in r if x % 2) % 2 == 0:
            yield r


def test_criterion_1_graph_independence():
    # Hilbert tables agree across all graphs with the same (genus, leaves),
    # for every r with entries <= 3 and even odd-count, L <= 2, N <= 3
    t0 = time.perf_counter()
    checked = 0
    for genus, n in [(0, 4), (0, 5), (1, 1), (1, 2)]:
        gs = graphs.enumerate_graphs(genus, n)
        for r in even_odd_count_weights(n):
            for L in (1, 2):
                tables = {hilbert(from_graph(g, r, L), 3) for g in gs}
                if len(tables) != 1:
                    report(1, False, f"(g,n)=({genus},{n}) r={r} L={L}")
                checked += 1
    dt = time.perf_counter() - t0
    report(1, dt < 120,
           f"{checked} (r, L) cases over 4 graph families, N<=3, {dt:.1f}s")


def test_criterion_2_polypres_instances():
    loopy = graphs.add_loop_at_leaf(graphs.caterpillar_tree(3), 1)
    instances = [
        (graphs.caterpillar_tree(4), (1, 1, 1, 1)),   # pure tree
        (graphs.caterpillar_tree(4), (1, 1, 2, 2)),
        (graphs.caterpillar_tree(4), (2, 2, 2, 2)),
        (graphs.caterpillar_tree(5), (1, 1, 2, 1, 1)),
        (loopy, (2, 2)),                              # with a loop
    ]
    for g, r in instances:
        cert = verify_theorem("polypres", graph=g, r=r, level=2, dmax=4)
        if not cert.result:
            report(2, False, f"r={r}: {cert.witnesses}")
    report(2, True, f"{len(instances)} tree-like instances, L=2, "
           "normal to D=4, relations <= 3")


def test_criterion_3_polyquad_instances():
    t4 = graphs.caterpillar_tree(4)
    internal = [i for i, (a, b) in enumerate(t4.edges)
                if t4.degree(a) == 3 and t4.degree(b) == 3]
    doubled = graphs.double_edge_at(t4, internal[0])
    loopy = graphs.add_loop_at_leaf(graphs.caterpillar_tree(3), 1)
    instances = [
        (t4, (2, 2, 2, 2)),
        (doubled, (2, 2, 2, 2)),   # exercises the doubled-edge block
        (loopy, (2, 2)),
    ]
    for g, r in instances:
        cert = verify_theorem("polyquad", graph=g, r=r, level=2, dmax=4)
        if not cert.result:
            report(3, False, f"r={r}: {cert.witnesses}")
    report(3, True, f"{len(instances)} caterpillar instances, L=2, "
           "quadratic square-free GB to D=4")


def test_criterion_4_cubic_necessity():
    P = trinode_cubic_region()
    cert = relation_degree(P, 3, 4)
    ok = cert.relation_degree == 3
    witness_ok = any(n == 3 and b == (4, 4, 4) for n, b, d in cert.witnesses)
    gb = quadratic_squarefree_gb(P, sigma2_lex_order(P.transform_point),
                                 hilbert(P, 3))
    gb_fail_ok = (not gb.ok and gb.witness["degree"] == 3)
    report(4, ok and witness_ok and gb_fail_ok,
           "relation degree exactly 3, witness fiber (4,4,4), "
           "GB count fails at N=3")


def test_criterion_5_p3_level1_anomaly():
    full = is_normal(with_full_lattice(p3(1)), 4)
    parity = is_normal(p3(1), 4)
    ok = (not full.ok and full.witness == (2, (1, 1, 1)) and parity.ok)
    report(5, ok, "full lattice fails with (1,1,1) in 2P; "
           "parity lattice normal to D=4")


def test_criterion_6_building_block_battery():
    blocks = []
    for L in (1, 2, 3):
        blocks.append((f"p3({L})", p3(L)))
        for r in range(0, 2 * L + 1, 2):
            blocks.append((f"p3_fixed1({r},{L})", p3_fixed1(r, L)))
            for s in range(0, 2 * L + 1, 2):
                blocks.append((f"p3_fixed2({r},{s},{L})", p3_fixed2(r, s, L)))
        blocks.append((f"loop_b({L})", loop_b(L)))
        for q in (1, 2, 3, 4):
            blocks.append((f"quadrant({q},{L})", quadrant(q, L)))
    for name, P in blocks:
        chk = is_balanced(P, 3)
        if not chk.ok:
            report(6, False, f"{name} not balanced: {chk.witness}")
    # change-of-coordinates bijective round trip on the doubled-edge block
    for L in (1, 2):
        P = loop_b2(L)
        for N in (1, 2):
            pts = P.lattice_points(N)
            imgs = [B2_COORDS.apply(p) for p in pts]
            if len(set(imgs)) != len(pts) or \
                    any(B2_COORDS_INVERSE.apply(q) != p
                        for p, q in zip(pts, imgs)):
                report(6, False, f"round trip fails for loop_b2({L})")
    # first quadrant at L=1: six generators, one quadratic relation
    Q = quadrant(1, 1)
    gens = set(Q.lattice_points(1))
    rels = degree_two_relations(Q, sigma2_lex_order())
    structure_ok = (
        gens == {(0, 0, 0, 0), (0, 0, 0, 1), (0, 1, 0, 1),
                 (1, 0, 0, 1), (1, 1, 0, 1), (1, 1, 1, 1)}
        and len(rels) == 1
        and rels[0] == (((0, 0, 0, 1), (1, 1, 0, 1)),
                        ((0, 1, 0, 1), (1, 0, 0, 1))))
    if not structure_ok:
        report(6, False, "Q1(1) generator/relation structure mismatch")
    report(6, True, f"{len(blocks)} blocks balanced to D=3, L<=3; "
           "coordinate round trip; Q1(1): 6 generators, 1 relation")


def test_criterion_7_category_closure():
    A2 = p3_fixed2(2, 2, 2)
    A4 = p3_fixed2(2, 2, 4)
    B = loop_b(2)
    I = interval(2)
    ident_to_base = LatticeMap(((1,),), 1, interval(2))
    x_to_base = LatticeMap(((1, 0),), 1, interval(2))
    cases = [
        ("p3_fixed2(2,2,2) x p3_fixed2(2,2,2)",
         A2, edge_projection(A2, 2, 2), A2, edge_projection(A2, 2, 2)),
        ("p3_fixed2(2,2,4) x p3_fixed2(2,2,4)",
         A4, edge_projection(A4, 2, 2), A4, edge_projection(A4, 2, 2)),
        ("loop_b(2) x loop_b(2)", B, x_to_base, B, x_to_base),
        ("p3_fixed2(2,2,2) x loop_b(2)",
         A2, edge_projection(A2, 2, 2), B, x_to_base),
        ("[0,2] x [0,2]", I, ident_to_base, I, ident_to_base),
    ]
    D = 3
    for name, P1, f1, P2, f2 in cases:
        fp = fiber_product(P1, f1, P2, f2)
        o1 = sigma2_lex_order(P1.transform_point)
        o2 = sigma2_lex_order(P2.transform_point)
        _, glued = fraction_glue_rows(f1, f2, P1.dim)
        checks = {
            "characterization":
                product_standard_characterization(fp, P1, P2, o1, o2, D).ok,
            "flag": naive_is_flag(fp.polytope, weight_minima(
                sum_weight(o1, o2, fp.offset)), D)[0],
            "balanced": is_balanced(fp.polytope, D).ok,
            "double-weight":
                verify_double_weight_equivalence(fp, glued, D).ok,
            "normal": is_normal(fp.polytope, D).ok,
        }
        rel = relation_degree(fp.polytope, 3, D)
        checks["relations<=3"] = (rel.relation_degree is not None
                                  and rel.relation_degree <= 3)
        bad = [k for k, v in checks.items() if not v]
        if bad:
            report(7, False, f"{name}: failed {bad}")
    report(7, True, f"{len(cases)} fiber products over ([0,2], sigma^2), "
           "all closure checks to D=3")


def test_criterion_8_balancing_properties():
    rng = random.Random(20260824)
    trials = 10000
    for _ in range(trials):
        dim = rng.randint(1, 4)
        n = rng.randint(1, 6)
        vecs = [tuple(rng.randint(0, 20) for _ in range(dim))
                for _ in range(n)]
        out = balance_tuple(vecs)
        if tuple(map(sum, zip(*out))) != tuple(map(sum, zip(*vecs))):
            report(8, False, f"sum changed for {vecs}")
        if sum(sigma_squared(v) for v in out) > \
                sum(sigma_squared(v) for v in vecs):
            report(8, False, f"sigma^2 increased for {vecs}")
        if not is_slice_balanced(out):
            report(8, False, f"not in a unit-cube translate: {vecs}")
    report(8, True, f"{trials} seeded tuples (entries <= 20, length <= 6, "
           "dim <= 4): sum kept, sigma^2 non-increasing, unit-cube fixpoint")


def test_criterion_9_sigma2_fixture():
    P = interval(3)
    fib = fiber_set(P, (3,), 3)
    order = sigma2_lex_order()
    pts_ok = sorted(fib) == [
        ((0,), (0,), (3,)), ((0,), (1,), (2,)), ((1,), (1,), (1,))]
    weights = {m: order.monomial_key(m)[1] for m in fib}
    weights_ok = (weights[((0,), (0,), (3,))] == 9
                  and weights[((0,), (1,), (2,))] == 5
                  and weights[((1,), (1,), (1,))] == 3)
    std_ok = ((1,), (1,), (1,)) in standard_monomials(P, order, 3)
    report(9, pts_ok and weights_ok and std_ok,
           "fiber {003, 012, 111}, weights 9/5/3, standard 111")
