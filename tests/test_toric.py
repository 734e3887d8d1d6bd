from collections import Counter
from itertools import product
from math import comb
import random

import pytest

from spinpoly import graphs, polytopes, toric
from spinpoly.errors import HypothesisViolated, LengthMismatch
from spinpoly.polytopes import (
    GradedPolytope,
    from_graph,
    lattice_points,
    p3,
    quadrant,
    with_full_lattice,
)
from spinpoly.catp import boxtimes_assemble
from spinpoly.termorders import (
    Check,
    TotalOrder,
    sigma2_lex_order,
    sigma_squared,
    standard_pairs,
)
from spinpoly.toric import (
    GenerationCertificate,
    fusion_key,
    hilbert,
    hilbert_by_fusion,
    is_normal,
    quadratic_squarefree_gb,
    relation_degree,
    verify_theorem,
    _lifted_spanning_tree,
    _pair_standard_counts,
)

from helpers import (
    BaseMap,
    blocks_up_to_level_2,
    count_pair_standard_multisets,
    degree_two_relations,
    fiber_product,
    interval,
    loop_b,
    naive_is_normal,
    naive_relation_degree,
    trinode_cubic_region,
)


# -- hilbert --------------------------------------------------------------


def test_hilbert_interval():
    # [TRIVIAL] interval [0, 2]
    assert hilbert(interval(2), 3) == (1, 3, 5, 7)


def test_hilbert_empty_convention():
    # an infeasible system reports all-zero including N = 0
    g = graphs.caterpillar_tree(4)
    P = from_graph(g, (1, 2, 2, 2), 2)
    assert hilbert(P, 2) == (0, 0, 0)


def test_hilbert_tree_like_oracle():
    # [DERIVED] loop-at-leaf graph, r=(2,2), L=2
    g = graphs.add_loop_at_leaf(graphs.caterpillar_tree(3), 1)
    assert hilbert(from_graph(g, (2, 2), 2), 3) == (1, 3, 5, 7)


# The invariance benchmark's families, (genus, leaves, L, r), and those of
# scripts/run_verifications.py.
INVARIANCE_FAMILIES = (
    (0, 6, 2, (1, 1, 1, 1, 2, 2)),
    (0, 6, 3, (1, 1, 2, 2, 3, 3)),
    (1, 4, 2, (1, 1, 2, 2)),
    (1, 4, 3, (1, 2, 2, 3)),
    (2, 2, 2, (1, 1)),
    (2, 2, 3, (1, 3)),
    (2, 3, 2, (2, 2, 2)),
    (0, 4, 2, (1, 1, 2, 2)),
    (0, 5, 2, (1, 1, 2, 1, 1)),
    (1, 1, 2, (2,)),
    (1, 2, 2, (2, 2)),
)


@pytest.mark.parametrize("genus,leaves,L,r", INVARIANCE_FAMILIES)
def test_hilbert_by_fusion_matches_enumeration(genus, leaves, L, r):
    for g in graphs.enumerate_graphs(genus, leaves):
        assert (hilbert_by_fusion(g, r, L, 3)
                == hilbert(from_graph(g, r, L), 3))


SWEEP_FAMILIES = ((0, 2), (0, 3), (0, 4), (1, 1), (1, 2), (2, 0), (2, 1))


def test_hilbert_by_fusion_seeded_sweep():
    # r_i > L, an odd number of odd r_i, loops (genus 1 and 2), doubled
    # edges (genus 2), the leaf-to-leaf edge of (0, 2), and L = 0
    rng = random.Random(18)
    for genus, leaves in SWEEP_FAMILIES:
        for g in graphs.enumerate_graphs(genus, leaves):
            for _ in range(6):
                r = tuple(rng.randrange(5) for _ in range(leaves))
                L = rng.randrange(4)
                assert (hilbert_by_fusion(g, r, L, 3)
                        == hilbert(from_graph(g, r, L), 3)), (g, r, L)


def test_fusion_key_groups_share_the_enumerated_table():
    # one fusion count per (L, key) stands for every graph of the group, also
    # across families and weights
    rng = random.Random(29)
    cases = list(INVARIANCE_FAMILIES)
    for genus, leaves in SWEEP_FAMILIES:
        for _ in range(3):
            cases.append((genus, leaves, rng.randrange(4),
                          tuple(rng.randrange(5) for _ in range(leaves))))
    shared, n = {}, 0
    for genus, leaves, L, r in cases:
        for g in graphs.enumerate_graphs(genus, leaves):
            key = L, fusion_key(g, r)
            if key not in shared:
                shared[key] = hilbert_by_fusion(g, r, L, 3)
            assert hilbert(from_graph(g, r, L), 3) == shared[key], (g, r, L)
            n += 1
    assert len(shared) < n / 2


def test_fusion_key_reads_leaf_weights_per_trinode():
    g = graphs.caterpillar_tree(5)  # leaves 1, 2 | 3 | 4, 5 along the spine
    r = (1, 2, 3, 4, 5)
    assert fusion_key(g, r) == fusion_key(g, (2, 1, 3, 5, 4))
    assert fusion_key(g, r) != fusion_key(g, (1, 3, 2, 4, 5))
    assert fusion_key(g, r) != fusion_key(g, (5, 2, 3, 4, 1))
    # vertices are keyed as they are: 1 and "1" are two trinodes
    h = graphs.MarkedGraph(
        (1, "1", "a", "b", "c", "d"),
        ((1, "1"), (1, "a"), (1, "b"), ("1", "c"), ("1", "d")),
        ((1, "a"), (2, "b"), (3, "c"), (4, "d")))
    assert fusion_key(h, (1, 1, 2, 2)) != fusion_key(h, (2, 2, 1, 1))
    # the edge joining two leaves keys its weight pair
    two = graphs.caterpillar_tree(2)
    assert fusion_key(two, (1, 2)) == fusion_key(two, (2, 1))
    assert fusion_key(two, (1, 2)) != fusion_key(two, (1, 1))


def _brute_triples(k):
    """The admissible trinodes at level k, by a scan of [0, 2k]^3."""
    return [(a, b, c) for a, b, c in product(range(2 * k + 1), repeat=3)
            if abs(a - b) <= c <= a + b and (a + b + c) % 2 == 0
            and a + b + c <= 2 * k]


@pytest.mark.parametrize("k", range(11))
def test_fusion_rules_list_the_admissible_triples(k):
    rules = toric._fusion_rules(k)
    triples = _brute_triples(k)
    assert [new for new, m in rules[False, ()]] == triples
    assert all(m == 1 for _, m in rules[False, ()])
    # one to three known weights, admissible or not, up past the level
    for known in product(range(k + 3), repeat=3):
        for n in (1, 2, 3):
            assert rules[False, known[:n]] == tuple(
                (t[n:], 1) for t in triples if t[:n] == known[:n])
    # a loop trinode (a, l, l), counted by a scan over l
    loops = {a: sum((a, l, l) in triples for l in range(2 * k + 1))
             for a in range(k + 3)}
    assert rules[True, ()] == tuple(((a,), m) for a, m in loops.items() if m)
    for a, m in loops.items():
        assert rules[True, (a,)] == ((((), m),) if m else ())


def test_fusion_rules_cache_is_bounded():
    for k in range(20):
        toric._fusion_rules(k)
    info = toric._fusion_rules.cache_info()
    assert info.maxsize == 16 and info.currsize <= 16


def test_hilbert_by_fusion_empty_convention():
    g = graphs.caterpillar_tree(4)
    assert hilbert_by_fusion(g, (1, 2, 2, 2), 2, 2) == (0, 0, 0)
    assert hilbert_by_fusion(g, (1, 1, 2, 2), 2, 0) == (1,)


def test_hilbert_by_fusion_rejects_wrong_length_r():
    with pytest.raises(LengthMismatch):
        hilbert_by_fusion(graphs.caterpillar_tree(4), (2, 2, 2), 2, 3)


def test_invariance_lists_no_lattice_point():
    before = lattice_points.cache_info()
    cert = verify_theorem("invariance", genus=1, leaves=2, r=(1, 3),
                          level=3, nmax=3)
    assert cert.result
    assert lattice_points.cache_info() == before  # no miss, and no hit


# -- normality ------------------------------------------------------------


def test_p3_parity_lattice_normal():
    for L in (1, 2, 3):
        assert is_normal(p3(L), 4).ok


def test_p3_full_lattice_not_normal():
    # [PAPER] dropping the parity condition breaks degree-1 generation:
    # (1,1,1) in the second dilation is not a sum of two vertices
    chk = is_normal(with_full_lattice(p3(1)), 4)
    assert not chk.ok
    assert chk.witness == (2, (1, 1, 1))


def test_blocks_normal():
    for P in [interval(3), loop_b(2), quadrant(1, 1), quadrant(3, 1)]:
        assert is_normal(P, 4).ok


def test_cubic_region_normal():
    assert is_normal(trinode_cubic_region(), 4).ok


def _normality_instances():
    """(P, Dmax): the benchmark's graphs at L = 4 on both lattices; the two
    recorded non-normal graph polytopes; cat6 at odd L, whose NP has points
    outside N times the degree-1 bounding box; the triangle 2x + 5y <= 5 at
    Dmax = 2, where (5, 0) in 2P, unguarded, would take the code of
    (0, 1) + (0, 0); a polytope with negative coordinates; and one with no
    degree-1 point but points at N = 2."""
    for g in (graphs.caterpillar_tree(6),
              graphs.add_loop_at_leaf(graphs.caterpillar_tree(3), 1), dbl4()):
        P = from_graph(g, (2,) * g.n_leaves, 4)
        yield from ((P, 4), (with_full_lattice(P), 4))
    yield from_graph(graphs.enumerate_graphs(2, 1)[1], (0,), 3), 3
    yield from_graph(graphs.enumerate_graphs(0, 6)[0], (1,) * 6, 2), 3
    yield from_graph(graphs.caterpillar_tree(6), (2,) * 6, 3), 4
    yield GradedPolytope(2, (((-1, 0), 0), ((0, -1), 0), ((2, 5), 5)), ()), 2
    yield with_full_lattice(quadrant(2, 2)), 4
    yield from_graph(graphs.caterpillar_tree(3), (1, 1, 1), 2), 3


def test_is_normal_matches_tuple_sumset_reference():
    # packed sums keep the verdict and the witness, (N, first point of NP
    # that is no sum of N degree-1 points)
    verdicts = []
    for P, D in _normality_instances():
        chk = is_normal(P, D)
        assert chk == naive_is_normal(P, D)
        verdicts.append(chk.ok)
    assert verdicts.count(False) == 5 and verdicts.count(True) == 7
    # the box guard is reached: 2P has a point outside twice the bounding
    # box of P's points
    P = from_graph(graphs.caterpillar_tree(6), (2,) * 6, 3)
    box = list(zip(*P.lattice_points(1)))
    assert any(not 2 * min(c) <= x <= 2 * max(c)
               for q in P.lattice_points(2) for x, c in zip(q, box))
    negative = with_full_lattice(quadrant(2, 2))
    assert min(map(min, negative.lattice_points(1))) < 0


# -- relation degree ------------------------------------------------------


def test_interval_relations_quadratic():
    cert = relation_degree(interval(3), 3, 4)
    assert cert.relation_degree == 2


def test_cubic_region_needs_degree_three():
    # [PAPER] the cubic-relation region requires a degree-3 generator; the
    # tight fiber is (4,4,4) in degree 3
    cert = relation_degree(trinode_cubic_region(), 3, 4)
    assert cert.relation_degree == 3
    assert any(n == 3 and b == (4, 4, 4) for n, b, d in cert.witnesses)


def dbl4():
    """The 4-leaf caterpillar with its internal edge doubled."""
    t4 = graphs.caterpillar_tree(4)
    internal = [i for i, (a, b) in enumerate(t4.edges)
                if t4.degree(a) == 3 and t4.degree(b) == 3]
    return graphs.double_edge_at(t4, internal[0])


def _relation_instances():
    yield from blocks_up_to_level_2()
    yield trinode_cubic_region()
    loop3 = graphs.add_loop_at_leaf(graphs.caterpillar_tree(3), 1)
    yield from_graph(loop3, (2, 2), 2)
    yield from_graph(dbl4(), (2, 2, 2, 2), 2)
    # larger fibers (up to 45 monomials on dbl4): the fiber order, and so
    # the witnesses' order, is that of monomials_by_image
    for g in (loop3, graphs.caterpillar_tree(6), dbl4()):
        yield from_graph(g, (2,) * g.n_leaves, 4)


def test_relation_degree_matches_pairwise_search():
    # lifted spanning trees give the same certificate as comparing every
    # pair of monomials, witnesses and minimal-relation counts included;
    # the three blocks that are not normal to degree 3 fail with
    # is_normal's witness
    certs, refused = [], 0
    for P in _relation_instances():
        chk = is_normal(P, 3)
        if not chk.ok:
            assert relation_degree(P, 3, 3) == \
                GenerationCertificate(None, (chk.witness,))
            refused += 1
            continue
        for move_max in (1, 2, 3):
            cert = relation_degree(P, move_max, 3)
            assert cert == naive_relation_degree(P, move_max, 3)
            if cert.relation_degree is not None:
                # the least generating degree is the highest degree holding
                # a minimal relation (1 when there is none)
                assert cert.relation_degree == max(
                    {1} | {N for N, k in cert.minimal_relations.items() if k})
            certs.append(cert)
    assert {None, 2, 3} <= {c.relation_degree for c in certs}
    assert any(c.minimal_relations[3] for c in certs)
    assert refused == 3


def test_lifted_spanning_tree_takes_light_edges_first():
    # u, v differ in 3 points but are joined through w by two exchanges of
    # size 2; lifted by the point 0, the tree keeps the two light edges.
    # Monomials are packed over 6 points, 3 bits each, point 0 on top.
    def pack(*points):
        return sum(1 << 3 * (5 - p) for p in points)

    u, v, w = pack(1, 2, 5), pack(3, 3, 3), pack(1, 3, 4)
    e = pack(0)
    fiber = sorted((m + e for m in (u, v, w)), reverse=True)
    lower = [[], [], [(u, w), (w, v)], [(u, v)]]
    tree = _lifted_spanning_tree(fiber, [(e, lower)], 4)
    assert [len(edges) for edges in tree] == [0, 0, 2, 0, 0]
    assert {m for edge in tree[2] for m in edge} == set(fiber)


@pytest.mark.parametrize("P, counts", [
    (lambda: from_graph(dbl4(), (2, 2, 2, 2), 4), {2: 336, 3: 0, 4: 0}),
    (lambda: from_graph(graphs.caterpillar_tree(6), (2,) * 6, 4),
     {2: 21, 3: 0, 4: 0}),
    (trinode_cubic_region, {2: 0, 3: 1, 4: 0}),
])
def test_minimal_relation_counts(P, counts):
    cert = relation_degree(P(), 4, 4)
    assert cert.minimal_relations == counts


def test_relation_degree_requires_normality(monkeypatch):
    # the prerequisite is is_normal's: a failure returns its (N, point)
    # witness before any fiber is built
    def no_fibers(*args):
        raise AssertionError("fibers built")

    monkeypatch.setattr(toric, "_next_fibers", no_fibers)
    # relation_degree builds its fibers through the patched function
    with pytest.raises(AssertionError, match="fibers built"):
        relation_degree(interval(3), 3, 4)
    for P, D in [
        (with_full_lattice(p3(1)), 4),
        (from_graph(graphs.enumerate_graphs(2, 1)[1], (0,), 3), 3),
        (from_graph(graphs.enumerate_graphs(0, 6)[0], (1,) * 6, 2), 3),
    ]:
        chk = is_normal(P, D)
        assert not chk.ok
        cert = relation_degree(P, 3, D)
        assert cert.relation_degree is None
        assert cert.witnesses == (chk.witness,)
        assert cert.minimal_relations == {}


def test_tree_like_relations_degree_bound():
    g = graphs.add_loop_at_leaf(graphs.caterpillar_tree(3), 1)
    cert = relation_degree(from_graph(g, (2, 2), 2), 3, 4)
    assert cert.relation_degree is not None
    assert cert.relation_degree <= 3


def test_degree_two_relations_q1():
    # [DERIVED] the first quadrant at L=1 has exactly one quadratic relation:
    # [1101][0001] = [0101][1001]
    P = quadrant(1, 1)
    order = sigma2_lex_order()
    rels = degree_two_relations(P, order)
    assert len(rels) == 1
    assert rels[0] == (((0, 0, 0, 1), (1, 1, 0, 1)),
                       ((0, 1, 0, 1), (1, 0, 0, 1)))


# -- quadratic square-free GB ---------------------------------------------


def test_gb_interval():
    assert quadratic_squarefree_gb(interval(3), sigma2_lex_order(), 4).ok


def test_gb_refuses_a_nonstandard_square():
    # weight -Σ² is concave: on [0, 2] the fiber of 1 + 1 = 0 + 2 has least
    # member (0, 2), so the square of the midpoint leads a binomial
    P = interval(2)
    order = TotalOrder(lambda p: (-sigma_squared(p), p))
    chk = quadratic_squarefree_gb(P, order, 3)
    assert chk == Check(False, {"reason": "square leading term",
                                "witness": ((1,), (1,))})
    p, q = chk.witness["witness"]
    assert p == q and p in P.lattice_points(1)


def test_gb_q1():
    assert quadratic_squarefree_gb(quadrant(1, 1), sigma2_lex_order(), 4).ok


def test_gb_relations_count_degree_two_relations():
    # [DERIVED] quadrics of the concatenation orders at L=4
    t4 = graphs.caterpillar_tree(4)
    internal = [i for i, (a, b) in enumerate(t4.edges)
                if t4.degree(a) == 3 and t4.degree(b) == 3]
    dbl4 = graphs.double_edge_at(t4, internal[0])
    for g, n in ((graphs.caterpillar_tree(6), 21), (dbl4, 336)):
        r = (2,) * g.n_leaves
        order, _ = boxtimes_assemble(g, r, 4)
        P = from_graph(g, r, 4)
        chk = quadratic_squarefree_gb(P, order, 3)
        assert chk.ok
        assert chk.witness["relations"] == n == \
            len(degree_two_relations(P, order))


def test_gb_fails_on_cubic_region():
    # [PAPER] the cubic-relation region has no quadratic GB: the standard
    # count deviates from the Hilbert function at N=3 (35 vs 34)
    P = trinode_cubic_region()
    chk = quadratic_squarefree_gb(P, sigma2_lex_order(P.transform_point), 3)
    assert not chk.ok
    assert chk.witness["degree"] == 3
    assert chk.witness["standard_count"] == 35
    assert chk.witness["hilbert"] == 34


def _assert_counts_match_search(pts, std2, D):
    ok_pair = {(p, q) for p in pts for q in pts
               if p <= q and (p, q) in std2}
    assert _pair_standard_counts(pts, std2, D) == {
        N: count_pair_standard_multisets(pts, ok_pair, N)
        for N in range(2, D + 1)}


def test_pair_standard_counts_match_multiset_search():
    # clique counts against the multiset search on the caterpillar's
    # concatenation order; at L=3 and L=5 the check fails in degree 2
    t4 = graphs.caterpillar_tree(4)
    internal = [i for i, (a, b) in enumerate(t4.edges)
                if t4.degree(a) == 3 and t4.degree(b) == 3]
    dbl4 = graphs.double_edge_at(t4, internal[0])
    cases = [(graphs.caterpillar_tree(6), L, D)
             for L, D in ((2, 4), (3, 4), (4, 4), (5, 3))] + [(dbl4, 3, 3)]
    for g, L, D in cases:
        order, _ = boxtimes_assemble(g, (2,) * g.n_leaves, L)
        P = from_graph(g, (2,) * g.n_leaves, L)
        std2 = standard_pairs(P, order)
        _assert_counts_match_search(list(P.lattice_points(1)), std2, D)
    # a hand-made standard-pair graph: the triangle 0-1-2 and the edge 2-3
    pts = [(i,) for i in range(5)]
    pairs = [(0, 0), (1, 1), (2, 2), (3, 3), (4, 4),
             (0, 1), (0, 2), (1, 2), (2, 3)]
    std2 = {(pts[i], pts[j]) for i, j in pairs}
    _assert_counts_match_search(pts, std2, 5)


def test_pair_standard_counts_match_networkx_cliques():
    # the GB check's standard counts, sum over k of f_k·C(N-1, k-1), against
    # the k-cliques f_k that networkx lists on the standard-pair graph
    import networkx as nx

    B = loop_b(2)
    x_to_base = BaseMap(((1, 0),), 1, interval(2))
    fp = fiber_product(B, x_to_base, B, x_to_base).polytope
    cases = [(interval(3), sigma2_lex_order()),
             (p3(2), sigma2_lex_order(p3(2).transform_point)),
             (quadrant(1, 2), sigma2_lex_order()),
             (fp, sigma2_lex_order(fp.transform_point))]
    # no points (odd leaf sum): no cliques and no counts
    cases.append((from_graph(graphs.caterpillar_tree(3), (1, 1, 1), 1),
                  sigma2_lex_order()))
    largest = []
    for P, order in cases:
        pts = list(P.lattice_points(1))
        std2 = standard_pairs(P, order)
        assert all((p, p) in std2 for p in pts)
        G = nx.Graph()
        G.add_nodes_from(pts)
        G.add_edges_from((p, q) for i, p in enumerate(pts)
                         for q in pts[i + 1:] if (p, q) in std2)
        f = Counter(len(c) for c in nx.enumerate_all_cliques(G))
        assert _pair_standard_counts(pts, std2, 4) == {
            N: sum(f[k] * comb(N - 1, k - 1) for k in range(1, N + 1))
            for N in range(2, 5)}
        largest.append(max(f, default=0))
    assert largest == [2, 4, 5, 4, 0]


def test_gb_count_mismatch_on_odd_level_caterpillar():
    # the degree-2 standard counts of cat6 at L=3 and L=5 fall one short
    g = graphs.caterpillar_tree(6)
    for L, short in ((3, (14, 15)), (5, (60, 61))):
        order, _ = boxtimes_assemble(g, (2,) * 6, L)
        chk = quadratic_squarefree_gb(from_graph(g, (2,) * 6, L), order, 3)
        assert chk == Check(False, {"reason": "count mismatch", "degree": 2,
                                    "standard_count": short[0],
                                    "hilbert": short[1]})


# -- theorem battery ------------------------------------------------------


def polypres_instances():
    """Criterion 2's tree-like instances, each with the degree it is checked
    to; all are checked at L=2."""
    loopy = graphs.add_loop_at_leaf(graphs.caterpillar_tree(3), 1)
    return [
        (graphs.caterpillar_tree(4), (1, 1, 1, 1), 4),
        (graphs.caterpillar_tree(4), (1, 1, 2, 2), 4),
        (graphs.caterpillar_tree(4), (2, 2, 2, 2), 4),
        (graphs.caterpillar_tree(5), (1, 1, 2, 1, 1), 4),
        (loopy, (2, 2), 4),
    ]


@pytest.mark.parametrize("g,r,dmax", polypres_instances())
def test_polypres(g, r, dmax):
    cert = verify_theorem("polypres", graph=g, r=r, level=2, dmax=dmax)
    assert cert.result
    assert cert.bounds == {"dmax": dmax, "moveMax": 3}
    assert cert.instance["relationDegree"] <= 3


def test_polypres_rejects_level_one():
    with pytest.raises(HypothesisViolated, match="L > 1"):
        verify_theorem("polypres", graph=graphs.caterpillar_tree(3),
                       r=(2, 2, 2), level=1)


@pytest.mark.parametrize("name", ["polypres", "polyquad", "d2bp"])
def test_empty_polytope_refused(name):
    # leaf sum 6 > 2L = 4: no degree-1 point, so every check would pass
    assert hilbert(from_graph(graphs.caterpillar_tree(3), (2, 2, 2), 2),
                   3) == (0, 0, 0, 0)
    with pytest.raises(HypothesisViolated, match="no degree-1 point"):
        verify_theorem(name, graph=graphs.caterpillar_tree(3), r=(2, 2, 2),
                       level=2)


def test_polypres_rejects_incompatible():
    with pytest.raises(HypothesisViolated):
        verify_theorem("polypres", graph=graphs.caterpillar_tree(4),
                       r=(1, 2, 1, 2), level=2)


def test_polyquad_instances():
    t4 = graphs.caterpillar_tree(4)
    internal = [i for i, (a, b) in enumerate(t4.edges)
                if t4.degree(a) == 3 and t4.degree(b) == 3]
    dg = graphs.double_edge_at(t4, internal[0])
    loopy = graphs.add_loop_at_leaf(graphs.caterpillar_tree(3), 1)
    for g, r in [(t4, (2, 2, 2, 2)), (dg, (2, 2, 2, 2)), (loopy, (2, 2))]:
        cert = verify_theorem("polyquad", graph=g, r=r, level=2, dmax=3)
        assert cert.result, cert.witnesses


def test_passing_checks_list_only_degree_one_points(monkeypatch):
    # scale guard: on a passing instance the GB check and is_normal count
    # dilations 2..D and list only the degree-1 points; polyquad on cat8
    # at L=4 to D=4 then takes hundredths of a second
    listed = set()
    real = polytopes.lattice_points

    def spy(P, N):
        listed.add(N)
        return real(P, N)

    monkeypatch.setattr(polytopes, "lattice_points", spy)
    g = graphs.caterpillar_tree(8)
    cert = verify_theorem("polyquad", graph=g, r=(2,) * 8, level=4, dmax=4)
    assert cert.result, cert.witnesses
    assert is_normal(from_graph(g, (2,) * 8, 4), 4).ok
    assert listed == {1}


def test_polyquad_rejects_odd_weights():
    with pytest.raises(HypothesisViolated):
        verify_theorem("polyquad", graph=graphs.caterpillar_tree(4),
                       r=(1, 1, 2, 2), level=2)


@pytest.mark.parametrize("L,detail", [
    (2, None), (4, None),
    (3, {"reason": "count mismatch", "degree": 2, "standard_count": 14,
         "hilbert": 15}),
    (5, {"reason": "count mismatch", "degree": 2, "standard_count": 60,
         "hilbert": 61})])
def test_polyquad_caterpillar6_odd_level_counterexamples(L, detail):
    # inside polyquad's hypotheses, yet the degree-2 GB count falls one
    # short at odd L: recorded counterexamples, not refusals
    cert = verify_theorem("polyquad", graph=graphs.caterpillar_tree(6),
                          r=(2,) * 6, level=L)
    assert cert.result is (detail is None)
    assert cert.witnesses == ([] if detail is None else [detail])


@pytest.mark.parametrize("g,r,L,witness", [
    (graphs.enumerate_graphs(2, 1)[1], (0,), 3, (2, (3, 6, 6, 3, 0))),
    (graphs.enumerate_graphs(0, 6)[0], (1,) * 6, 2, (2, (2,) * 9))])
def test_polypres_not_normal_counterexamples(g, r, L, witness):
    cert = verify_theorem("polypres", graph=g, r=r, level=L)
    assert not cert.result
    assert cert.witnesses == [witness]
    assert cert.instance["relationDegree"] is None


def test_invariance():
    cert = verify_theorem("invariance", genus=0, leaves=4,
                          r=(1, 1, 2, 2), level=2, nmax=3)
    assert cert.result
    assert cert.instance["nGraphs"] == 3
    assert cert.table == [1, 1, 1, 1]
    assert set(cert.timings) == {"graphs", "counts", "total"}


def test_invariance_genus_2_five_leaves():
    # the values of one count per graph
    cert = verify_theorem("invariance", genus=2, leaves=5, r=(2,) * 5,
                          level=4, nmax=3)
    assert cert.result
    assert cert.instance["nGraphs"] == 4725
    assert cert.table == [1, 765, 37125, 517881]


def test_invariance_failure_lists_every_graph_of_a_bumped_shape(monkeypatch):
    genus, leaves, r, L = 1, 4, (1, 1, 2, 2), 2
    gs = graphs.enumerate_graphs(genus, leaves)
    keys = [fusion_key(g, r) for g in gs]
    bumped = max(keys, key=keys.count)
    assert keys.count(bumped) > 1
    count = toric.hilbert_by_fusion

    def bump(g, r, L, Nmax):
        table = count(g, r, L, Nmax)
        if fusion_key(g, r) == bumped:
            table = table[:-1] + (table[-1] + 1,)
        return table

    monkeypatch.setattr(toric, "hilbert_by_fusion", bump)
    cert = verify_theorem("invariance", genus=genus, leaves=leaves, r=r,
                          level=L, nmax=3)
    assert not cert.result and cert.table is None
    [witness] = cert.witnesses
    tables = witness["tables"]
    assert len(tables) == len(gs)
    for g, key, table in zip(gs, keys, tables):
        right = hilbert(from_graph(g, r, L), 3)
        assert table == (right[:-1] + (right[-1] + 1,) if key == bumped
                         else right)


@pytest.mark.parametrize("nmax", [0, -1])
def test_invariance_rejects_dilation_bound_below_1(nmax):
    # no table below dilation 1 can show a degree-1 point
    with pytest.raises(HypothesisViolated, match=f"nmax = {nmax} must be >= 1"):
        verify_theorem("invariance", genus=0, leaves=4, r=(1, 1, 2, 2),
                       level=2, nmax=nmax)


def test_d2bp():
    cert = verify_theorem("d2bp", graph=graphs.caterpillar_tree(4),
                          r=(2, 2, 2, 2), level=2, dmax=3)
    assert cert.result


def test_d2bp_rejects_caterpillar_graph():
    g = graphs.add_loop_at_leaf(graphs.caterpillar_tree(3), 1)
    with pytest.raises(HypothesisViolated):
        verify_theorem("d2bp", graph=g, r=(2, 2), level=2)


def test_certificate_json():
    cert = verify_theorem("invariance", genus=1, leaves=1,
                          r=(2,), level=2, nmax=2)
    d = cert.to_json_dict()
    assert d["theorem"] == "invariance"
    assert d["result"] is True
    assert d["table"] == [1, 1, 1]
    import json

    json.dumps(d)
