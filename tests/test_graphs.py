from functools import lru_cache
from itertools import combinations
import json
import re

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinpoly import graphs
from spinpoly.catp import boxtimes_assemble
from spinpoly.errors import (
    BadLeafLabels,
    BoundsTooLarge,
    Disconnected,
    HypothesisViolated,
    InvalidParams,
    LengthMismatch,
    NonTrivalent,
)
from spinpoly.graphs import GraphClass
from spinpoly.polytopes import from_graph

from helpers import (
    keyed_enumerate_graphs,
    loop_with_leaf,
    naive_candidates,
    naive_canonical_key,
    naive_enumerate_graphs,
    naive_swap_makes_smaller,
    reglue,
)


def theta_graph():
    return graphs.MarkedGraph(
        ("u", "v"), (("u", "v"), ("u", "v"), ("u", "v")), ()
    )


def test_validate_loop_with_leaf():
    g = loop_with_leaf()
    assert g.genus == 1
    assert g.n_leaves == 1


def test_validate_four_leaf_tree():
    g = graphs.caterpillar_tree(4)
    assert g.genus == 0
    assert g.n_leaves == 4
    assert len(g.internal_vertices) == 2


def test_validate_rejects_degree_four():
    g = {
        "vertices": ["a", "l1", "l2", "l3", "l4"],
        "edges": [["a", "l1"], ["a", "l2"], ["a", "l3"], ["a", "l4"]],
        "leaves": {"1": "l1", "2": "l2", "3": "l3", "4": "l4"},
    }
    with pytest.raises(NonTrivalent):
        graphs.validate(g)


def test_validate_rejects_disconnected():
    g = {
        "vertices": ["a", "b", "c", "d"],
        "edges": [["a", "b"], ["c", "d"]],
        "leaves": {"1": "a", "2": "b", "3": "c", "4": "d"},
    }
    with pytest.raises(Disconnected):
        graphs.validate(g)


def test_validate_rejects_bad_labels():
    g = {
        "vertices": ["a", "b"],
        "edges": [["a", "b"]],
        "leaves": {"1": "a", "3": "b"},
    }
    with pytest.raises(BadLeafLabels):
        graphs.validate(g)


def test_marked_graph_is_valid_by_construction():
    with pytest.raises(NonTrivalent):
        graphs.MarkedGraph(("a", "l1", "l2"), (("a", "l1"), ("a", "l2")),
                           ((1, "l1"), (2, "l2")))
    g = graphs.caterpillar_tree(4)
    assert graphs.validate(g) is g


def test_json_roundtrip():
    g = graphs.caterpillar_tree(5)
    again = graphs.graph_from_json(json.dumps(g.to_json_dict()))
    assert again == g


def test_classify_caterpillar_tree():
    assert graphs.classify(graphs.caterpillar_tree(4)) == GraphClass.CATERPILLAR_TREE
    assert graphs.classify(graphs.caterpillar_tree(6)) == GraphClass.CATERPILLAR_TREE


def test_classify_snowflake_is_tree_like_not_caterpillar():
    # central trinode joined to three trinodes each carrying two leaves:
    # the center touches no leaf
    g = {
        "vertices": ["c", "a", "b", "d"] + [f"l{i}" for i in range(1, 7)],
        "edges": [["c", "a"], ["c", "b"], ["c", "d"],
                  ["a", "l1"], ["a", "l2"], ["b", "l3"], ["b", "l4"],
                  ["d", "l5"], ["d", "l6"]],
        "leaves": {str(i): f"l{i}" for i in range(1, 7)},
    }
    assert graphs.classify(g) == GraphClass.TREE_LIKE


def test_classify_loop_with_leaf_prefers_caterpillar():
    # both a caterpillar graph (loop at a head leaf) and tree-like;
    # precedence picks the caterpillar class
    assert graphs.classify(loop_with_leaf()) == GraphClass.CATERPILLAR_GRAPH


def test_classify_doubled_edge_caterpillar():
    t4 = graphs.caterpillar_tree(4)
    internal = [i for i, (a, b) in enumerate(t4.edges)
                if t4.degree(a) == 3 and t4.degree(b) == 3]
    dg = graphs.double_edge_at(t4, internal[0])
    assert dg.genus == 1
    assert graphs.classify(dg) == GraphClass.CATERPILLAR_GRAPH


def test_classify_theta_other():
    assert graphs.classify(theta_graph()) == GraphClass.OTHER_TRIVALENT


def test_classify_dumbbell_tree_like():
    # two loop vertices joined through a 2-leaf... no: loops at both leaves of
    # the 2-leaf tree -> genus 2 dumbbell, tree-like
    g = graphs.add_loop_at_leaf(graphs.add_loop_at_leaf(graphs.caterpillar_tree(2), 1), 1)
    assert g.genus == 2 and g.n_leaves == 0
    assert graphs.classify(g) == GraphClass.TREE_LIKE


def test_compatibility():
    t4 = graphs.caterpillar_tree(4)
    assert graphs.is_compatible(t4, (1, 1, 2, 2))
    assert not graphs.is_compatible(t4, (1, 2, 1, 2))
    assert graphs.is_compatible(t4, (2, 2, 4, 0))
    with pytest.raises(LengthMismatch):
        graphs.is_compatible(t4, (1, 1))


def test_explode_four_leaf_tree():
    eg = graphs.explode(graphs.caterpillar_tree(4))
    assert len(eg.components) == 2
    assert len(eg.split_edges) == 1
    for frag in eg.components:
        assert len(frag.leaves) == 2
        assert len(frag.stub_edges) == 1


def test_explode_loop_with_leaf_no_splits():
    eg = graphs.explode(loop_with_leaf())
    assert len(eg.components) == 1
    assert eg.split_edges == ()


def test_explode_tree_like_g1_n2():
    g = graphs.add_loop_at_leaf(graphs.caterpillar_tree(3), 1)
    eg = graphs.explode(g)
    shapes = sorted((len(f.edges), len(f.stub_edges), len(f.leaves))
                    for f in eg.components)
    assert shapes == [(2, 1, 0), (3, 1, 2)]  # loop-with-edge + trinode


def test_doubled_pairs():
    t4 = graphs.caterpillar_tree(4)
    internal = [i for i, (a, b) in enumerate(t4.edges)
                if t4.degree(a) == 3 and t4.degree(b) == 3]
    dbl4 = graphs.double_edge_at(t4, internal[0])
    theta = graphs.enumerate_graphs(2, 0)[1]
    assert theta.edges == ((0, 1),) * 3
    assert graphs.doubled_pairs(theta.edges) == []  # a tripled pair is none
    assert graphs.doubled_pairs(loop_with_leaf().edges) == []
    assert graphs.doubled_pairs(dbl4.edges) == [(5, 6)]
    g = graphs.enumerate_graphs(2, 1)[2]
    (frag,) = [f for f in graphs.explode(g).components if len(f.edges) == 5]
    assert graphs.doubled_pairs(frag.edges) == [(0, 1)]
    # the pair is refused outside a loop_b2 block, in the same words
    with pytest.raises(HypothesisViolated, match=re.escape(
            "a 5-edge fragment with a doubled pair is not a loop_b2 block: "
            "no total order is known for it")):
        boxtimes_assemble(g, (2,), 2)


BRIDGE_FAMILIES = [(0, n) for n in range(3, 7)] + [(1, n) for n in range(1, 5)] \
    + [(2, n) for n in range(4)]


@pytest.mark.parametrize("genus,n", BRIDGE_FAMILIES)
def test_bridges_skip_loops_and_parallel_edges(genus, n):
    # networkx decides which edges separate the multigraph
    for g in graphs.enumerate_graphs(genus, n):
        bridges = graphs._bridges(g)
        ends = [frozenset(e) for e in g.edges]
        for i in bridges:
            a, b = g.edges[i]
            assert a != b and ends.count(ends[i]) == 1
        for i in range(len(g.edges)):
            G = _nx_graph(g)
            G.remove_edge(*g.edges[i])
            assert (i in bridges) == (not nx.is_connected(G))


def test_explode_reglue_identity():
    for g in [graphs.caterpillar_tree(4), graphs.caterpillar_tree(5),
              graphs.add_loop_at_leaf(graphs.caterpillar_tree(3), 1),
              loop_with_leaf()]:
        back = reglue(graphs.explode(g))
        assert sorted(map(sorted, map(lambda e: list(map(str, e)), back.edges))) == \
            sorted(map(sorted, map(lambda e: list(map(str, e)), g.edges)))
        assert back.leaves == g.leaves


@pytest.mark.parametrize("genus,n,count", [
    (0, 3, 1),
    (0, 4, 3),
    (0, 5, 15),
    (0, 6, 105),
    (1, 1, 1),
    (1, 2, 2),
    (1, 3, 7),
    (1, 4, 39),
    (1, 5, 297),
    (2, 0, 2),
    (2, 1, 3),
    (2, 2, 10),
    (2, 3, 58),
    (1, 6, 2865),
    (2, 4, 465),
    (2, 5, 4725),
])
def test_enumerate_counts(genus, n, count):
    gs = graphs.enumerate_graphs(genus, n)
    assert len(gs) == count
    for g in gs:
        assert g.genus == genus
        assert g.n_leaves == n


def test_enumerate_bounds():
    with pytest.raises(BoundsTooLarge):
        graphs.enumerate_graphs(3, 0)
    with pytest.raises(BoundsTooLarge):
        graphs.enumerate_graphs(0, 7)


def test_enumerate_rejects_negative_bounds():
    with pytest.raises(InvalidParams):
        graphs.enumerate_graphs(-1, 4)
    with pytest.raises(InvalidParams):
        graphs.enumerate_graphs(0, -1)
    assert graphs.enumerate_graphs(1, 0) == []


@pytest.mark.parametrize("genus,n", [(0, n) for n in range(2, 7)]
                         + [(1, n) for n in range(5)] + [(2, n) for n in range(3)])
def test_enumerate_matches_naive(genus, n):
    # same graphs in the same order as the n!-key brute force
    assert graphs.enumerate_graphs(genus, n) == naive_enumerate_graphs(genus, n)


@pytest.mark.parametrize("genus,n", [(1, 5), (2, 3)])
def test_enumerate_matches_keyed_oracle(genus, n):
    # same graphs in the same order as a key per multiset and per assignment
    assert graphs.enumerate_graphs(genus, n) == keyed_enumerate_graphs(genus, n)


@pytest.mark.parametrize("genus,n", [(2, 4), (1, 5)])
def test_swap_test_matches_relabelling_oracle(genus, n, monkeypatch):
    # every prefix the orderly walk tests gets the answer of relabelling it
    # under each swap of two vertices
    test, n_internal, seen = graphs._swap_makes_smaller, 2 * genus + n - 2, []

    def checked(swaps, combo):
        smaller = test(swaps, combo)
        assert smaller == naive_swap_makes_smaller(n_internal, combo), combo
        seen.append(smaller)
        return smaller

    monkeypatch.setattr(graphs, "_swap_makes_smaller", checked)
    graphs.enumerate_graphs(genus, n)
    assert True in seen and False in seen


def _nx_graph(g):
    G = nx.MultiGraph()
    leaf_of = {v: lab for lab, v in g.leaves}
    G.add_nodes_from((v, {"leaf": leaf_of.get(v, 0)}) for v in g.vertices)
    G.add_edges_from(g.edges)
    return G


@pytest.mark.parametrize("genus,n", [(0, 6), (1, 4), (2, 3)])
def test_enumerate_no_two_isomorphic(genus, n):
    # networkx decides isomorphism fixing leaf labels; hashes bucket the pairs
    buckets = {}
    for g in graphs.enumerate_graphs(genus, n):
        G = _nx_graph(g)
        h = nx.weisfeiler_lehman_graph_hash(nx.Graph(G), node_attr="leaf")
        buckets.setdefault(h, []).append(G)
    for bucket in buckets.values():
        for G, H in combinations(bucket, 2):
            assert not nx.is_isomorphic(
                G, H, node_match=lambda a, b: a["leaf"] == b["leaf"])


KEY_FAMILIES = [(0, 4), (0, 5), (1, 2), (1, 3), (1, 4), (2, 1), (2, 2)]


@lru_cache(maxsize=None)
def _candidates(genus, n):
    """The candidates of the family, and the same grouped by n!-key class."""
    cands = list(naive_candidates(genus, n))
    classes = {}
    for c in cands:
        classes.setdefault(naive_canonical_key(2 * genus + n - 2, *c), []).append(c)
    return cands, classes


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_key_invariant_under_relabelling(data):
    genus, n = data.draw(st.sampled_from(KEY_FAMILIES))
    n_internal = 2 * genus + n - 2
    combo, assign = data.draw(st.sampled_from(_candidates(genus, n)[0]))
    perm = data.draw(st.permutations(range(n_internal)))
    # relabel the vertices, reorder the edges and flip some of them
    moved = data.draw(st.permutations([(perm[i], perm[j]) for i, j in combo]))
    flips = data.draw(st.lists(st.booleans(), min_size=len(moved), max_size=len(moved)))
    moved = tuple((b, a) if f else (a, b) for (a, b), f in zip(moved, flips))
    assert graphs._canonical_key(n_internal, moved, tuple(perm[v] for v in assign)) == \
        graphs._canonical_key(n_internal, combo, assign)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_key_agrees_with_naive_key(data):
    genus, n = data.draw(st.sampled_from(KEY_FAMILIES))
    n_internal = 2 * genus + n - 2
    cands, classes = _candidates(genus, n)
    a = data.draw(st.sampled_from(cands))
    # half the draws take b from a's isomorphism class
    pool = classes[naive_canonical_key(n_internal, *a)] \
        if data.draw(st.booleans()) else cands
    b = data.draw(st.sampled_from(pool))
    same_new = graphs._canonical_key(n_internal, *a) == graphs._canonical_key(n_internal, *b)
    same_old = naive_canonical_key(n_internal, *a) == naive_canonical_key(n_internal, *b)
    assert same_new == same_old


def test_degree_sum_accounting():
    for g in graphs.enumerate_graphs(1, 2):
        assert sum(g.degree(v) for v in g.vertices) == 2 * len(g.edges)


def test_interior_edges_even_for_compatible_weights():
    # for compatible (g, r) every non-leaf non-loop edge weight is even
    cases = [
        (graphs.caterpillar_tree(4), (1, 1, 2, 2)),
        (graphs.caterpillar_tree(4), (1, 1, 1, 1)),
        (graphs.add_loop_at_leaf(graphs.caterpillar_tree(3), 1), (2, 2)),
        (graphs.caterpillar_tree(5), (1, 1, 2, 1, 1)),
    ]
    for g, r in cases:
        assert graphs.is_compatible(g, r)
        P = from_graph(g, r, 3)
        leaf_edges = {g.leaf_edge_index(lab) for lab, _ in g.leaves}
        loops = {i for i, (a, b) in enumerate(g.edges) if a == b}
        for N in (1, 2):
            for pt in P.lattice_points(N):
                for i, w in enumerate(pt):
                    if i not in leaf_edges and i not in loops:
                        assert w % 2 == 0


def test_odd_leaf_edges_even_on_every_point():
    g = graphs.caterpillar_tree(4)
    P = from_graph(g, (1, 1, 2, 2), 2)
    leaf_edges = [g.leaf_edge_index(lab) for lab, _ in g.leaves]
    for pt in P.lattice_points(3):
        assert sum(1 for i in leaf_edges if pt[i] % 2) % 2 == 0
