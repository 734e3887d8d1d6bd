"""The concatenation (boxtimes) order on a graph polytope.

A graph polytope is the fiber product of its exploded components over the
intervals of their split edges (`polytopes.assemble`).  Each component
carries a total order on its own points, and the concatenation rule folds
them, in the assembly's fold sequence, into a total order on the graph
polytope's points: a point reads each component on that component's edges.
The Groebner-basis checks run on the graph polytope under that order.

Everything here is an empirical verifier: claims are checked exhaustively to
a degree bound and reported; nothing is proved symbolically.
"""

from .errors import HypothesisViolated
from .graphs import doubled_pairs, explode, validate
from .polytopes import assemble, from_graph, require_degree_one_point
from .termorders import b2_cascade_order, boxtimes_order, sigma2_lex_order


def component_total_order(P, frag, kind):
    """Total order for an exploded component of block kind `kind`: a
    `loop_b2` block gets the (x,z,A,B) cascade, any other fragment without a
    doubled pair Σ² + lex on lattice coordinates."""
    if kind == "loop_b2":
        return b2_cascade_order(P.transform_point)
    if doubled_pairs(frag.edges):
        raise HypothesisViolated(
            f"a {len(frag.edges)}-edge fragment with a doubled pair is not a "
            f"loop_b2 block: no total order is known for it")
    return sigma2_lex_order(P.transform_point)


def boxtimes_assemble(g, r, L):
    """Explode g into components with even cut edges, and fold their total
    orders with the concatenation rule into an order on the points of
    from_graph(g, r, L): entry(p) = (Σ w_c, (k_c, ...)), component c read
    on its edges, the components in the assembly's fold sequence.  Returns
    (order, Assembly).

    A cut edge of odd weight is refused, as a component's lattice map halves
    it; so is a polytope with no degree-1 point, as every check on it would
    pass vacuously."""
    g = validate(g)
    eg = explode(g)
    assembly = assemble(eg, r, L, even_interior=True)
    parts = []
    for c in assembly.sequence:
        frag, kind, Pc = assembly.components[c]
        parts.append((component_total_order(Pc, frag, kind),
                      frag.original_edges))
    P = from_graph(g, r, L)
    pts = P.lattice_points(1)
    for e, _, _ in eg.split_edges:
        if any(p[e] % 2 for p in pts):
            raise HypothesisViolated(
                f"cut edge {e} {g.edges[e]} has odd weight at r={list(r)}: "
                f"its components read it halved")
    require_degree_one_point(P, r, L)
    return boxtimes_order(parts), assembly
