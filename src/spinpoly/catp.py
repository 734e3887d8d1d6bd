"""The concatenation (boxtimes) order on an assembled graph polytope.

A graph polytope is the fiber product of its exploded components over the
intervals of their split edges (`polytopes.assemble`).  Each component
carries a total order, and folding them with the concatenation rule gives a
total order on the product, under which the Groebner-basis checks run.

Everything here is an empirical verifier: claims are checked exhaustively to
a degree bound and reported; nothing is proved symbolically.
"""

from .errors import HypothesisViolated
from .graphs import doubled_pairs, explode, validate
from .polytopes import assemble, require_degree_one_point
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
    """Assemble the graph polytope from its exploded components with interior
    evenness, and fold the component total orders with the concatenation
    rule.  Returns (order, Assembly); an assembly with no degree-1 point is
    refused, as every check on it would pass vacuously."""
    g = validate(g)
    eg = explode(g)
    assembly = assemble(eg, r, L, even_interior=True)
    comp_seq = []
    for ci, _, _ in assembly.coord_map:
        if ci not in comp_seq:
            comp_seq.append(ci)
    orders = {}
    dims = {}
    for ci, (frag, kind, P) in enumerate(assembly.components):
        orders[ci] = component_total_order(P, frag, kind)
        dims[ci] = P.dim
    acc = orders[comp_seq[0]]
    acc_dim = dims[comp_seq[0]]
    for ci in comp_seq[1:]:
        acc = boxtimes_order(acc, orders[ci], acc_dim)
        acc_dim += dims[ci]
    require_degree_one_point(assembly.polytope, r, L)
    return acc, assembly
