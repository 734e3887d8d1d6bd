"""Weighted polytopes as a category: morphisms preserve standard monomials,
fiber products carry the sum weight, and the concatenation (boxtimes) order
makes products of totally ordered factors total again.

Everything here is an empirical verifier: claims are checked exhaustively to
a degree bound and reported; nothing is proved symbolically.
"""

from dataclasses import dataclass

from .errors import (
    HypothesisViolated,
    NonUniqueBase,
    NotAPolytopeMap,
)
from .graphs import doubled_pairs, explode, validate
from .polytopes import assemble, fiber_product, require_degree_one_point
from .termorders import (
    Check,
    b2_cascade_order,
    boxtimes_order,
    has_unique_standard_monomials,
    initial_complex_maximal_faces,
    monomials_by_image,
    sigma2_lex_order,
    standard_monomials,
    _fiber_minima,
)


@dataclass
class WeightedPolytope:
    polytope: object
    order: object  # TermWeight or TotalOrder


@dataclass
class Morphism:
    map: object  # LatticeMap
    source: WeightedPolytope
    target: WeightedPolytope
    verified_degree: int


def _image_monomial(lmap, m):
    return tuple(sorted(lmap.apply(p) for p in m))


def check_morphism(lmap, source, target, D):
    """Verify that lmap carries the source polytope into the target and that
    standard monomials map to standard monomials, up to degree D.  The
    witness is the Morphism, or on failure the least standard monomial whose
    image is not standard."""
    tgt_pts = set(target.polytope.lattice_points(1))
    for p in source.polytope.lattice_points(1):
        if lmap.apply(p) not in tgt_pts:
            raise NotAPolytopeMap(f"{p} maps outside the target")
    for N in range(2, D + 1):
        std_t = standard_monomials(target.polytope, target.order, N)
        for m in sorted(standard_monomials(source.polytope, source.order, N)):
            if _image_monomial(lmap, m) not in std_t:
                return Check(False, m)
    return Check(True, Morphism(lmap, source, target, D))


def sum_weight(o1, o2, split):
    """The weight Σ1 ⊕ Σ2 on concatenated coordinates."""
    from .termorders import TermWeight

    return TermWeight(lambda p: o1.weight(p[:split]) + o2.weight(p[split:]),
                      "sum")


def split_monomial(fp, m):
    return (tuple(sorted(p[: fp.offset] for p in m)),
            tuple(sorted(p[fp.offset:] for p in m)))


def product_standard_characterization(fp, o1, o2, D):
    """Check: a fiber-product monomial is (Σ1⊕Σ2)-standard iff both of its
    projections are standard, for degrees 2..D."""
    order = sum_weight(o1, o2, fp.offset)
    for N in range(2, D + 1):
        std1 = standard_monomials(fp.p1, o1, N)
        std2 = standard_monomials(fp.p2, o2, N)
        for b, fiber in monomials_by_image(fp.polytope, N).items():
            minima = set(_fiber_minima(fiber, order))
            for m in fiber:
                l, r = split_monomial(fp, m)
                predicted = l in std1 and r in std2
                if predicted != (m in minima):
                    return Check(False, m)
    return Check(True)


def fiber_product_object(m1, m2, D):
    """Fiber product of weighted polytopes over a common base with unique
    standard monomials; carries the sum weight.  Returns (WeightedPolytope,
    FiberProduct record)."""
    if m1.target is not m2.target and m1.target.polytope != m2.target.polytope:
        raise NonUniqueBase("morphisms must share a target")
    base = m1.target
    if not has_unique_standard_monomials(base.polytope, base.order, D):
        raise NonUniqueBase(f"base lacks unique standard monomials to {D}")
    fp = fiber_product(m1.source.polytope, m1.map, m2.source.polytope, m2.map)
    chk = product_standard_characterization(fp, m1.source.order,
                                            m2.source.order, D)
    if not chk.ok:
        raise NonUniqueBase(
            f"standard-monomial characterization failed at {chk.witness}")
    return WeightedPolytope(fp.polytope, sum_weight(
        m1.source.order, m2.source.order, fp.offset)), fp


def verify_flag_product_faces(fp, o1, o2, D):
    """Check that every maximal face of the product initial complex is the
    glue of maximal faces of the factors; the witness is the least face, as
    a sorted list of points, that is not."""
    order = sum_weight(o1, o2, fp.offset)
    faces1 = initial_complex_maximal_faces(fp.p1, o1, D)
    faces2 = initial_complex_maximal_faces(fp.p2, o2, D)
    pts = set(fp.polytope.lattice_points(1))
    for S in sorted(map(sorted, initial_complex_maximal_faces(
            fp.polytope, order, D))):
        S1 = {p[: fp.offset] for p in S}
        S2 = {p[fp.offset:] for p in S}
        if not any(set(S) == {p for p in pts
                              if p[: fp.offset] in a and p[fp.offset:] in b}
                   for a in faces1 if S1 <= a for b in faces2 if S2 <= b):
            return Check(False, S)
    return Check(True)


def _single_support_row(trans, coord):
    """Index of a transform row supported exactly on `coord`, or None."""
    if trans is None:
        return None
    for k, row in enumerate(trans.rows):
        if row[coord] != 0 and all(c == 0 for j, c in enumerate(row) if j != coord):
            return k
    return None


def verify_double_weight_equivalence(fp, D):
    """Standard monomials under the doubled weight Σ²⊕Σ² (each glued
    coordinate counted in both factors) agree with plain Σ² (counted once),
    to degree D.  Uses the product's lattice-coordinate transform."""
    P = fp.polytope
    trans = P.to_lattice
    glue_rows = []
    for i, j in fp.glued_pairs:
        k = _single_support_row(trans, j)
        if k is None:
            return Check(False, "no coordinate row for glued pair")
        glue_rows.append(k)

    def doubled(p):
        t = P.transform_point(p)
        return sum(x * x for x in t)

    def plain(p):
        t = P.transform_point(p)
        return sum(x * x for x in t) - sum(t[k] * t[k] for k in glue_rows)

    from .termorders import TermWeight

    w2, w1 = TermWeight(doubled, "sigma2-doubled"), TermWeight(plain, "sigma2")
    for N in range(2, D + 1):
        if standard_monomials(P, w2, N) != standard_monomials(P, w1, N):
            return Check(False, N)
    return Check(True)


def boxtimes_object(m1, m2, D):
    """Fiber product carrying the concatenation total order; NotTotal unless
    both component orders are total."""
    base = m1.target
    if not has_unique_standard_monomials(base.polytope, base.order, D):
        raise NonUniqueBase(f"base lacks unique standard monomials to {D}")
    fp = fiber_product(m1.source.polytope, m1.map, m2.source.polytope, m2.map)
    order = boxtimes_order(m1.source.order, m2.source.order, fp.offset)
    return WeightedPolytope(fp.polytope, order), fp


# -- assembled caterpillar orders ----------------------------------------


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
    rule.  Returns (WeightedPolytope, Assembly); an assembly with no degree-1
    point is refused, as every check on it would pass vacuously."""
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
    return WeightedPolytope(assembly.polytope, acc), assembly
