"""Independent brute-force oracles for the test suite.

Deliberately naive: box scans with no propagation or pruning, so results are
computed by a different route than the library's enumerator."""

from itertools import product


def naive_points(P, N, radius=None):
    """All lattice members of dilation N by scanning a box.

    radius defaults to N * (largest |rhs|) which encloses every polytope in
    this test suite (all are contained in such a box)."""
    if P.dim == 0:
        return [()]
    if radius is None:
        rhss = [abs(b) for _, b in P.inequalities] + \
               [abs(b) for _, b in P.equalities] + [1]
        radius = N * max(rhss)
    out = []
    for cand in product(range(-radius, radius + 1), repeat=P.dim):
        if any(sum(a * x for a, x in zip(row, cand)) > b * N
               for row, b in P.inequalities):
            continue
        if any(sum(a * x for a, x in zip(row, cand)) != b * N
               for row, b in P.equalities):
            continue
        if not P.lattice.contains(cand):
            continue
        out.append(cand)
    return sorted(out)


def naive_nonneg_points(P, N, radius=None):
    """Box scan over the nonnegative orthant only (for graph polytopes,
    whose coordinates are edge weights).  A coordinate pinned by a unit
    equality row (a leaf edge) takes only its pinned value."""
    if P.dim == 0:
        return [()]
    if radius is None:
        rhss = [abs(b) for _, b in P.inequalities] + \
               [abs(b) for _, b in P.equalities] + [1]
        radius = N * max(rhss)
    axes = [range(0, radius + 1)] * P.dim
    for row, b in P.equalities:
        if sorted(row) == [0] * (P.dim - 1) + [1]:
            axes[row.index(1)] = [b * N]
    out = []
    for cand in product(*axes):
        if any(sum(a * x for a, x in zip(row, cand)) > b * N
               for row, b in P.inequalities):
            continue
        if any(sum(a * x for a, x in zip(row, cand)) != b * N
               for row, b in P.equalities):
            continue
        if not P.lattice.contains(cand):
            continue
        out.append(cand)
    return sorted(out)
