"""Independent brute-force oracles for the test suite.

Deliberately naive: box scans with no propagation or pruning, so results are
computed by a different route than the library's enumerator."""

from itertools import combinations_with_replacement, permutations, product

from spinpoly.graphs import MarkedGraph, _connected, caterpillar_tree, validate


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


def naive_candidates(genus, n_leaves):
    """(combo, assign) for every connected candidate graph of the family, in
    the order the enumerator visits them: internal edge multisets in
    combinations_with_replacement order, then the maps leaf label ->
    internal vertex filling the free slots, in lexicographic order."""
    n_internal = 2 * genus + n_leaves - 2
    internal = list(range(n_internal))
    slots = [(i, j) for i in internal for j in internal[i:]]
    for combo in combinations_with_replacement(slots, 3 * genus + n_leaves - 3):
        deg = [0] * n_internal
        for i, j in combo:
            deg[i] += 1
            deg[j] += 1
        if any(d > 3 for d in deg):
            continue
        free = [3 - d for d in deg]
        for assign in _leaf_assignments(free, n_leaves):
            verts = list(internal) + [f"leaf{k}" for k in range(1, n_leaves + 1)]
            edges = list(combo) + [
                (assign[k - 1], f"leaf{k}") for k in range(1, n_leaves + 1)
            ]
            if _connected(tuple(verts), edges):
                yield combo, assign


def naive_enumerate_graphs(genus, n_leaves):
    """enumerate_graphs by brute force: the first candidate of each
    isomorphism class, classes told apart by the n! canonical key."""
    n_internal = 2 * genus + n_leaves - 2
    if n_internal <= 0:
        return [caterpillar_tree(2)] if (genus, n_leaves) == (0, 2) else []
    verts = tuple(range(n_internal)) + tuple(f"leaf{k}" for k in range(1, n_leaves + 1))
    leaves = tuple((k, f"leaf{k}") for k in range(1, n_leaves + 1))
    seen = set()
    out = []
    for combo, assign in naive_candidates(genus, n_leaves):
        key = naive_canonical_key(n_internal, combo, assign)
        if key in seen:
            continue
        seen.add(key)
        edges = tuple(combo) + tuple(
            (assign[k - 1], f"leaf{k}") for k in range(1, n_leaves + 1))
        out.append(validate(MarkedGraph(verts, edges, leaves)))
    return out


def _leaf_assignments(free, n_leaves):
    """All maps leaf label -> internal vertex exactly filling the free slots."""
    def rec(label, free):
        if label > n_leaves:
            yield ()
            return
        for v, f in enumerate(free):
            if f > 0:
                free2 = list(free)
                free2[v] -= 1
                for rest in rec(label + 1, free2):
                    yield (v,) + rest

    return rec(1, list(free))


def naive_canonical_key(n, combo, assign):
    """The least (edges, att) relabelling over all n! vertex permutations."""
    best = None
    for perm in permutations(range(n)):
        edges = tuple(sorted(tuple(sorted((perm[i], perm[j]))) for i, j in combo))
        att = tuple(perm[v] for v in assign)
        key = (edges, att)
        if best is None or key < best:
            best = key
    return best
