"""Trivalent marked graphs: validation, classification, explosion, enumeration.

A marked graph is a connected trivalent multigraph (loops and parallel edges
allowed) with its degree-1 vertices labeled 1..n.  These are the spin-diagram
skeletons whose edge weightings the polytope modules enumerate.
"""

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from itertools import chain, permutations, product
import json

from .errors import (
    BadLeafLabels,
    BoundsTooLarge,
    Disconnected,
    InvalidParams,
    LengthMismatch,
    NonTrivalent,
)


class GraphClass(Enum):
    CATERPILLAR_TREE = "caterpillar_tree"
    CATERPILLAR_GRAPH = "caterpillar_graph"
    TREE_LIKE = "tree_like"
    OTHER_TRIVALENT = "other_trivalent"


class _Incidence:
    """Incidence reads shared by marked graphs and their fragments, which
    hold `vertices`, `edges` (unordered pairs; a loop (v, v) counts twice at
    v) and `leaves` ((label, vertex) pairs sorted by label).  Every vertex
    has degree 1 or 3."""

    @property
    def leaf_map(self):
        return dict(self.leaves)

    def degree(self, v):
        return sum((a == v) + (b == v) for a, b in self.edges)

    def incident_edges(self, v):
        """Edge indices at v, loops listed twice."""
        out = []
        for i, (a, b) in enumerate(self.edges):
            if a == v:
                out.append(i)
            if b == v:
                out.append(i)
        return out

    def leaf_edge_index(self, label):
        return self.incident_edges(self.leaf_map[label])[0]

    @property
    def internal_vertices(self):
        """The trivalent vertices, in vertex order."""
        ends = Counter(chain.from_iterable(self.edges))
        return tuple(v for v in self.vertices if ends[v] != 1)


@dataclass(frozen=True)
class MarkedGraph(_Incidence):
    """Connected trivalent multigraph with labeled degree-1 leaves.

    edges are unordered pairs; a loop is encoded as (v, v) and contributes 2
    to the degree of v.  leaves is a tuple of (label, vertex) pairs sorted by
    label; labels are 1..n.  Construction checks all of this, so every
    MarkedGraph is valid.
    """

    vertices: tuple
    edges: tuple
    leaves: tuple

    def __post_init__(self):
        if not self.vertices:
            raise Disconnected("empty graph")
        vset = set(self.vertices)
        if len(vset) != len(self.vertices):
            raise BadLeafLabels("duplicate vertex identifiers")
        for a, b in self.edges:
            if a not in vset or b not in vset:
                raise BadLeafLabels(f"edge ({a!r},{b!r}) uses unknown vertex")

        labels = [k for k, _ in self.leaves]
        if labels != list(range(1, len(labels) + 1)):
            raise BadLeafLabels(f"labels {labels} are not 1..n")
        lmap = dict(self.leaves)
        if len(set(lmap.values())) != len(lmap):
            raise BadLeafLabels("a vertex carries two leaf labels")

        nbrs = _neighbours(self.vertices, self.edges)
        deg1 = {v for v in self.vertices if len(nbrs[v]) == 1}
        if set(lmap.values()) != deg1:
            raise BadLeafLabels(
                f"labels cover {sorted(map(str, lmap.values()))}, degree-1 "
                f"vertices are {sorted(map(str, deg1))}"
            )
        for v in self.vertices:
            if v not in deg1 and len(nbrs[v]) != 3:
                raise NonTrivalent(f"vertex {v!r} has degree {len(nbrs[v])}")

        if len(_reach(nbrs, self.vertices[0])) != len(self.vertices):
            raise Disconnected("graph is not connected")

    @property
    def n_leaves(self):
        return len(self.leaves)

    @property
    def genus(self):
        # first Betti number of a connected graph
        return len(self.edges) - len(self.vertices) + 1

    def to_json_dict(self):
        return {
            "vertices": list(self.vertices),
            "edges": [list(e) for e in self.edges],
            "leaves": {str(k): v for k, v in self.leaves},
        }


def validate(raw):
    """The MarkedGraph `raw` describes: a MarkedGraph, returned as it is, or
    a dict with keys "vertices", "edges", "leaves" (the JSON interchange
    shape; leaf labels may be strings), checked as it is built.
    """
    if isinstance(raw, MarkedGraph):
        return raw
    return MarkedGraph(
        tuple(raw["vertices"]),
        tuple(tuple(e) for e in raw["edges"]),
        tuple(sorted((int(k), v) for k, v in dict(raw["leaves"]).items())))


def weighted_graph(g, r):
    """g validated, with one leaf weight in r per leaf."""
    g = validate(g)
    if len(r) != g.n_leaves:
        raise LengthMismatch(f"{len(r)} weights for {g.n_leaves} leaves")
    return g


def _neighbours(vertices, edges):
    """v -> the far end of each edge end at v, in edge order (a loop gives v
    twice), so len(nbrs[v]) is the degree of v."""
    nbrs = {v: [] for v in vertices}
    for a, b in edges:
        nbrs[a].append(b)
        nbrs[b].append(a)
    return nbrs


def _reach(nbrs, start):
    """The set of vertices joined to `start` in the neighbour map `nbrs`."""
    seen = {start}
    stack = [start]
    while stack:
        for w in nbrs[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def _connected(vertices, edges):
    return bool(vertices) and \
        len(_reach(_neighbours(vertices, edges), vertices[0])) == len(vertices)


def doubled_pairs(edges):
    """Index pairs of the doubled edges: non-loop edges whose end pair
    occurs exactly twice (a tripled pair is none), in order of first
    occurrence."""
    at = {}
    for i, (a, b) in enumerate(edges):
        if a != b:
            at.setdefault(frozenset((a, b)), []).append(i)
    return [tuple(ix) for ix in at.values() if len(ix) == 2]


def graph_from_json(text):
    return validate(json.loads(text))


# -- classification ---------------------------------------------------------


def _is_trivalent_tree(vertices, edges):
    """Tree with all degrees in {1, 3} (degree-0 single vertex rejected)."""
    if len(edges) != len(vertices) - 1:
        return False
    nbrs = _neighbours(vertices, edges)
    return all(len(ws) in (1, 3) for ws in nbrs.values()) and \
        len(_reach(nbrs, vertices[0])) == len(vertices)


def _is_caterpillar_tree(vertices, edges):
    """Trivalent tree in which every vertex is adjacent to some degree-1
    vertex (spine vertices all touch leaves)."""
    if not _is_trivalent_tree(vertices, edges):
        return False
    if len(vertices) == 2:
        return True  # single edge between two leaves
    nbrs = _neighbours(vertices, edges)
    return all(len(ws) == 1 or any(len(nbrs[w]) == 1 for w in ws)
               for ws in nbrs.values())


def _loop_indices(g):
    return [i for i, (a, b) in enumerate(g.edges) if a == b]


def _paired_leaves(vertices, edges):
    """The degree-1 vertices of a caterpillar tree whose neighbour has
    another degree-1 neighbour (the leaves at its head and tail); both ends
    of a single edge."""
    if len(vertices) == 2 and len(edges) == 1:
        return set(vertices)
    nbrs = _neighbours(vertices, edges)
    leaves = {v for v, ws in nbrs.items() if len(ws) == 1}
    return {v for v in leaves
            if sum(w in leaves for w in nbrs[nbrs[v][0]]) >= 2}


def _is_caterpillar_graph(g):
    """Genus-1 graph obtained from a caterpillar tree by exactly one of:
    a loop on a head/tail leaf, or a doubled edge at an edge midpoint."""
    if g.genus != 1:
        return False

    # (a) undo a loop: remove the loop at v; v becomes a free leaf that must
    # have been a head/tail leaf of the resulting caterpillar tree.
    for i in _loop_indices(g):
        v = g.edges[i][0]
        rest = [e for j, e in enumerate(g.edges) if j != i]
        if sum(1 for a, b in rest if v in (a, b)) != 1:
            continue
        if _is_caterpillar_tree(g.vertices, rest) and \
                v in _paired_leaves(g.vertices, rest):
            return True

    # (b) undo a doubled edge: two parallel edges a--b where a and b each
    # have exactly one further edge (to u and v); contracting the gadget to
    # an edge u--v must give a caterpillar tree.
    for i, _ in doubled_pairs(g.edges):
        a, b = g.edges[i]
        others_a = [e for e in g.edges if a in e and b not in e]
        others_b = [e for e in g.edges if b in e and a not in e]
        if len(others_a) != 1 or len(others_b) != 1:
            continue
        (u,) = [x for x in others_a[0] if x != a] or [a]
        (v,) = [x for x in others_b[0] if x != b] or [b]
        if u == a or v == b or u == v:
            continue
        verts = tuple(x for x in g.vertices if x not in (a, b))
        edges = [e for e in g.edges if a not in e and b not in e]
        edges.append((u, v))
        if _is_caterpillar_tree(verts, edges):
            return True
    return False


def _is_tree_like(g):
    """Obtained from a trivalent tree by attaching one loop at each of
    `genus` leaves."""
    loops = _loop_indices(g)
    if len(loops) != g.genus:
        return False
    for i in loops:
        v = g.edges[i][0]
        others = [j for j in g.incident_edges(v) if j != i]
        # incident_edges lists the loop twice
        if len(others) != 1:
            return False
    rest = [e for i, e in enumerate(g.edges) if i not in loops]
    return _is_trivalent_tree(g.vertices, rest)


def classify(g):
    g = validate(g)
    if g.genus == 0 and _is_caterpillar_tree(g.vertices, g.edges):
        return GraphClass.CATERPILLAR_TREE
    if _is_caterpillar_graph(g):
        return GraphClass.CATERPILLAR_GRAPH
    if _is_tree_like(g):
        return GraphClass.TREE_LIKE
    return GraphClass.OTHER_TRIVALENT


# -- compatibility ------------------------------------------------------------


def is_compatible(g, r):
    """True iff every odd-weighted leaf shares its trinode with another
    odd-weighted leaf."""
    g = weighted_graph(g, r)
    nbrs = _neighbours(g.vertices, g.edges)
    # attachment vertex of each odd leaf (its unique neighbour)
    attach = [nbrs[v][0] for (_, v), w in zip(g.leaves, r) if w % 2]
    return all(attach.count(a) > 1 for a in attach)


# -- explode ------------------------------------------------------------------


@dataclass(frozen=True)
class GraphFragment(_Incidence):
    """A component of an exploded graph, read through the same incidence
    methods as a MarkedGraph.

    vertices are in the source graph's vertex order, then the stubs: the
    synthetic degree-1 vertices ("stub", i, side) that end the half-edges of
    cut edge i, which carry no leaf label.  stub_edges are the indices (into
    `edges`) of those half-edges.  original_edges[i] is the index of
    edges[i] in the source graph.
    """

    vertices: tuple
    edges: tuple
    leaves: tuple
    stub_edges: tuple
    original_edges: tuple


@dataclass(frozen=True)
class ExplodedGraph:
    components: tuple
    split_edges: tuple  # (original edge index, (comp, edge), (comp, edge))
    source: MarkedGraph


def _bridges(g):
    """Indices of separating edges: those whose removal disconnects g.  A
    loop, or an edge with a parallel twin, is never one: the other edges
    still join its ends."""
    return [i for i in range(len(g.edges))
            if not _connected(g.vertices, g.edges[:i] + g.edges[i + 1:])]


def explode(g):
    """Cut every separating non-leaf edge into two half-edges.  Components
    are numbered by their first vertex and list their vertices in order."""
    g = validate(g)
    leaf_edge_idx = {g.leaf_edge_index(lab) for lab, _ in g.leaves}
    cuts = [i for i in _bridges(g) if i not in leaf_edge_idx]

    verts = list(g.vertices)
    edges = []
    edge_origin = []
    stub_slots = {}  # cut edge index -> (edge slot for a-side, edge slot for b-side)
    for i, (a, b) in enumerate(g.edges):
        if i in cuts:
            sa, sb = ("stub", i, 0), ("stub", i, 1)
            verts += [sa, sb]
            stub_slots[i] = (len(edges), len(edges) + 1)
            edges += [(a, sa), (b, sb)]
            edge_origin += [i, i]
        else:
            edges.append((a, b))
            edge_origin.append(i)

    # connected components of the cut graph, numbered by first vertex
    nbrs = _neighbours(verts, edges)
    comp_of, n = {}, 0
    for v in verts:
        if v not in comp_of:
            comp_of.update(dict.fromkeys(_reach(nbrs, v), n))
            n += 1

    stubs = {slot for pair in stub_slots.values() for slot in pair}
    fragments = []
    global_to_local = {}  # global edge slot -> (component, local index)
    for c in range(n):
        slots = [gi for gi, (a, _) in enumerate(edges) if comp_of[a] == c]
        global_to_local.update((gi, (c, k)) for k, gi in enumerate(slots))
        fragments.append(GraphFragment(
            vertices=tuple(v for v in verts if comp_of[v] == c),
            edges=tuple(edges[gi] for gi in slots),
            leaves=tuple((lab, v) for lab, v in g.leaves if comp_of[v] == c),
            stub_edges=tuple(k for k, gi in enumerate(slots) if gi in stubs),
            original_edges=tuple(edge_origin[gi] for gi in slots)))

    split_records = tuple(
        (i, global_to_local[sa], global_to_local[sb])
        for i, (sa, sb) in sorted(stub_slots.items())
    )
    return ExplodedGraph(tuple(fragments), split_records, g)


# -- builders ------------------------------------------------------------------


def caterpillar_tree(n):
    """The n-leaf caterpillar tree: a spine v1..v_{n-2} with leaf pairs at
    both ends.  n=2 gives a single edge, n=3 a single trinode."""
    if n < 2:
        raise BadLeafLabels("need at least 2 leaves")
    if n == 2:
        return MarkedGraph(("l1", "l2"), (("l1", "l2"),), ((1, "l1"), (2, "l2")))
    spine = [f"v{i}" for i in range(1, n - 1)]
    edges = [(spine[i], spine[i + 1]) for i in range(len(spine) - 1)]
    leaves = []
    leafv = []

    def add_leaf(at):
        name = f"l{len(leaves) + 1}"
        leafv.append(name)
        edges.append((at, name))
        leaves.append((len(leaves) + 1, name))

    add_leaf(spine[0])
    add_leaf(spine[0])
    for v in spine[1:-1]:
        add_leaf(v)
    if len(spine) > 1:
        add_leaf(spine[-1])
        add_leaf(spine[-1])
    else:
        add_leaf(spine[0])
    return MarkedGraph(tuple(spine) + tuple(leafv), tuple(edges), tuple(leaves))


def add_loop_at_leaf(g, label):
    """Replace leaf `label` by a loop at its vertex (genus +1, one fewer
    leaf); remaining labels are renumbered preserving order."""
    g = validate(g)
    v = g.leaf_map[label]
    edges = list(g.edges) + [(v, v)]
    leaves = [(lab, w) for lab, w in g.leaves if lab != label]
    leaves = tuple((i + 1, w) for i, (_, w) in enumerate(sorted(leaves)))
    return MarkedGraph(g.vertices, tuple(edges), leaves)


def double_edge_at(g, edge_index):
    """Subdivide edge `edge_index` with two new vertices joined by a pair of
    parallel edges (genus +1)."""
    g = validate(g)
    a, b = g.edges[edge_index]
    m1, m2 = f"d{edge_index}a", f"d{edge_index}b"
    edges = [e for i, e in enumerate(g.edges) if i != edge_index]
    edges += [(a, m1), (m1, m2), (m1, m2), (m2, b)]
    return MarkedGraph(g.vertices + (m1, m2), tuple(edges), g.leaves)


# -- enumeration ---------------------------------------------------------------


def enumerate_graphs(genus, n_leaves):
    """All connected trivalent multigraphs with the given first Betti number
    and leaf count, up to isomorphism fixing leaf labels.

    Internal edge multisets (sorted (i <= j) pairs over vertices
    0..n_internal-1) are walked in lexicographic order, and the first
    connected one of each shape is the shape's representative, the least of
    its relabellings.  Lex-least multisets have the prefix property (Read's
    orderly generation): if C is the least of its relabellings, so is C
    less its last edge, since a relabelling that made the prefix smaller
    makes C smaller wherever the image of the last edge lands.  So a branch
    that a swap of two vertices makes smaller holds no representative and is
    cut, and the representatives come out in the same order as from the
    full walk.  The shape keys of the surviving multisets tell the shapes
    apart exactly.

    Leaves are attached to the free slots in lexicographic order, and an
    assignment a is listed iff no automorphism s of the shape gives a
    smaller s o a: two assignments give isomorphic graphs iff an
    automorphism carries one to the other, so this lists the first of each
    class."""
    if genus < 0 or n_leaves < 0:
        raise InvalidParams(f"genus {genus} and leaf count {n_leaves} must be >= 0")
    if genus > 2 or n_leaves > 6:
        raise BoundsTooLarge("desk scale is genus <= 2, leaves <= 6")
    n_internal = 2 * genus + n_leaves - 2
    if n_internal < 0:
        return []
    if n_internal == 0:
        if genus == 0 and n_leaves == 2:
            return [caterpillar_tree(2)]
        return []

    internal = tuple(range(n_internal))
    verts = internal + tuple(f"leaf{k}" for k in range(1, n_leaves + 1))
    leaves = tuple((k, f"leaf{k}") for k in range(1, n_leaves + 1))
    pairs = [(i, j) for i in internal for j in internal[i:]]
    swaps = [_transposition(pairs, a, b)
             for a in internal for b in internal[a + 1:]]
    deg, shapes, out = [0] * n_internal, set(), []
    for combo in _edge_multisets(pairs, 3 * genus + n_leaves - 3, deg, swaps):
        # leaves are pendant: connectivity depends on the internal edges only
        if not _connected(internal, combo):
            continue
        shape = _canonical_key(n_internal, combo, ())
        if shape in shapes:
            continue
        shapes.add(shape)
        aut = _automorphisms(n_internal, combo)
        slots = [v for v in internal for _ in range(3 - deg[v])]
        for assign in sorted(set(permutations(slots))):
            if all(tuple(s[v] for v in assign) >= assign for s in aut):
                edges = combo + tuple((v, f"leaf{k}") for k, v in enumerate(assign, 1))
                out.append(MarkedGraph(verts, edges, leaves))
    return out


def _edge_multisets(pairs, n_edges, deg, swaps, start=0, combo=()):
    """The multisets of n_edges `pairs` that give no vertex degree above 3,
    in combinations_with_replacement order, less every branch that a swap of
    two vertices makes lexicographically smaller.  `deg` holds the degrees
    of the current branch, which stops at the first edge that overfills a
    vertex; `swaps` holds the `_transposition` maps of the vertices."""
    if len(combo) == n_edges:
        yield combo
        return
    for s in range(start, len(pairs)):
        i, j = pairs[s]
        deg[i] += 1
        deg[j] += 1
        nxt = combo + (pairs[s],)
        if deg[i] <= 3 and deg[j] <= 3 and not _swap_makes_smaller(swaps, nxt):
            yield from _edge_multisets(pairs, n_edges, deg, swaps, s, nxt)
        deg[i] -= 1
        deg[j] -= 1


def _transposition(pairs, a, b):
    """The swap of vertices a and b as a map on the sorted edges `pairs`,
    pair -> the sorted pair it becomes."""
    swap = {a: b, b: a}
    return {(i, j): tuple(sorted((swap.get(i, i), swap.get(j, j))))
            for i, j in pairs}.__getitem__


def _swap_makes_smaller(swaps, combo):
    """True iff one of the `_transposition` maps `swaps` turns the sorted
    edge tuple `combo` into a smaller one."""
    for f in swaps:
        if tuple(sorted(map(f, combo))) < combo:
            return True
    return False


def _relabel(perm, combo):
    """The sorted edge tuple of `combo` with each vertex v renamed perm[v]."""
    return tuple(sorted(tuple(sorted((perm[i], perm[j]))) for i, j in combo))


def _ranks(values):
    index = {x: r for r, x in enumerate(sorted(set(values)))}
    return [index[x] for x in values]


def _colour_orders(n, combo, assign):
    """Colour refinement of internal edges `combo` with leaf k + 1 at vertex
    assign[k], as the vertex orders that list the colour classes in colour
    order, each class in some order of its own; the first lists each class
    in vertex order.

    Each vertex starts with its loop count and leaf labels, then adds its
    neighbours' colours (with edge multiplicity) until no colour class
    splits.  An isomorphism maps each vertex to one of its colour."""
    # a loop lists v among its own neighbours; vertices of one colour have
    # as many loops, so this adds the same colours to both sides of every
    # comparison, and the refinement and its ranks are those without loops
    nbrs = _neighbours(range(n), combo)
    colour = _ranks([(combo.count((v, v)), tuple(k for k, a in enumerate(assign) if a == v))
                     for v in range(n)])
    while max(colour) + 1 < n:
        refined = _ranks([(colour[v], tuple(sorted(colour[w] for w in nbrs[v])))
                          for v in range(n)])
        if max(refined) == max(colour):
            break
        colour = refined
    for blocks in product(*(permutations(v for v in range(n) if colour[v] == c)
                            for c in range(max(colour) + 1))):
        yield [v for block in blocks for v in block]


def _canonical_key(n, combo, assign):
    """Key of internal edges `combo` with leaf k + 1 at vertex assign[k]:
    equal keys iff the graphs are isomorphic by a map fixing leaf labels.

    The key is the least (edges, att) relabelling that keeps each colour
    class of `_colour_orders` in its own block, blocks in colour order."""
    keys = []
    for order in _colour_orders(n, combo, assign):
        perm = [order.index(v) for v in range(n)]
        keys.append((_relabel(perm, combo), tuple(perm[v] for v in assign)))
    return min(keys)


def _automorphisms(n, combo):
    """The vertex permutations s (v -> s[v]) that map the sorted edge tuple
    `combo` onto itself: each keeps every colour class of the refinement,
    so they are found among the maps within the classes."""
    orders = _colour_orders(n, combo, ())
    base = next(orders)
    out = [list(range(n))]
    for order in orders:
        perm = [0] * n
        for v, w in zip(base, order):
            perm[v] = w
        if _relabel(perm, combo) == combo:
            out.append(perm)
    return out
