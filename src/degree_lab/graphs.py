"""Graph value types and the complex-part / core decomposition.

Vertices carry labels 1..n.  A connected component with v vertices and e
edges has excess e - v; it is a tree (excess -1), unicyclic (excess 0),
or complex (excess >= 1, equivalently at least two independent cycles).
The complex part of a graph is the union of its complex components.  The
core is the maximal subgraph of the complex part with minimum degree at
least two, obtained by repeatedly peeling vertices of degree <= 1.

Edge endpoints must be integers: floats, strings and bools are refused
with GraphError, never truncated.  Every graph stores its edges as a
canonical array: rows (u, v) with u <= v, read-only, sorted by the key
u * (n + 1) + v (by u, then by v); n is at most MAX_VERTICES, so that
the keys fit in int64.  Edges from outside (files, lists, arrays) are
checked on every construction; rows the package drew itself, a decoded
forest, a grown complex graph or a simple pairing split from the keys
its simplicity test sorted, arrive checked (_Checked) and are stored as
given.  A GraphSlice is the subgraph of a host picked
by a vertex mask: the picked vertices, with their original labels, and
the host edges whose endpoints are both picked.  Rows taken from a
canonical array stay canonical, so complex_part, core_of and split cut
their slices from the input graph, or from a slice of it, without
sorting or checking again.

The decomposition kernels are array operations with no sort over the
vertices: component labels come from one scipy pass over the canonical
rows (see _components), and the core peel removes a whole frontier of
degree <= 1 vertices per round, each leaf finding its one neighbour as
the running sum of its live neighbours' labels (see _peel_degrees).
has_complex_component and core_of read their answers off the peel
alone, with no component pass; split, complex_part and components label
components.
Rows are picked with np.compress, which is faster than a boolean index
on a 2-D array.  core_of, split and has_complex_component each give
their route, and why it is exact, in their own docstrings.

The loop and repeat tests mark the rows that hold a hit from the flat
positions of the hits (_rows_with).  On a block of thousands of short
pairing rows that is a few whole-array passes, where .any over the last
axis runs one tiny reduction per row.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components as _cs_components

TREE = "tree"
UNICYCLIC = "unicyclic"
COMPLEX = "complex"

# the largest n with (n + 1)**2 <= 2**63, so that every edge key fits in int64
MAX_VERTICES = 3_037_000_498


class GraphError(Exception):
    """A graph value violates one of its invariants."""


def _whole(name: str, x) -> int:
    """x as an int; floats, whole ones included, are refused, never
    truncated."""
    try:
        return operator.index(x)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {x}") from None


def _at_least(name: str, x, low: int) -> int:
    """x as an int by _whole, refused below low."""
    x = _whole(name, x)
    if x < low:
        raise ValueError(f"{name} must be at least {low}, got {x}")
    return x


def _order(name: str, x, low: int) -> int:
    """A vertex or bin count: x as an int by _at_least, refused above
    MAX_VERTICES before any array of size x is made.  Every count of
    vertices or bins in the package is read here; only a graph value
    refuses its own n past the limit (with GraphError, in
    _EdgeListGraph)."""
    x = _at_least(name, x, low)
    if x > MAX_VERTICES:
        raise ValueError(f"{name} = {x} exceeds the vertex limit {MAX_VERTICES}")
    return x


def _edge_keys(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Keys u * (n + 1) + v of the edges (u[..., i], v[..., i]), u <= v,
    sorted along the last axis."""
    key = u * np.int64(n + 1) + v
    key.sort()
    return key


def _rows_with(hit: np.ndarray) -> np.ndarray:
    """Whether each row (last axis) of hit holds a True, read off the flat
    positions of the hits; for a 1-D hit, a 0-d bool."""
    out = np.zeros(hit.shape[:-1], dtype=bool)
    out.reshape(-1)[np.flatnonzero(hit) // max(hit.shape[-1], 1)] = True
    return out


def _has_loop(u: np.ndarray, v: np.ndarray):
    return _rows_with(u == v)


def _has_repeat(key: np.ndarray):
    return _rows_with(key[..., 1:] == key[..., :-1])


def _key_rows(n: int, a: np.ndarray, b: np.ndarray,
              simple_only: bool = False) -> np.ndarray:
    """The edges (a[i], b[i]) as read-only int64 rows (u, v), u <= v, in
    key order; with simple_only a loop or a repeated edge raises
    GraphError.  Endpoints are int64 in 1..n."""
    u = np.minimum(a, b)
    v = np.maximum(a, b)
    if simple_only and _has_loop(u, v):
        raise GraphError("self-loop not allowed in a simple graph")
    key = _edge_keys(n, u, v)
    if simple_only and _has_repeat(key):
        raise GraphError("duplicate edge not allowed in a simple graph")
    return _split_keys(n, key)


def _split_keys(n: int, key: np.ndarray) -> np.ndarray:
    """The edges with sorted keys u * (n + 1) + v as read-only int64 rows
    (u, v), in key order."""
    rows = np.empty((key.size, 2), dtype=np.int64)
    np.divmod(key, n + 1, out=(rows[:, 0], rows[:, 1]))
    rows.setflags(write=False)
    return rows


def _canonical_edges(n: int, edges, simple_only: bool) -> np.ndarray:
    """Validate endpoints and return edges as an (m, 2) array in key order."""
    arr = np.asarray(edges)
    if arr.size and arr.dtype.kind not in "iu":
        raise GraphError(f"edge endpoints must be integers, got {arr.dtype}")
    arr = arr.astype(np.int64, copy=False)
    if arr.size == 0:
        arr = np.empty((0, 2), dtype=np.int64)
    elif arr.ndim != 2 or arr.shape[1] != 2:
        raise GraphError("edges must be a sequence of pairs")
    elif arr.min() < 1 or arr.max() > n:
        raise GraphError("edge endpoint outside 1..n")
    return _key_rows(n, arr[:, 0], arr[:, 1], simple_only)


@dataclass(frozen=True)
class _Checked:
    """Edge rows the package built itself: a read-only int64 (m, 2) array
    in key order that already meets the receiving class's invariants.
    _EdgeListGraph stores them as given."""

    rows: np.ndarray


def _simple_keys(n: int, u: np.ndarray, v: np.ndarray):
    """The simple rows of a (rows, m) block of edges (u[r, i], v[r, i]),
    u <= v: the numbers of the rows with no loop and no repeat, and their
    sorted keys (_edge_keys).  Only the loop-free rows are keyed, and the
    simple ones among them are picked with np.compress."""
    rows, = (~_has_loop(u, v)).nonzero()
    key = _edge_keys(n, u[rows], v[rows])
    simple = ~_has_repeat(key)
    return np.compress(simple, rows), np.compress(simple, key, axis=0)


def _is_simple(g) -> bool:
    """Whether g's rows hold no loop and no repeated edge."""
    rows, _ = _simple_keys(g.n, g.edges[None, :, 0], g.edges[None, :, 1])
    return bool(rows.size)


class _EdgeListGraph:
    """A graph stored as n plus a canonical edge array.

    Subclasses say by the class attribute simple_only whether they
    refuse loops and repeated edges.
    """

    __slots__ = ()
    simple_only = True

    def __init__(self, n: int, edges=()):
        n = _at_least("n", n, 0)
        if n > MAX_VERTICES:
            raise GraphError(f"vertex count {n} over the limit {MAX_VERTICES}")
        self.n = n
        self.edges = (edges.rows if isinstance(edges, _Checked)
                      else _canonical_edges(n, edges, self.simple_only))

    @property
    def num_edges(self) -> int:
        return int(self.edges.shape[0])

    def degree_sequence(self) -> np.ndarray:
        """Degree of vertex v at index v - 1; a loop at v counts 2."""
        return np.bincount(self.edges.ravel(), minlength=self.n + 1)[1:]

    def max_degree(self) -> int:
        return int(self.degree_sequence().max(initial=0))

    def edge_set(self) -> set[tuple[int, int]]:
        return {(int(u), int(v)) for u, v in self.edges}

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, type(self))
            and self.n == other.n
            and np.array_equal(self.edges, other.edges)
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n}, m={self.num_edges})"


class LabeledGraph(_EdgeListGraph):
    """Simple undirected graph on vertex set {1..n}."""

    __slots__ = ("n", "edges")


class MultiGraph(_EdgeListGraph):
    """Undirected multigraph on {1..n}; loops and repeated edges allowed."""

    __slots__ = ("n", "edges")
    simple_only = False

    is_simple = _is_simple


class GraphSlice(_EdgeListGraph):
    """The subgraph of a host graph picked by a vertex mask.

    host is any graph with a canonical .edges array (LabeledGraph,
    MultiGraph, RootedForest or another GraphSlice); vmask[v - 1] picks
    vertex v and may set only vertices of the host.  vmask must cover
    every endpoint of the host's edges, and may be shorter than the
    host's label range: the labels past its end are not picked.  The
    slice keeps the picked labels, increasing, and the host edges with
    both endpoints picked, in host order.  Both arrays are read-only.
    """

    __slots__ = ("vertices", "edges")

    def __init__(self, host, vmask):
        vmask = np.asarray(vmask, dtype=bool)
        edges = host.edges
        keep = vmask[edges[:, 0] - 1] & vmask[edges[:, 1] - 1]
        self.vertices = np.flatnonzero(vmask) + 1
        self.edges = np.compress(keep, edges, axis=0)
        self.vertices.setflags(write=False)
        self.edges.setflags(write=False)

    @property
    def order(self) -> int:
        return int(self.vertices.size)

    size = _EdgeListGraph.num_edges

    @property
    def is_empty(self) -> bool:
        return self.vertices.size == 0

    def vertex_set(self) -> set[int]:
        return set(int(v) for v in self.vertices)

    def degree_sequence(self) -> np.ndarray:
        """Degrees within the slice, aligned with .vertices."""
        hi = int(self.vertices.max(initial=0))
        return np.bincount(self.edges.ravel(), minlength=hi + 1)[self.vertices]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GraphSlice)
            and np.array_equal(self.vertices, other.vertices)
            and np.array_equal(self.edges, other.edges)
        )

    def __repr__(self) -> str:
        return f"GraphSlice(order={self.order}, size={self.size})"


@dataclass(frozen=True)
class Decomposition:
    """Three-way split plus the core of the complex part.

    core_largest_component lists, increasing, the vertices of the largest
    core component (ties go to the one holding the smallest core vertex
    label; empty for an empty core), and large_complex is its complex
    component; small_complex is the rest of the complex part; non_complex
    is everything else.  The three slices partition both the vertex set
    and the edge set of the input.
    """

    large_complex: GraphSlice
    small_complex: GraphSlice
    non_complex: GraphSlice
    core: GraphSlice
    core_largest_component: np.ndarray


def _components(n: int, edges: np.ndarray) -> tuple[int, np.ndarray]:
    """Component count, and the 0-based component label of each vertex.

    edges must be canonical, as every graph and slice stores them: the
    rows are then the upper triangle of the adjacency matrix in CSR
    order, and indptr is the running count of u.  scipy's undirected
    traversal opens a new label at each unlabelled vertex in increasing
    order, so the labels come numbered by smallest member, as
    tests/test_component_order.py and test_component_pass.py check.
    """
    indptr = np.cumsum(np.bincount(edges[:, 0], minlength=n + 1))
    adj = csr_matrix((np.ones(edges.shape[0]), edges[:, 1] - 1, indptr),
                     shape=(n, n))
    return _cs_components(adj, directed=False)


def _component_stats(n: int, edges: np.ndarray):
    """Labels, and the vertex and edge count of each component."""
    ncomp, labels = _components(n, edges)
    vcounts = np.bincount(labels, minlength=ncomp)
    ecounts = np.bincount(labels[edges[:, 0] - 1], minlength=ncomp)
    return labels, vcounts, ecounts


def components(g: LabeledGraph) -> list[tuple[np.ndarray, int]]:
    """Connected components as (sorted vertex labels, edge count) pairs.

    Components are listed in order of their smallest vertex label.
    """
    labels, vcounts, ecounts = _component_stats(g.n, g.edges)
    groups = np.split(np.argsort(labels, kind="stable") + 1,
                      np.cumsum(vcounts)[:-1])
    # with no vertices np.split still gives one empty group; zip drops it
    return [(grp, int(e)) for grp, e in zip(groups, ecounts)]


def classify_component(vertex_count: int, edge_count: int) -> str:
    """Classify a connected component by its excess edge_count - vertex_count."""
    if edge_count < vertex_count - 1:
        raise GraphError("not a connected component: too few edges")
    return {-1: TREE, 0: UNICYCLIC}.get(edge_count - vertex_count, COMPLEX)


def _complex_components(n: int, edges: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Component label per vertex, and whether it lies in a complex one."""
    labels, vcounts, ecounts = _component_stats(n, edges)
    return labels, (ecounts >= vcounts + 1)[labels]


def has_complex_component(g: LabeledGraph) -> bool:
    """Whether some component of g has excess >= 1, on multigraphs too:
    whether some vertex keeps a live degree >= 3 after the core peel.

    Peeling a vertex of degree one keeps each component's excess class
    (see core_of), so g has a complex component exactly when its 2-core
    has one.  A 2-core component has minimum degree 2 and edges equal to
    half its degree sum, so its excess is at least 1 exactly when some
    vertex has degree at least 3.  A peeled vertex keeps a degree of at
    most one, and a loop counts 2, so the rule holds on multigraphs too.
    No component pass is made.
    """
    return bool((_peel_degrees(g) > 2).any())


def complex_part(g: LabeledGraph) -> GraphSlice:
    """Union of all components with excess >= 1, labels preserved."""
    return GraphSlice(g, _complex_components(g.n, g.edges)[1])


# frontiers thinner than this are peeled one vertex at a time: a round of
# array operations costs about as much as a dozen single-vertex steps
_THIN_FRONTIER = 16


def _neighbour_sums(size: int, edges: np.ndarray) -> np.ndarray:
    """nsum[v] for v < size: the sum of the other ends of v's rows, a
    loop counting v twice, in int64 (so modulo 2**64).

    Built with np.add.at over the two 1-D endpoint columns, which runs
    on ufunc.at's fast path.  See _peel_degrees for why a vertex of
    degree one reads its one neighbour off its sum exactly.
    """
    nsum = np.zeros(size, dtype=np.int64)
    u, v = edges.T
    np.add.at(nsum, u, v)
    np.add.at(nsum, v, u)
    return nsum


def _peel_degrees(part) -> np.ndarray:
    """Peel vertices of degree <= 1, one frontier per round; O(order + size).

    part is any graph with canonical rows (LabeledGraph, MultiGraph or
    GraphSlice); the result is deg, indexed by label up to the largest
    endpoint: at least two on the vertices the peel keeps, their live
    degrees, and at most one elsewhere.  Everything is read off
    part.edges, and a loop counts 2 towards its vertex's degree.

    deg[v] is the live degree of v, and nsum[v] the sum of its live
    neighbours' labels, one term per live row (_neighbour_sums).  A row
    dies with the first of its ends to be peeled, and peeling leaf y
    with neighbour x subtracts y from nsum[x], so the sum always runs
    over the live rows.  A vertex reads its sum only at degree one, and
    then its one live row is a plain edge and the sum is its neighbour.
    That holds on multigraphs too: a loop keeps its vertex at degree two
    or more, and a repeated edge keeps both its ends there while both
    live, so neither can be peeled first; such vertices never read
    their sums.  The sums may wrap modulo 2**64, but only at a vertex
    with billions of rows (a simple graph's sums are at most
    n(n + 1)/2 < 2**63); every update agrees modulo 2**64, and the one
    neighbour's label lies in 1..n, so it still reads back exactly.
    Sums rather than XORs of the labels, because np.add.at and
    np.subtract.at run on ufunc.at's fast path for 1-D indices and the
    XOR ufunc's .at does not.

    The frontier is the set of live vertices of degree one, and each
    round removes all of it with a few array operations; ufunc.at
    applies the updates of several leaves that share a neighbour.  Two
    adjacent frontier vertices die in the same round and only update
    each other.  A removed vertex keeps its last degree, at most one,
    and no live vertex counts it again, so no live set is needed: the
    core is the vertices whose degree is still at least two, which
    leaves out those with no edge and those whose degree fell to zero.
    A frontier never grows, since each leaf frees at most its one live
    neighbour, so once it is thinner than _THIN_FRONTIER the rest (a
    thin tail, such as a pendant path) is peeled one vertex at a time
    on the same arrays, read and written through memoryviews: numpy
    scalar indexing costs more and holds the interpreter lock longer,
    which limits how well trials run on threads (experiments).  A view
    refuses a value outside int64 where the arrays wrap, so the tail
    wraps its one subtraction by hand and the sums stay the arrays'.
    """
    deg = np.bincount(part.edges.ravel())
    nsum = _neighbour_sums(deg.size, part.edges)
    slot = np.zeros(deg.size, dtype=np.int64)

    frontier = np.flatnonzero(deg == 1)
    while frontier.size >= _THIN_FRONTIER:
        nbrs = nsum[frontier]
        np.subtract.at(deg, nbrs, 1)
        np.subtract.at(nsum, nbrs, frontier)
        nbrs = nbrs[deg[nbrs] == 1]
        # drop repeats without a sort: a repeated vertex's slot keeps one
        # of the positions written to it, and only that one reads back
        pos = np.arange(nbrs.size)
        slot[nbrs] = pos
        frontier = nbrs[slot[nbrs] == pos]
    # a vertex is stacked when its degree falls to one, which happens at
    # most once, so no vertex is stacked twice
    stack = frontier.tolist()
    with memoryview(deg) as d, memoryview(nsum) as s:
        while stack:
            y = stack.pop()
            if d[y]:
                x = s[y]
                d[x] -= 1
                try:
                    s[x] -= y
                except ValueError:  # a view refuses to wrap; int64 does
                    s[x] += (1 << 64) - y
                if d[x] == 1:
                    stack.append(x)
    return deg


def _peel_to_core(part) -> GraphSlice:
    """The vertices the peel keeps, as a slice of part (_peel_degrees)."""
    return GraphSlice(part, _peel_degrees(part)[1:] > 1)


def core_of(g: LabeledGraph) -> GraphSlice:
    """Maximal subgraph of the complex part with minimum degree >= 2.

    Read off the peel alone, with no component pass.  Peeling a vertex
    of degree one removes one vertex and one edge and keeps its
    component connected, so each component keeps its excess: a tree
    vanishes (its last vertex has degree 0), a unicyclic component
    leaves a bare cycle, and a complex component leaves its connected
    core.  A 2-core component of excess 0 has minimum degree 2 and as
    many edges as vertices, so every degree in it is 2: the bare cycles
    are exactly what the unicyclic components leave, and the rest of the
    2-core is the core of the complex part.

    So the bare cycles are the cycles formed by 2-core vertices of live
    degree 2.  Each such vertex has two edges, so the edges among these
    vertices form only paths and cycles (a loop or a double edge is a
    cycle of length one or two).  A cycle among them holds both edges of
    each of its vertices, so no edge leaves it: it is a whole 2-core
    component of excess 0, and each bare cycle is such a cycle.  A
    second peel of that slice removes its paths and keeps just its
    cycles, which are dropped from the 2-core.
    """
    keep = _peel_degrees(g)[1:]
    core = GraphSlice(g, keep > 1)
    keep[_peel_to_core(GraphSlice(core, keep == 2)).vertices - 1] = 0
    return GraphSlice(core, keep > 1)


def split(g: LabeledGraph) -> Decomposition:
    """Three-way decomposition (large complex, small complex, rest) + core
    of a LabeledGraph or MultiGraph, from one component pass over g.

    The pass over g finds the complex part, and only that is peeled.  A
    complex component stays connected as it is peeled, so g's labels
    name its one core part, and the core needs no second pass.
    """
    labels, in_complex = _complex_components(g.n, g.edges)
    core = _peel_to_core(GraphSlice(g, in_complex))
    # g's labels name the core components, and argmax takes the first
    # core vertex in a largest one: ties go to the smallest core label
    comp = labels[core.vertices - 1]
    pick = comp[np.argmax(np.bincount(comp)[comp])] if comp.size else -1
    in_large = labels == pick
    return Decomposition(GraphSlice(g, in_large),
                         GraphSlice(g, in_complex & ~in_large),
                         GraphSlice(g, ~in_complex), core,
                         core.vertices[comp == pick])
