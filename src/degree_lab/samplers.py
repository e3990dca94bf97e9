"""Uniform samplers for sparse random graph families.

Four samplers, each exactly uniform over its target class:

  sample_multigraph  pairing model: 2m ball throws paired into m edges
  sample_gnm         simple graphs with m edges, by rejecting non-simple
                     multigraphs (uniform conditioned on simplicity)
  sample_cs          graphs whose components are all trees or unicyclic,
                     by rejecting G(n,m) draws with a complex component
  sample_complex     complex graphs with a prescribed core, by attaching
                     a uniform rooted forest to the core vertices

plus sample_pipeline, which assembles a full n-vertex, m-edge graph from
a core by drawing its large complex part, small complex part and
complex-free remainder on consecutive label blocks, and
exact_census_gnm, an exact uniformity check for sample_gnm that counts
the samples of each graph of a small class.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import comb

import numpy as np

from .bins import throw_positions
from .forests import sample_forest, sample_forest_degrees
from .graphs import (Decomposition, GraphError, LabeledGraph, MultiGraph,
                     _at_least, _Checked, _compact_edges, _is_simple,
                     _key_rows, _order, _simple_keys, _split_keys, _whole,
                     has_complex_component, split)

DEFAULT_GNM_CAP = 10_000
DEFAULT_CS_CAP = 100_000
ENUMERATION_CAP = 10_000
ENUMERATION_EDGE_CAP = 100_000  # edges over all the graphs of a class
# balls per pairing draw of _simple_pairings; bounds the memory of a block
_BLOCK_BALLS = 1 << 14


class SamplingCapExceeded(RuntimeError):
    """A rejection loop hit its attempt cap; .attempts is how many it made."""

    def __init__(self, message: str, attempts: int):
        super().__init__(message)
        self.attempts = attempts


def _draw_pairing(n: int, m: int, rows: int,
                  rng) -> tuple[np.ndarray, np.ndarray]:
    """`rows` pairing draws from one throw of 2m * rows balls, as (lo, hi)
    endpoint arrays of shape (rows, m): row r takes the r-th run of 2m
    consecutive balls, and its edge i joins balls 2i - 1 and 2i of the run."""
    ends = throw_positions(n, 2 * m * rows, rng).reshape(rows, m, 2)
    a, b = ends[..., 0], ends[..., 1]
    return np.minimum(a, b), np.maximum(a, b)


def _gnm_size(n, m) -> tuple[int, int]:
    """n and m as ints, checked as the order and size of a simple graph."""
    n = _order("n", n, 1)
    m = _whole("m", m)
    if not 0 <= m <= comb(n, 2):
        raise ValueError(f"no simple graph on n = {n} vertices has m = {m} edges")
    return n, m


def _simple_pairings(n: int, m: int, wanted: int, rng, cap: int):
    """Yield the first `wanted` simple pairings on rng's stream as blocks
    of sorted edge keys u * (n + 1) + v, one (r, m) array per block, each
    with the number of rows drawn so far.  The keys are the ones the
    simplicity test sorted, so no caller sorts them again.  numpy's
    bounded-integer stream does not depend on how throws are split into
    calls, so these are the rows a loop drawing one pairing at a time
    accepts, and SamplingCapExceeded comes where it does: at the cap-th
    non-simple row in a row, or before any draw if cap <= 0."""
    per_draw = max(1, _BLOCK_BALLS // max(2 * m, 1))
    drawn = last = 0  # rows drawn, and the number of the last simple one
    while wanted > 0:
        if drawn - last >= cap:
            raise SamplingCapExceeded(
                f"no simple pairing in {cap} attempts at n={n}, m={m}", cap)
        rows = min(wanted, per_draw, cap - (drawn - last))
        u, v = _draw_pairing(n, m, rows, rng)
        simple, key = _simple_keys(n, u, v)
        drawn += rows
        if simple.size:
            last = drawn - rows + 1 + int(simple[-1])
            wanted -= simple.size
            yield key, drawn


def sample_multigraph(n: int, m: int, rng=None) -> MultiGraph:
    """Pairing-model multigraph: edge i joins ball 2i-1 and ball 2i.

    The degree of vertex v equals the load of bin v in the underlying
    2m-ball throw, so with equal seeds the degree sequence matches
    throw_balls(n, 2 * m, seed).
    """
    n = _order("n", n, 1)
    m = _at_least("m", m, 0)
    rng = np.random.default_rng(rng)
    u, v = _draw_pairing(n, m, 1, rng)
    return MultiGraph(n, np.column_stack((u[0], v[0])))


def sample_gnm_counted(n: int, m: int, rng=None, *,
                       max_attempts: int = DEFAULT_GNM_CAP
                       ) -> tuple[LabeledGraph, int]:
    """Uniform simple graph with m edges, plus the attempt count.

    Repeats the pairing draw until it is simple.  Conditioned on
    simplicity the pairing model is uniform, so the output is exactly
    uniform over simple graphs on {1..n} with m edges.  The rows arrive
    checked, split from the keys the simplicity test sorted: the throw
    puts every endpoint in 1..n, and that test has ruled out loops and
    repeats.
    """
    n, m = _gnm_size(n, m)
    rng = np.random.default_rng(rng)
    key, attempts = next(_simple_pairings(n, m, 1, rng, max_attempts))
    return LabeledGraph(n, _Checked(_split_keys(n, key[0]))), attempts


def sample_gnm(n: int, m: int, rng=None, *,
               max_attempts: int = DEFAULT_GNM_CAP) -> LabeledGraph:
    return sample_gnm_counted(n, m, rng, max_attempts=max_attempts)[0]


def sample_cs_counted(n: int, m: int, rng=None, *,
                      max_attempts: int = DEFAULT_CS_CAP
                      ) -> tuple[LabeledGraph, int]:
    """Uniform complex-free graph, plus the number of G(n,m) draws used.

    Rejects uniform G(n,m) draws until none of the components carries
    excess, which keeps the output exactly uniform over the complex-free
    class.  Feasible complex-free graphs need m <= n; the loop is only
    fast for m near n/2 or below.
    """
    n = _order("n", n, 1)
    m = _at_least("m", m, 0)
    if m > n:
        raise ValueError(f"a complex-free graph has at most n = {n} edges, "
                         f"got m = {m}")
    rng = np.random.default_rng(rng)
    for attempt in range(1, max_attempts + 1):
        try:
            g, _ = sample_gnm_counted(n, m, rng)
        except SamplingCapExceeded as exc:
            exc.attempts = attempt  # count G(n,m) draws, as the return does
            raise
        if not has_complex_component(g):
            return g, attempt
    raise SamplingCapExceeded(
        f"no complex-free draw in {max_attempts} attempts at n={n}, m={m}",
        max_attempts)


def sample_cs(n: int, m: int, rng=None, *,
              max_attempts: int = DEFAULT_CS_CAP) -> LabeledGraph:
    return sample_cs_counted(n, m, rng, max_attempts=max_attempts)[0]


def validate_core_graph(g: LabeledGraph) -> Decomposition:
    """Check that g can occur as the core of a complex part: that g is
    simple, as the graphs grown from it are, and is its own core; return
    split(g), from which the check reads its answer.

    g is its own core exactly when every vertex has degree at least two
    and every component has excess at least one.  If so, the complex part
    is all of g, the peel removes nothing, and split(g)'s core keeps
    every vertex; if that core keeps every vertex, every vertex lies in
    the complex part and nothing was peeled, so every degree is at least
    two.  Raises GraphError otherwise.
    """
    if not _is_simple(g):
        raise GraphError("core graph must be simple: no loop, no repeated edge")
    parts = split(g)
    if parts.core.order < g.n:
        raise GraphError("core graph must be its own core: minimum degree 2 "
                         "and every component of excess >= 1")
    return parts


def _complex_order(core: LabeledGraph, q) -> int:
    """q as an int, checked as the order of a complex graph with this core."""
    validate_core_graph(core)
    if core.n == 0:
        raise ValueError("core must be non-empty")
    return _order("q", q, core.n)


def _grow(core: LabeledGraph, q: int, rng) -> tuple:
    """The edges of the core and of a uniform rooted forest on {1..q}
    rooted at the core vertices, as checked rows, and the forest; neither
    the core nor q is checked.  The rows need no check: the core is
    simple, the roots lie in distinct trees, so no forest edge joins two
    core vertices or repeats a core edge, and the forest is simple.

    Both row sets come in key order, so the core rows are merged into
    the forest rows, not sorted with them.  A forest row (u, x) from a
    core vertex u has x > v(core), past every core row (u, v), so each
    core row goes before the forest rows with its u.  Core rows have
    u <= v(core), so they land among the forest rows from core vertices,
    which come first; the rest of the forest rows is copied as it is."""
    forest = sample_forest(q, core.n, rng)
    head = forest.edges[:np.searchsorted(forest.edges[:, 0], core.n,
                                         side="right")]
    at = np.searchsorted(head[:, 0], core.edges[:, 0], side="left")
    rows = np.concatenate((np.insert(head, at, core.edges, axis=0),
                           forest.edges[head.shape[0]:]))
    rows.setflags(write=False)
    return _Checked(rows), forest


def sample_complex(core: LabeledGraph, q: int, rng=None, *,
                   return_forest: bool = False):
    """Uniform complex graph on {1..q} whose core is the given graph.

    Draws a uniform rooted forest on q vertices with the core vertices
    1..v(core) as roots and unions its edges with the core edges, which
    amounts to growing a tree out of every core vertex.  Roots lie in
    distinct trees, so no forest edge can duplicate a core edge.  For
    each vertex the degree is the forest degree, plus the core degree
    for core vertices.  With return_forest=True the intermediate forest
    comes back alongside the graph.
    """
    rows, forest = _grow(core, _complex_order(core, q), rng)
    g = LabeledGraph(q, rows)
    if return_forest:
        return g, forest
    return g


def sample_complex_degrees(core: LabeledGraph, q: int, rng=None) -> np.ndarray:
    """Degree sequence of sample_complex without building the graph.

    Stream-compatible: equals sample_complex(core, q, seed) degrees for
    the same seed.
    """
    q = _complex_order(core, q)
    deg = sample_forest_degrees(q, core.n, rng)
    deg[:core.n] += core.degree_sequence()
    return deg


@dataclass(frozen=True)
class PipelineSpec:
    """Shape of a pipeline draw: core plus part orders and totals.

    The large complex part gets large_order vertices and hosts the
    core's largest component; the small complex part gets small_order
    vertices and hosts the remaining core components; the complex-free
    remainder gets the other spare_order vertices and spare_edges edges,
    chosen so that the whole graph has exactly m edges.  The two core
    blocks, split(core)'s large and small complex parts, come from the
    split that validate_core_graph returns, and are relabeled onto
    {1..order} in increasing label order once, here.

    n, large_order and small_order are read as vertex counts
    (graphs._order) and m as a size at least 0 before the core is
    validated, so a float or an order past the vertex limit is refused
    under its field's own name, before any draw.
    """

    core: LabeledGraph
    large_order: int
    small_order: int
    n: int
    m: int
    _parts: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _order("n", self.n, 0)
        _order("large_order", self.large_order, 0)
        _order("small_order", self.small_order, 0)
        _at_least("m", self.m, 0)
        parts = validate_core_graph(self.core)
        large, rest = (LabeledGraph(p.order, _compact_edges(p))
                       for p in (parts.large_complex, parts.small_complex))
        if self.large_order < large.n:
            raise ValueError("large_order smaller than the largest core component")
        if self.small_order < rest.n:
            raise ValueError("small_order smaller than the rest of the core")
        if (self.large_order > 0) != (large.n > 0):
            raise ValueError("large_order must be zero iff the core is empty")
        if (self.small_order > 0) != (rest.n > 0):
            raise ValueError("small_order must be zero iff the core has one component")
        if self.spare_order < 0:
            raise ValueError("part orders exceed n")
        if self.spare_edges < 0:
            raise ValueError("edge budget of the complex-free part is negative")
        if self.spare_edges > self.spare_order:
            raise ValueError("complex-free part cannot hold that many edges")
        object.__setattr__(self, "_parts", (large, rest))

    @property
    def spare_order(self) -> int:
        return self.n - self.large_order - self.small_order

    @property
    def spare_edges(self) -> int:
        return (self.m - self.core.num_edges + self.core.n
                - self.large_order - self.small_order)


def sample_pipeline(spec: PipelineSpec, rng=None, *,
                    shuffle_labels: bool = False) -> LabeledGraph:
    """Assemble a uniform-by-parts graph with n vertices and m edges.

    Draws, in order: the large complex part on labels {1..l}, the small
    complex part on {l+1..l+r}, and the complex-free remainder on
    {l+r+1..n}, where l and r are the requested part orders.  Core
    vertices map onto the low labels of their block in increasing
    order.  With shuffle_labels=True a uniform label permutation is
    applied at the end (drawn from the same generator, after the parts).
    The spec has checked its core, and each block of a valid core is a
    valid core, so the blocks are grown without checking them again.
    """
    rng = np.random.default_rng(rng)
    large, rest = spec._parts
    l = spec.large_order
    r = spec.small_order
    # an empty core block has order 0 and grows an empty forest, drawing nothing
    blocks = [_grow(large, l, rng)[0].rows,
              _grow(rest, r, rng)[0].rows + l]
    if spec.spare_order:
        spare = sample_cs(spec.spare_order, spec.spare_edges, rng)
        blocks.append(spare.edges + (l + r))
    # canonical blocks on increasing label ranges stack in key order, and
    # a relabeling keeps a simple graph simple, so no row needs a check
    rows = np.vstack(blocks)
    if shuffle_labels:
        perm = np.empty(spec.n + 1, dtype=np.int64)
        perm[1:] = rng.permutation(spec.n) + 1
        rows = _key_rows(spec.n, perm[rows[:, 0]], perm[rows[:, 1]])
    rows.setflags(write=False)
    return LabeledGraph(spec.n, _Checked(rows))


@dataclass(frozen=True)
class UniformityReport:
    """Empirical-versus-uniform comparison over an enumerated class."""

    graph_count: int
    trials: int
    tv_distance: float
    chi_square: float | None
    insufficient_samples: bool
    counts: tuple[int, ...]


def _class_size(n: int, m: int) -> int:
    """The number of simple graphs on {1..n} with m edges, C(N, m) for
    N = C(n, 2), refused when the class holds more than ENUMERATION_CAP
    graphs or more than ENUMERATION_EDGE_CAP edges over all its graphs.

    C(N, m) = C(N, k) for k = min(m, N - m), and C(N, j) grows with j up
    to k, so the walk C(N, j) = C(N, j - 1) (N - j + 1) / j stops as soon
    as it passes ENUMERATION_CAP: a huge class is refused in a few steps,
    and no count of more than a few digits is formed.
    """
    pairs = comb(n, 2)
    total = int(m <= pairs)
    for j in range(1, min(m, pairs - m) + 1):
        total = total * (pairs - j + 1) // j
        if total > ENUMERATION_CAP:
            break
    if total > ENUMERATION_CAP or total * m > ENUMERATION_EDGE_CAP:
        many = total if total <= ENUMERATION_CAP else f"over {ENUMERATION_CAP}"
        raise ValueError(f"{many} graphs of {m} edges is too many to enumerate"
                         f" (caps: {ENUMERATION_CAP} graphs, "
                         f"{ENUMERATION_EDGE_CAP} edges over the class)")
    return total


def enumerate_gnm(n: int, m: int) -> list[LabeledGraph]:
    """All simple graphs on {1..n} with m edges, in lexicographic order.

    The class is counted before any pair is listed (_class_size), so a
    class too large to enumerate is refused at once, whatever n is.
    """
    n = _order("n", n, 0)
    m = _at_least("m", m, 0)
    _class_size(n, m)
    if m == 0:  # combinations() would first list all comb(n, 2) pairs
        return [LabeledGraph(n)]
    pairs = itertools.combinations(range(1, n + 1), 2)
    return [LabeledGraph(n, subset)
            for subset in itertools.combinations(pairs, m)]


def _lex_ranks(n: int, m: int):
    """The map from an (r, m) block of sorted edge keys u * (n + 1) + v to
    each row's index in enumerate_gnm(n, m), for a class _class_size
    allows; it raises RuntimeError on a row outside the class.

    A key maps to its pair index e in 0..N - 1, N = C(n, 2), the place
    of (u, v) among the pairs in lexicographic order; keys sort as pairs
    do, so a simple row's indices come increasing, e_0 < ... < e_{m-1}.
    Its lexicographic rank is C(N, m) - 1 - sum_j C(N - 1 - e_j, m - j):
    the sum counts the m-subsets that come after it.  e_j lies in
    j..j + N - m, so the binomials are kept as a band, band[j, e_j - j],
    of m * (N - m + 1) <= m * C(N, m) entries, which _class_size bounds;
    for m >= 1, m * C(N, m) >= N, so that bounds the (n + 1)^2 pair
    table too.  A key of a loop, of an endpoint past n or outside the
    table (np.take clips it onto key 0 or the loop (n, n)) has index -1,
    and a repeat makes a row that does not increase.
    """
    if m == 0:
        return lambda key: np.zeros(key.shape[0], dtype=np.int64)
    pairs = comb(n, 2)
    total = comb(pairs, m)
    u, v = np.triu_indices(n, 1)
    index = np.full((n + 1) ** 2, -1, dtype=np.int64)
    index[(u + 1) * (n + 1) + v + 1] = np.arange(pairs)
    width = pairs - m + 1
    band = np.array([comb(pairs - 1 - j - d, m - j)
                     for j in range(m) for d in range(width)], dtype=np.int64)
    shift = np.arange(m)[:, None] * (width - 1)  # band[j, e - j]: e + shift[j]

    def ranks(key: np.ndarray) -> np.ndarray:
        e = np.take(index, key.T, mode="clip")  # e[j] is every row's e_j
        if not ((e[0] >= 0).all() and (e[1:] > e[:-1]).all()):
            raise RuntimeError("a sample outside the enumerated class")
        return total - 1 - band.take(e + shift).sum(axis=0)

    return ranks


def exact_census_gnm(n: int, m: int, trials: int,
                     rng=None) -> UniformityReport:
    """Compare sample_gnm against the uniform law on G(n, m).

    Draws `trials` samples and counts how often each graph of the class
    appears, then reports the total-variation distance to uniform plus a
    chi-square statistic.  The samples come from sample_gnm's own
    rejection loop, so they are the graphs of `trials` sample_gnm calls
    on the same generator.  Each graph is counted at its index in
    enumerate_gnm(n, m), its lexicographic rank (_lex_ranks); the class
    is counted, not listed.  With trials = 0 the report carries the
    degenerate distance 1 - 1/graph_count and flags itself; the flag also
    trips whenever trials < graph_count.
    """
    n, m = _gnm_size(n, m)
    trials = _at_least("trials", trials, 0)
    total = _class_size(n, m)
    ranks = _lex_ranks(n, m)
    rng = np.random.default_rng(rng)
    counts = np.zeros(total, dtype=np.int64)
    for key, _ in _simple_pairings(n, m, trials, rng, DEFAULT_GNM_CAP):
        counts += np.bincount(ranks(key), minlength=total)
    counts = counts.tolist()
    if trials == 0:
        return UniformityReport(total, 0, 1.0 - 1.0 / total, None, True,
                                tuple(counts))
    uniform = 1.0 / total
    tv = 0.5 * sum(abs(c / trials - uniform) for c in counts)
    expected = trials / total
    chi = sum((c - expected) ** 2 / expected for c in counts)
    return UniformityReport(total, trials, tv, chi, trials < total,
                            tuple(counts))
