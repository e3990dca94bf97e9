"""The frontier peel of graphs._peel_to_core against the worklist it replaced.

reference_peel is the Batagelj-Zaversnik worklist peel, kept here verbatim
as the reference.  The 2-core is unique, so both peels must return the
same slice on every input; the inputs below are the ones on which a
round-by-round peel can go wrong: long pendant paths (one vertex per
round), stars (many leaves reach one vertex in one round), slices that
are a lone edge or a whole tree (adjacent leaves die in the same round)
and grown K4 cores at q = 10**5, plus every simple graph on at most five
vertices.
"""
import itertools

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from degree_lab.graphs import (_THIN_FRONTIER, GraphSlice, LabeledGraph,
                               _peel_to_core, complex_part)
from degree_lab.samplers import sample_complex

K4 = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]


def reference_peel(part: GraphSlice) -> GraphSlice:
    """Worklist peel of degree <= 1 vertices; O(order + size)."""
    if part.size == 0:
        return GraphSlice(part, np.zeros(0, dtype=bool))
    hi = int(part.vertices[-1])
    # flat adjacency in CSR form over labels 0..hi
    src = np.concatenate((part.edges[:, 0], part.edges[:, 1]))
    dst = np.concatenate((part.edges[:, 1], part.edges[:, 0]))
    order = np.argsort(src, kind="stable")
    neighbors = dst[order].tolist()
    deg = np.bincount(src, minlength=hi + 1)
    indptr = [0] + np.cumsum(deg).tolist()
    degl = deg.tolist()
    alive = np.zeros(hi + 1, dtype=bool)
    alive[part.vertices] = True
    alive_l = alive.tolist()

    stack = [v for v in part.vertices.tolist() if degl[v] <= 1]
    while stack:
        y = stack.pop()
        if not alive_l[y] or degl[y] >= 2:
            continue
        alive_l[y] = False
        for w in neighbors[indptr[y]:indptr[y + 1]]:
            if alive_l[w]:
                degl[w] -= 1
                if degl[w] == 1:
                    stack.append(w)
    return GraphSlice(part, alive_l[1:])


def relabeled(n, edges, seed):
    """The graph on 1..n with its labels permuted at random."""
    perm = np.random.default_rng(seed).permutation(n) + 1
    return LabeledGraph(n, np.append(0, perm)[np.asarray(edges)])


def assert_same_core(part):
    got = _peel_to_core(part)
    assert got == reference_peel(part)
    return got


def whole(g):
    return GraphSlice(g, np.ones(g.n, dtype=bool))


@given(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 50_000)),
                min_size=1, max_size=3),
       st.integers(0, 2**32 - 1))
@example([(4, 50_000)], 1)
@example([(1, 50_000), (2, 49_999), (2, 1)], 2)
@settings(max_examples=8, deadline=None)
def test_pendant_paths_off_a_k4(paths, seed):
    edges, n = list(K4), 4
    for anchor, length in paths:
        chain = np.arange(n + 1, n + length + 1)
        edges += zip(np.concatenate(([anchor], chain[:-1])).tolist(),
                     chain.tolist())
        n += length
    core = assert_same_core(complex_part(relabeled(n, edges, seed)))
    assert core.order == 4 and core.size == 6


@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 3),
                          st.integers(1, 2_000)),
                min_size=1, max_size=6),
       st.integers(0, 2**32 - 1))
@example([(1, 2, _THIN_FRONTIER - 1)], 0)
@example([(1, 2, _THIN_FRONTIER)], 0)
@example([(1, 2, _THIN_FRONTIER + 1)], 0)
@settings(max_examples=40, deadline=None)
def test_stars(stars, seed):
    """Star centres hang off a K4 vertex by a path of 0..3 edges (anchor
    0: a free star, a whole tree); all the leaves of a star die in the
    first round and its centre in the second.  The three examples put
    just under, at and just over _THIN_FRONTIER leaves on one star, so
    its leaves are peeled one at a time or as one round."""
    edges, n = list(K4), 4
    for anchor, stem, leaves in stars:
        path = list(range(n + 1, n + stem + 2))
        n += stem + 1
        if anchor:
            path = [anchor] + path
        edges += zip(path[:-1], path[1:])
        edges += [(path[-1], n + i) for i in range(1, leaves + 1)]
        n += leaves
    g = relabeled(n, edges, seed)
    assert_same_core(whole(g))
    assert_same_core(complex_part(g))


@st.composite
def forests_with_cycles(draw):
    """Disjoint lone edges, random trees and K4s with trees hanging off
    them, under a random relabeling, plus the component label per vertex."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(["edge", "tree", "k4"]),
                          min_size=1, max_size=8))
    edges, comp, n = [], [], 0
    for i, kind in enumerate(kinds):
        size = {"edge": 2, "tree": draw(st.integers(1, 60)),
                "k4": draw(st.integers(4, 60))}[kind]
        # a uniform random recursive tree on n+1..n+size, and for a k4
        # block the K4 on its first four vertices
        parents = [int(rng.integers(0, j)) for j in range(1, size)]
        block = {(n + 1 + p, n + 2 + j) for j, p in enumerate(parents)}
        if kind == "k4":
            block |= {(n + a, n + b) for a, b in K4}
        edges += sorted(block)
        comp += [i] * size
        n += size
    perm = rng.permutation(n)
    edges = np.array(edges, dtype=np.int64).reshape(-1, 2)
    g = LabeledGraph(n, np.append(0, perm + 1)[edges])
    labels = np.empty(n, dtype=np.int64)
    labels[perm] = comp
    return g, labels, len(kinds)


@given(forests_with_cycles(), st.data())
@settings(max_examples=80, deadline=None)
def test_slices_of_lone_edges_and_whole_trees(case, data):
    g, labels, count = case
    pick = data.draw(st.lists(st.integers(0, count - 1), min_size=1,
                              max_size=count))
    assert_same_core(GraphSlice(g, np.isin(labels, pick)))
    assert_same_core(whole(g))
    mask = data.draw(st.lists(st.booleans(), min_size=g.n, max_size=g.n))
    assert_same_core(GraphSlice(g, mask))


def test_every_graph_on_at_most_five_vertices():
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for bits in range(1 << len(pairs)):
            edges = [p for i, p in enumerate(pairs) if bits >> i & 1]
            assert_same_core(whole(LabeledGraph(n, edges)))


def test_a_lone_edge_and_a_lone_vertex_peel_away():
    g = LabeledGraph(3, [(1, 3)])
    assert assert_same_core(whole(g)).is_empty
    assert assert_same_core(GraphSlice(g, [False, True, False])).is_empty


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=3, deadline=None)
def test_grown_k4_cores(seed):
    g = sample_complex(LabeledGraph(4, K4), 100_000, seed)
    core = assert_same_core(complex_part(g))
    assert core.vertices.tolist() == [1, 2, 3, 4]
