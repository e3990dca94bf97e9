"""graphs._components, read off the peel's roots, against two references.

reference_labels is scipy's undirected pass over a COO matrix, its
labels renumbered by smallest member with np.minimum.at, a mask and a
cumulative sum; scipy is a test oracle, not a dependency of the package.
oracle_stats is a union-find over the edge rows.  Both references must
agree with _components, which reads its labels off the roots of one
peel (graphs._roots), on large G(n, m) draws, on grown K4 cores and on
multigraphs with loops and repeated rows, and has_complex_component must
agree with the oracle's per-component counts.
"""
import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from degree_lab.graphs import (LabeledGraph, MultiGraph, _components,
                               has_complex_component)
from degree_lab.samplers import (sample_complex, sample_gnm,
                                 sample_multigraph)

from oracles import UnionFind

N = 100_000
K4 = LabeledGraph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])


def reference_labels(n, edges):
    """Component label per vertex, renumbered by smallest member."""
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    if edges.shape[0] == 0:
        return np.arange(n, dtype=np.int64)
    u = edges[:, 0] - 1
    v = edges[:, 1] - 1
    adj = coo_matrix((np.ones(len(u), dtype=np.int8), (u, v)), shape=(n, n))
    ncomp, raw = connected_components(adj, directed=False)
    first = np.full(ncomp, n, dtype=np.int64)
    np.minimum.at(first, raw, np.arange(n))
    is_first = np.zeros(n, dtype=bool)
    is_first[first] = True
    rank = np.cumsum(is_first) - 1
    return rank[first][raw]


def oracle_stats(n, edges):
    """Union-find labels by smallest member, and the vertex and edge
    count of each component; a loop or a repeated row counts as an edge."""
    uf = UnionFind(range(1, n + 1))
    rows = edges.tolist()
    for u, v in rows:
        uf.union(u, v)
    ids = {}
    labels = [ids.setdefault(uf.find(v), len(ids)) for v in range(1, n + 1)]
    vcounts = np.bincount(labels, minlength=len(ids))
    ecounts = np.bincount([labels[u - 1] for u, _ in rows],
                          minlength=len(ids))
    return np.array(labels, dtype=np.int64), vcounts, ecounts


def check_pass(g):
    count, labels = _components(g.n, g.edges)
    want, vcounts, ecounts = oracle_stats(g.n, g.edges)
    assert count == vcounts.size
    assert np.array_equal(labels, want)
    assert np.array_equal(reference_labels(g.n, g.edges), want)
    assert has_complex_component(g) == bool((ecounts > vcounts).any())


@pytest.mark.parametrize("m", [N // 2, N])
@pytest.mark.parametrize("seed", [1, 2])
def test_gnm_at_a_hundred_thousand_vertices(m, seed):
    check_pass(sample_gnm(N, m, seed))


@pytest.mark.parametrize("seed", [1, 2])
def test_grown_k4_core_at_a_hundred_thousand_vertices(seed):
    g = sample_complex(K4, N, seed)
    check_pass(g)
    assert has_complex_component(g)


@pytest.mark.parametrize("n, m", [(1, 3), (5, 12), (40, 30), (300, 400)])
def test_multigraphs_with_loops_and_repeated_rows(n, m):
    for seed in range(10):
        check_pass(sample_multigraph(n, m, seed))
    g = MultiGraph(6, [(1, 1), (2, 3), (3, 2), (4, 4), (4, 4), (5, 6)])
    assert not g.is_simple()
    check_pass(g)
    assert _components(6, g.edges)[1].tolist() == [0, 1, 1, 2, 3, 3]
    # a loop and a repeated row each lift a component's edge count
    assert has_complex_component(MultiGraph(2, [(1, 1), (1, 2), (1, 2)]))
    assert not has_complex_component(MultiGraph(2, [(1, 1), (1, 2)]))


def test_no_vertices_and_no_edges():
    empty = np.empty((0, 2), dtype=np.int64)
    assert _components(0, empty)[0] == 0
    assert _components(0, empty)[1].size == 0
    count, labels = _components(5, empty)
    assert count == 5 and labels.tolist() == [0, 1, 2, 3, 4]
    check_pass(LabeledGraph(5))
