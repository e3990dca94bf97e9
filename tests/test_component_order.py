"""The order of component labels, against a union-find oracle.

_component_labels numbers components by their smallest vertex, and
components(), split and the core's largest component all rely on that
order: components() lists components by increasing smallest vertex, and
_largest_component breaks ties between equal-size components toward the
one holding the smallest label.  Graphs are disjoint blocks under a
random relabeling, with blocks of equal size so that ties occur.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from degree_lab.graphs import (LabeledGraph, _component_labels,
                               _largest_component, components)

from oracles import UnionFind


@st.composite
def relabeled_blocks(draw):
    """Disjoint connected blocks (random recursive trees with extra
    edges), some of equal size, under a random relabeling."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = draw(st.lists(st.integers(1, 12), min_size=1, max_size=10))
    sizes += draw(st.lists(st.sampled_from(sizes), max_size=4))
    edges, n = set(), 0
    for size in sizes:
        edges |= {(n + 1 + int(rng.integers(0, j)), n + 1 + j)
                  for j in range(1, size)}
        if size > 1:
            for _ in range(draw(st.integers(0, 3))):
                a, b = sorted(rng.choice(size, 2, replace=False) + n + 1)
                edges.add((int(a), int(b)))
        n += size
    perm = np.append(0, rng.permutation(n) + 1)
    edges = np.array(sorted(edges), dtype=np.int64).reshape(-1, 2)
    return LabeledGraph(n, perm[edges])


def oracle_labels(g):
    """Component label per vertex, numbered by smallest member."""
    uf = UnionFind(range(1, g.n + 1))
    for u, v in g.edges.tolist():
        uf.union(u, v)
    ids = {}
    # vertices in increasing order meet each component first at its minimum
    return np.array([ids.setdefault(uf.find(v), len(ids))
                     for v in range(1, g.n + 1)], dtype=np.int64)


@given(relabeled_blocks())
@settings(max_examples=100, deadline=None)
def test_labels_are_numbered_by_smallest_member(g):
    assert np.array_equal(_component_labels(g.n, g.edges), oracle_labels(g))


@given(relabeled_blocks())
@settings(max_examples=100, deadline=None)
def test_components_are_listed_by_smallest_vertex(g):
    labels = oracle_labels(g)
    comps = components(g)
    smallest = [int(verts[0]) for verts, _ in comps]
    assert smallest == sorted(smallest)
    assert len(comps) == labels.max() + 1
    for c, (verts, m) in enumerate(comps):
        assert verts.tolist() == (np.flatnonzero(labels == c) + 1).tolist()
        assert m == int((labels[g.edges[:, 0] - 1] == c).sum())


@given(relabeled_blocks())
@settings(max_examples=100, deadline=None)
def test_largest_component_ties_go_to_the_smallest_label(g):
    labels = oracle_labels(g)
    sizes = np.bincount(labels)
    # the first vertex whose component has the largest size
    first = int(np.flatnonzero(sizes[labels] == sizes.max())[0])
    expected = labels == labels[first]
    assert np.array_equal(_largest_component(g.n, g.edges), expected)


def test_isolated_vertices_are_their_own_components():
    assert _component_labels(4, np.empty((0, 2), dtype=np.int64)).tolist() \
        == [0, 1, 2, 3]
    g = LabeledGraph(5, [(5, 3)])
    assert _component_labels(5, g.edges).tolist() == [0, 1, 2, 3, 2]
    assert _largest_component(5, g.edges).tolist() == [False, False, True,
                                                       False, True]
    assert _component_labels(0, g.edges[:0]).size == 0
