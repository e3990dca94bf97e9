"""The order of component labels, against a union-find oracle.

_components numbers components by their smallest vertex, and
components() and split rely on that order: components() lists
components by increasing smallest vertex, and split breaks ties between
equal-size core components toward the one holding the smallest core
label.  Graphs are disjoint blocks under a random relabeling, with
blocks (or, for split, cores) of equal size so that ties occur.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from degree_lab.graphs import LabeledGraph, _components, components, split

from oracles import UnionFind, uf_components


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
    assert np.array_equal(_components(g.n, g.edges)[1], oracle_labels(g))


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


@st.composite
def relabeled_complex_blocks(draw):
    """Disjoint blocks under a random relabeling, and the core's labels.

    Each complex block is a cycle with one chord, which is its core,
    plus a pendant tree; the largest core size occurs at least twice, so
    the largest core component is always a tie.  Tree blocks peel away.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cores = draw(st.lists(st.integers(4, 8), min_size=1, max_size=6))
    cores += draw(st.lists(st.sampled_from(cores), max_size=3))
    cores.append(max(cores))
    cores = draw(st.permutations(cores))
    edges, n, core = [], 0, []
    for size in cores:
        cycle = list(range(n + 1, n + size + 1))
        edges += list(zip(cycle, cycle[1:] + cycle[:1]))
        edges.append((cycle[0], cycle[2]))
        core += cycle
        pendant = draw(st.integers(0, 4))
        edges += [(int(rng.integers(n + 1, n + size + j + 1)), n + size + j + 1)
                  for j in range(pendant)]
        n += size + pendant
    for size in draw(st.lists(st.integers(1, 6), max_size=3)):
        edges += [(n + 1 + int(rng.integers(0, j)), n + 1 + j)
                  for j in range(1, size)]
        n += size
    perm = np.append(0, rng.permutation(n) + 1)
    edges = np.array(edges, dtype=np.int64).reshape(-1, 2)
    return LabeledGraph(n, perm[edges]), {int(v) for v in perm[core]}


@given(relabeled_complex_blocks())
@settings(max_examples=100, deadline=None)
def test_largest_component_ties_go_to_the_smallest_label(case):
    g, core = case
    core_edges = [(u, v) for u, v in g.edges.tolist() if {u, v} <= core]
    core_comps = [c for c in uf_components(g.n, core_edges) if c[0] in core]
    # sorted by smallest label, and max keeps the first of a tie
    best = max(core_comps, key=len)
    blocks = [set(c) for c in uf_components(g.n, g.edges.tolist())
              if core.intersection(c)]
    large = next(b for b in blocks if best[0] in b)
    parts = split(g)
    assert parts.core_largest_component.tolist() == list(best)
    assert parts.core.vertex_set() == core
    assert parts.large_complex.vertex_set() == large
    assert parts.small_complex.vertex_set() == set().union(*blocks) - large


def test_isolated_vertices_are_their_own_components():
    assert _components(4, np.empty((0, 2), dtype=np.int64))[1].tolist() \
        == [0, 1, 2, 3]
    g = LabeledGraph(5, [(5, 3)])
    assert _components(5, g.edges)[1].tolist() == [0, 1, 2, 3, 2]
    assert _components(0, g.edges[:0])[1].size == 0
