"""The peel-degree complex test, and the rows a G(n, m) draw hands over.

has_complex_component peels the graph to its 2-core and answers whether
some vertex keeps degree >= 3, with no component pass.  The reference,
unstripped, is the component rule over the whole graph with no peel
(_complex_components), and networkx is the oracle on a subset: both
must agree with it on every simple graph with at most five vertices, on
random multigraphs with loops and repeated edges, on named shapes where
the peel matters (K2 components, stars, pendant paths, a theta) and on
large G(n, m) draws near the critical point.  With graphs._components
made to raise, it must still answer the named shapes and the random
multigraphs.

sample_gnm_counted builds its graph from the keys the simplicity test
sorted, as checked rows.  The oracle is the checked path: the same
edges passed as an array get every check and must give an equal graph,
whose rows are canonical and read-only.
"""
from itertools import combinations

import networkx as nx
import numpy as np
import pytest

from degree_lab import graphs
from degree_lab.graphs import (LabeledGraph, MultiGraph, _complex_components,
                               has_complex_component)
from degree_lab.samplers import (sample_cs_counted, sample_gnm,
                                 sample_gnm_counted)

N = 100_000


def unstripped(g):
    return bool(_complex_components(g.n, g.edges)[1].any())


def networkx_says(g):
    h = nx.MultiGraph()
    h.add_nodes_from(range(1, g.n + 1))
    h.add_edges_from(g.edges.tolist())
    return any(h.subgraph(c).number_of_edges() > len(c)
               for c in nx.connected_components(h))


def small_simple_graphs():
    for n in range(6):
        pairs = list(combinations(range(1, n + 1), 2))
        for mask in range(1 << len(pairs)):
            yield LabeledGraph(n, [p for i, p in enumerate(pairs)
                                   if mask >> i & 1])


def path(a, b):
    return [(i, i + 1) for i in range(a, b)]


# name -> (n, edges, has a complex component)
SHAPES = {
    "K2": (2, [(1, 2)], False),
    "three K2": (7, [(1, 2), (3, 4), (6, 7)], False),
    "K2 beside K4": (6, [(1, 2), (3, 4), (3, 5), (3, 6), (4, 5), (4, 6),
                         (5, 6)], True),
    "star": (8, [(1, v) for v in range(2, 9)], False),
    "star centred last": (8, [(v, 8) for v in range(1, 8)], False),
    "path": (9, path(1, 9), False),
    "cycle with pendant paths": (
        12, [(1, 2), (2, 3), (1, 3)] + path(3, 7) + [(1, 8)] + path(8, 12),
        False),
    "theta": (5, [(1, 3), (2, 3), (1, 4), (2, 4), (1, 5), (2, 5)], True),
    "theta with pendant paths": (
        9, [(1, 3), (2, 3), (1, 4), (2, 4), (1, 5), (2, 5)] + path(5, 7)
        + [(2, 8), (8, 9)], True),
    "two triangles joined by a long path": (
        30, [(1, 2), (2, 3), (1, 3)] + path(3, 28) + [(28, 29), (29, 30),
                                                     (28, 30)], True),
    "two triangles apart": (
        7, [(1, 2), (2, 3), (1, 3), (5, 6), (6, 7), (5, 7)], False),
    "isolated vertices only": (5, [], False),
    "no vertices": (0, [], False),
}


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_named_shapes(name):
    n, edges, want = SHAPES[name]
    g = LabeledGraph(n, edges)
    assert networkx_says(g) == want
    assert unstripped(g) == want
    assert has_complex_component(g) == want


def test_every_simple_graph_on_at_most_five_vertices():
    graphs = list(small_simple_graphs())
    assert len(graphs) == 1 + 1 + 2 + 8 + 64 + 1024
    outcomes = set()
    for g in graphs:
        want = unstripped(g)
        assert has_complex_component(g) == want, g.edges.tolist()
        outcomes.add(want)
    assert outcomes == {False, True}


def test_graphs_on_four_vertices_against_networkx():
    for g in small_simple_graphs():
        if g.n <= 4:
            assert has_complex_component(g) == networkx_says(g)


def random_multigraphs(count, seed):
    """Multigraphs with loops and repeated rows, some sparse, some not."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 13))
        m = int(rng.integers(0, 2 * n + 2))
        edges = rng.integers(1, n + 1, size=(m, 2))
        if m and rng.random() < 0.5:  # repeat a row, or make one a loop
            i, j = rng.integers(0, m, size=2)
            edges[i] = edges[j] if rng.random() < 0.5 else edges[i, 0]
        yield MultiGraph(n, edges)


def test_random_multigraphs():
    loops = repeats = 0
    for g in random_multigraphs(3000, 7):
        assert has_complex_component(g) == unstripped(g), (g.n,
                                                           g.edges.tolist())
        e = g.edges
        loops += bool((e[:, 0] == e[:, 1]).any())
        repeats += bool((e[1:] == e[:-1]).all(axis=1).any())
    assert loops > 500 and repeats > 500


def test_random_multigraphs_against_networkx():
    for g in random_multigraphs(300, 8):
        assert has_complex_component(g) == networkx_says(g)


def test_no_component_pass(monkeypatch):
    multigraphs = list(random_multigraphs(3000, 7))
    wants = [unstripped(g) for g in multigraphs]

    def refuse(*args):
        raise AssertionError("has_complex_component made a component pass")

    monkeypatch.setattr(graphs, "_components", refuse)
    for name, (n, edges, want) in SHAPES.items():
        assert has_complex_component(LabeledGraph(n, edges)) == want, name
    for g, want in zip(multigraphs, wants):
        assert has_complex_component(g) == want, (g.n, g.edges.tolist())
    assert set(wants) == {False, True}


def test_multigraph_shapes_the_strip_keeps():
    # a vertex with only a loop has degree 2 and is unicyclic
    assert not has_complex_component(MultiGraph(3, [(2, 2)]))
    # a leaf on a loop vertex, and a leaf on a double edge
    assert not has_complex_component(MultiGraph(3, [(1, 1), (1, 2)]))
    assert not has_complex_component(MultiGraph(3, [(1, 2), (1, 2), (2, 3)]))
    # two loops at one vertex, a triple edge, a loop on a cycle
    assert has_complex_component(MultiGraph(2, [(1, 1), (1, 1), (2, 2)]))
    assert has_complex_component(MultiGraph(2, [(1, 2), (1, 2), (1, 2)]))
    assert has_complex_component(MultiGraph(4, [(1, 2), (1, 3), (2, 3),
                                                (3, 3), (3, 4)]))


@pytest.mark.parametrize("m", [45_000, 50_000, 52_000, 55_000])
def test_large_draws_near_the_critical_point(m):
    outcomes = []
    for seed in range(50):
        g = sample_gnm(N, m, seed)
        want = unstripped(g)
        assert has_complex_component(g) == want, seed
        outcomes.append(want)
    if m == 45_000:
        assert not all(outcomes)
    if m == 55_000:
        assert any(outcomes)
    if m == 50_000:
        assert networkx_says(g) == outcomes[-1]


def assert_checked_rows_equal_the_checked_path(g, n):
    assert g.n == n
    assert g == LabeledGraph(n, g.edges.copy())
    assert g.edges.dtype == np.int64 and g.edges.shape[1] == 2
    assert g.edges.flags.c_contiguous and not g.edges.flags.writeable


@pytest.mark.parametrize("n, m", [(4, 3), (10, 20), (N, N // 2)])
def test_gnm_draws_equal_the_checked_path(n, m):
    for seed in range(200):
        g, attempts = sample_gnm_counted(n, m, seed)
        assert attempts >= 1
        assert_checked_rows_equal_the_checked_path(g, n)


# (10, 20) has no complex-free graph (m > n), so cs runs at (10, 10)
@pytest.mark.parametrize("n, m", [(4, 3), (10, 10), (N, N // 2)])
def test_cs_draws_equal_the_checked_path(n, m):
    for seed in range(200):
        g, _ = sample_cs_counted(n, m, seed)
        assert_checked_rows_equal_the_checked_path(g, n)
        assert not unstripped(g)


def test_gnm_with_no_edges():
    g, attempts = sample_gnm_counted(5, 0, 1)
    assert attempts == 1
    assert_checked_rows_equal_the_checked_path(g, 5)
    assert g.num_edges == 0


def test_is_simple_on_loop_only_and_repeat_only_multigraphs():
    # with a loop in every row no key is sorted
    assert not MultiGraph(3, [(1, 1)]).is_simple()
    assert not MultiGraph(3, [(1, 1), (2, 2), (3, 3)]).is_simple()
    assert not MultiGraph(3, [(1, 1), (1, 2)]).is_simple()
    assert not MultiGraph(3, [(1, 2), (2, 1)]).is_simple()
    assert not MultiGraph(3, [(1, 2), (2, 3), (1, 2), (1, 2)]).is_simple()
    assert MultiGraph(3, [(1, 2), (2, 3), (1, 3)]).is_simple()
    assert MultiGraph(3).is_simple()
    assert MultiGraph(0).is_simple()


def test_is_simple_on_random_multigraphs():
    for g in random_multigraphs(1000, 9):
        rows = g.edges.tolist()
        want = (all(u != v for u, v in rows)
                and len(set(map(tuple, rows))) == len(rows))
        assert g.is_simple() == want
