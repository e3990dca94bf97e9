"""The core partition has one owner: graphs.split.

split picks the largest core component among core vertices only, so a
non-core label never stands in for it, also in a multigraph whose core
is a single looped vertex.  Its three parts partition the vertices and
the edges of the input, and a pipeline's core blocks are split's parts
of its core.  split reads the largest core component off the labels of
its one component pass, and runs no second pass over the core.
"""
import itertools

import numpy as np
import pytest
from oracles import uf_components

from degree_lab import graphs
from degree_lab.graphs import LabeledGraph, MultiGraph, split
from degree_lab.samplers import PipelineSpec, sample_multigraph


def vertex_set(part):
    return {int(v) for v in part.vertices}


@pytest.mark.parametrize("g, large, rest, core", [
    (MultiGraph(5, [(5, 5), (5, 5)]), {5}, {1, 2, 3, 4}, {5}),
    (MultiGraph(3, [(1, 2), (2, 3), (3, 3), (3, 3)]), {1, 2, 3}, set(), {3}),
])
def test_split_ranks_core_vertices_only(g, large, rest, core):
    parts = split(g)
    assert vertex_set(parts.large_complex) == large
    assert vertex_set(parts.small_complex) == set()
    assert vertex_set(parts.non_complex) == rest
    assert vertex_set(parts.core) == core
    assert parts.core_largest_component.tolist() == sorted(core)


def oracle_largest_core_component(g, core):
    """The largest component of the core by union-find, ties to the one
    holding the smallest label; empty for an empty core."""
    inside = vertex_set(core)
    comps = [c for c in uf_components(g.n, core.edges.tolist())
             if c[0] in inside]
    # comps is sorted by smallest label, and max keeps the first of a tie
    return list(max(comps, key=len, default=()))


def test_split_partitions_multigraph_draws():
    cores = smalls = 0
    for (n, m), seed in itertools.product([(8, 7), (30, 25), (300, 200)],
                                          range(40)):
        g = sample_multigraph(n, m, seed)
        parts = split(g)
        pieces = (parts.large_complex, parts.small_complex, parts.non_complex)
        vertices = np.concatenate([p.vertices for p in pieces])
        assert sorted(vertices.tolist()) == list(range(1, n + 1))
        edges = np.concatenate([p.edges for p in pieces])
        assert sorted(map(tuple, edges.tolist())) == sorted(
            map(tuple, g.edges.tolist()))
        best = parts.core_largest_component.tolist()
        assert best == oracle_largest_core_component(g, parts.core)
        assert set(best) <= vertex_set(parts.core)
        assert set(best) <= vertex_set(parts.large_complex)
        assert bool(best) == (parts.core.order > 0)
        cores += parts.core.order > 0
        smalls += parts.small_complex.order > 0
    assert cores and smalls  # the draws reach both cases


def k4(a, b, c, d):
    return [(a, b), (a, c), (a, d), (b, c), (b, d), (c, d)]


@pytest.mark.parametrize("core", [
    LabeledGraph(8, k4(1, 2, 3, 4) + k4(5, 6, 7, 8)),
    LabeledGraph(8, k4(2, 4, 6, 8) + k4(1, 3, 5, 7)),
    LabeledGraph(12, k4(5, 6, 7, 8) + k4(9, 10, 11, 12) + k4(1, 2, 3, 4)),
])
def test_pipeline_core_blocks_are_splits_parts(core):
    parts = split(core)
    large, rest = parts.large_complex, parts.small_complex
    assert 1 in vertex_set(large)  # the tie goes to the smallest label
    spec = PipelineSpec(core, large.order, rest.order, 40, 30)
    blocks = spec._parts
    assert [b.n for b in blocks] == [large.order, rest.order]
    for block, part in zip(blocks, (large, rest)):
        assert block.num_edges == part.size
        assert np.array_equal(
            block.edges, np.searchsorted(part.vertices, part.edges) + 1)


def test_split_runs_one_component_pass(monkeypatch):
    calls = []
    real = graphs._roots

    def counted(n, edges):
        calls.append(n)
        return real(n, edges)

    monkeypatch.setattr(graphs, "_roots", counted)
    # two complex components, whose cores are two K4s, and a tree
    parts = split(LabeledGraph(11, k4(1, 2, 3, 4) + k4(5, 6, 7, 8)
                               + [(4, 9), (10, 11)]))
    assert calls == [11]
    assert parts.core_largest_component.tolist() == [1, 2, 3, 4]
    assert parts.small_complex.vertex_set() == {5, 6, 7, 8}
