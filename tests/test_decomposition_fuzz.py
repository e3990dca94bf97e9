"""Fuzzing of the decomposition: slice invariants, the core against networkx.

A GraphSlice is cut from its host by a vertex mask and never sorts or
checks its input; the properties below are what that construction
guarantees for every slice complex_part, core_of and split return.
"""
import networkx as nx
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from degree_lab.graphs import LabeledGraph, complex_part, core_of, split
from degree_lab.samplers import PipelineSpec, sample_pipeline

K4 = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]


def random_edges(n, m, rng):
    """Up to m distinct non-loop edges on {1..n}, as an (k, 2) array."""
    ends = rng.integers(1, n + 1, size=(m, 2))
    ends = ends[ends[:, 0] != ends[:, 1]]
    ends.sort(axis=1)
    return np.unique(ends, axis=0).reshape(-1, 2)


@st.composite
def block_graphs(draw):
    """Disjoint random blocks under a random relabeling: graphs with
    several complex components, trees and unicyclic pieces."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = draw(st.lists(st.integers(1, 30), min_size=1, max_size=8))
    blocks, offset = [], 0
    for size in sizes:
        ratio = draw(st.floats(0.0, 2.0))
        blocks.append(random_edges(size, int(ratio * size), rng) + offset)
        offset += size
    perm = np.concatenate(([0], rng.permutation(offset) + 1))
    return LabeledGraph(offset, perm[np.vstack(blocks)])


def assert_canonical_slice(s):
    verts, edges = s.vertices, s.edges
    assert not verts.flags.writeable and not edges.flags.writeable
    assert verts.ndim == 1 and edges.ndim == 2 and edges.shape[1] == 2
    if verts.size:
        assert verts[0] >= 1
        assert (np.diff(verts) > 0).all()
    if edges.size:
        u, v = edges[:, 0], edges[:, 1]
        assert (u < v).all()
        assert (np.lexsort((v, u)) == np.arange(len(u))).all()
        assert np.isin(edges, verts).all()


@given(block_graphs())
@settings(max_examples=150, deadline=None)
def test_every_slice_is_canonical(g):
    d = split(g)
    for s in (complex_part(g), core_of(g), d.large_complex, d.small_complex,
              d.non_complex, d.core):
        assert_canonical_slice(s)


def networkx_core(g):
    """2-core of the union of the components with more edges than vertices."""
    h = nx.Graph()
    h.add_nodes_from(range(1, g.n + 1))
    h.add_edges_from(g.edges.tolist())
    keep = set()
    for comp in nx.connected_components(h):
        if h.subgraph(comp).number_of_edges() > len(comp):
            keep |= comp
    return nx.k_core(h.subgraph(keep), 2)


@given(st.integers(1, 10_000), st.floats(0.3, 1.2),
       st.integers(0, 2**32 - 1))
@example(10_000, 0.55, 1)
@example(10_000, 1.0, 2)
@example(3_000, 0.7, 3)
@settings(max_examples=12, deadline=None)
def test_core_matches_networkx_k_core(n, ratio, seed):
    rng = np.random.default_rng(seed)
    g = LabeledGraph(n, random_edges(n, int(ratio * n), rng))
    expected = networkx_core(g)
    core = core_of(g)
    assert core.vertex_set() == set(expected.nodes)
    assert core.edge_set() == {(min(e), max(e)) for e in expected.edges}


def test_equal_core_components_tie_to_the_smallest_label():
    # two K4s: PipelineSpec puts the one on 1..4 in the large part, and
    # split must pick the same one back out of every draw
    core = LabeledGraph(8, K4 + [(u + 4, v + 4) for u, v in K4])
    spec = PipelineSpec(core, 10, 10, 100, 54)
    for seed in range(5):
        d = split(sample_pipeline(spec, seed))
        assert d.core_largest_component.tolist() == [1, 2, 3, 4]
        assert d.large_complex.vertices.tolist() == list(range(1, 11))
        assert d.small_complex.vertices.tolist() == list(range(11, 21))
