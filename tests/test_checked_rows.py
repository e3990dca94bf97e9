"""Rows the package draws itself reach their constructors checked.

decode_sequence hands RootedForest its rows without the component pass,
and sample_complex hands LabeledGraph the rows of core and forest
without the loop and repeat tests.  The oracle is the checked path: the
same edges passed as an array get every check and must give an equal
graph.  The rows must also be canonical on their own terms (u <= v, in
increasing (u, v) order), which the checked path cannot tell when both
share a wrong ordering step.  Outside input keeps every check.
"""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from degree_lab.edgelist import read_edge_list
from degree_lab.forests import RootedForest, decode_sequence
from degree_lab.graphs import GraphError, LabeledGraph
from degree_lab.samplers import sample_complex

K4 = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
# two vertices joined by three paths of length two
THETA = [(1, 3), (3, 2), (1, 4), (4, 2), (1, 5), (5, 2)]


def assert_canonical_rows(edges):
    assert edges.dtype == np.int64 and edges.ndim == 2
    assert edges.shape[1] == 2
    assert edges.flags.c_contiguous and not edges.flags.writeable
    rows = edges.tolist()
    assert all(u <= v for u, v in rows)
    assert rows == sorted(rows)


@st.composite
def codes(draw):
    n = draw(st.integers(0, 60))
    t = draw(st.integers(min(n, 1), n))
    if n == t:
        return n, t, []
    body = draw(st.lists(st.integers(1, n), min_size=n - t - 1,
                         max_size=n - t - 1))
    return n, t, body + [draw(st.integers(1, t))]


@given(codes())
@example((0, 0, []))
@example((7, 7, []))
@example((1, 1, []))
@example((60, 1, [60] * 58 + [1]))
@example((60, 59, [1]))
@example((2, 1, [1]))
@settings(max_examples=200, deadline=None)
def test_decoded_forests_pass_every_check(code):
    n, t, seq = code
    f = decode_sequence(n, t, seq)
    assert_canonical_rows(f.edges)
    assert RootedForest(n, t, f.edges) == f
    assert RootedForest(n, t, f.edges.tolist()) == f


def test_decoded_forest_at_q_1e5():
    q, t = 100_000, 4
    rng = np.random.default_rng(20201029)
    seq = np.append(rng.integers(1, q + 1, size=q - t - 1),
                    rng.integers(1, t + 1))
    f = decode_sequence(q, t, seq)
    assert_canonical_rows(f.edges)
    assert RootedForest(q, t, f.edges) == f


@pytest.mark.parametrize("core", [K4, THETA], ids=["k4", "theta"])
@pytest.mark.parametrize("q, seed", [(5, 0), (40, 1), (100_000, 2)])
def test_grown_graphs_pass_every_check(core, q, seed):
    core = LabeledGraph(max(max(e) for e in core), core)
    g, forest = sample_complex(core, q, seed, return_forest=True)
    assert_canonical_rows(g.edges)
    assert LabeledGraph(q, g.edges) == g
    assert g.num_edges == core.num_edges + forest.num_edges


def test_roots_sharing_a_tree_in_a_file_are_refused(tmp_path):
    # two trees, {1, 2, 3} and {4}, but the roots 1 and 2 share the first
    path = tmp_path / "forest.txt"
    path.write_text("4 2 roots=2\n1 3\n3 2\n")
    with pytest.raises(GraphError, match="two roots share a tree"):
        read_edge_list(path)
