"""graphs._peel_to_core peels a whole LabeledGraph or MultiGraph directly.

The peel reads everything off the host's edge rows, so a vertex with no
edge, inside the label range or above the largest endpoint, must never
reach the core, and a vertex whose only edges are loops must stay.  The
last three hosts give the first frontier at least _THIN_FRONTIER leaves,
so a loop, a repeated edge and a row of K2 components meet the peel's
array rounds, not only its single-vertex tail.  The reference is
test_peel_fuzz's worklist peel of the slice that picks every vertex of
the host.

The neighbour sums wrap modulo 2**64 at a vertex with billions of rows,
too many for a test; a test sets one core vertex's sum to the bottom of
int64 instead (the peel never reads a core vertex's sum), so that the
single-vertex tail's subtraction from it must wrap as int64 does.
"""
import numpy as np
import pytest

import degree_lab.graphs as graphs
from degree_lab.graphs import (_THIN_FRONTIER, GraphSlice, LabeledGraph,
                               MultiGraph, _peel_degrees, _peel_to_core)

from test_peel_fuzz import K4, reference_peel


def shifted(edges, by):
    return [(u + by, v + by) for u, v in edges]


def star(centre, first, leaves):
    return [(centre, v) for v in range(first, first + leaves)]


LEAVES = 2 * _THIN_FRONTIER


HOSTS = {
    "edgeless": LabeledGraph(5),
    "no vertices": LabeledGraph(0),
    "isolated inside": LabeledGraph(8, K4 + [(6, 7), (6, 8), (7, 8)]),
    "isolated above": LabeledGraph(9, K4 + [(4, 5)]),
    "isolated inside and above": LabeledGraph(12, shifted(K4, 3) + [(9, 10)]),
    "a lone edge under isolated vertices": LabeledGraph(6, [(1, 2)]),
    "a pendant path above a cycle": LabeledGraph(
        8, [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (5, 6)]),
    "loops only": MultiGraph(4, [(2, 2), (3, 3), (3, 3)]),
    "loops under isolated vertices": MultiGraph(6, [(1, 1), (3, 3)]),
    "a loop at the end of a path": MultiGraph(5, [(1, 2), (2, 3), (3, 3)]),
    "a repeated edge and a leaf": MultiGraph(7, [(2, 4), (2, 4), (4, 6)]),
    "a leafy star on a looped centre": MultiGraph(
        LEAVES + 1, [(1, 1)] + star(1, 2, LEAVES)),
    "leafy stars joined by a repeated edge": MultiGraph(
        2 * LEAVES + 2,
        [(1, 2), (1, 2)] + star(1, 3, LEAVES) + star(2, LEAVES + 3, LEAVES)),
    "a row of K2 components beside a doubled K2": MultiGraph(
        2 * LEAVES + 2, [(2 * i + 1, 2 * i + 2) for i in range(LEAVES)]
        + [(2 * LEAVES + 1, 2 * LEAVES + 2)] * 2),
}


def whole(g):
    return GraphSlice(g, np.ones(g.n, dtype=bool))


@pytest.mark.parametrize("g", HOSTS.values(), ids=HOSTS.keys())
def test_peel_of_a_host_is_the_reference_core(g):
    assert _peel_to_core(g) == reference_peel(whole(g))


def test_random_hosts_with_isolated_vertices():
    rng = np.random.default_rng(22)
    for _ in range(300):
        n = int(rng.integers(1, 30))
        m = int(rng.integers(0, n + 4))
        ends = rng.integers(1, n + 1, size=(m, 2))
        multi = MultiGraph(n + int(rng.integers(0, 4)), ends)
        assert _peel_to_core(multi) == reference_peel(whole(multi))
        if multi.is_simple():
            g = LabeledGraph(multi.n, multi.edges)
            assert _peel_to_core(g) == reference_peel(whole(g))


def test_the_tail_wraps_a_sum_as_int64_does(monkeypatch):
    g = HOSTS["a pendant path above a cycle"]  # core 1, 2, 3; tail 6, 5, 4
    expected = _peel_degrees(g)
    sums = graphs._neighbour_sums
    made = []

    def bottom_at_3(size, edges):
        nsum = sums(size, edges)
        nsum[3] = np.iinfo(np.int64).min
        made.append(nsum)
        return nsum

    monkeypatch.setattr(graphs, "_neighbour_sums", bottom_at_3)
    np.testing.assert_array_equal(_peel_degrees(g), expected)
    # leaf 4 was subtracted: min - 4 modulo 2**64
    assert made[0][3] == np.iinfo(np.int64).max - 3
