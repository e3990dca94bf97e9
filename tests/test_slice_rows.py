"""GraphSlice picks its rows with np.compress; they must be the rows a
boolean mask picks.

A slice keeps the host rows with both endpoints picked, in host order, as
a read-only array that is still canonical: every row has u <= v and the
rows are sorted by (u, v).  The cases are random simple and multigraph
hosts under random masks, an all-False mask, an edgeless host, and a
mask shorter than the host's label range.
"""
import numpy as np
import pytest

from degree_lab.graphs import GraphSlice, LabeledGraph, MultiGraph


def masked_rows(host, vmask):
    """The boolean-mask selection the slice must equal."""
    vmask = np.asarray(vmask, dtype=bool)
    e = host.edges
    return e[vmask[e[:, 0] - 1] & vmask[e[:, 1] - 1]]


def assert_slice_rows(host, vmask):
    part = GraphSlice(host, vmask)
    want = masked_rows(host, vmask)
    assert part.edges.shape == want.shape and part.edges.dtype == want.dtype
    assert np.array_equal(part.edges, want)
    assert not part.edges.flags.writeable
    assert not part.vertices.flags.writeable
    assert (part.edges[:, 0] <= part.edges[:, 1]).all()
    key = part.edges[:, 0] * (int(part.edges.max(initial=0)) + 1) \
        + part.edges[:, 1]
    assert (np.diff(key) >= 0).all()
    assert np.array_equal(part.vertices,
                          np.flatnonzero(np.asarray(vmask, dtype=bool)) + 1)
    return part


def random_host(rng):
    n = int(rng.integers(1, 200))
    ends = rng.integers(1, n + 1, size=(int(rng.integers(0, 3 * n)), 2))
    multi = MultiGraph(n, ends)
    if multi.is_simple():
        return LabeledGraph(n, multi.edges)
    return multi


@pytest.mark.parametrize("seed", range(20))
def test_random_hosts_and_masks(seed):
    rng = np.random.default_rng(seed)
    for _ in range(10):
        host = random_host(rng)
        assert_slice_rows(host, rng.random(host.n) < rng.random())
        assert_slice_rows(host, np.ones(host.n, dtype=bool))


def test_a_slice_of_a_slice():
    rng = np.random.default_rng(5)
    host = MultiGraph(300, rng.integers(1, 301, size=(900, 2)))
    outer = assert_slice_rows(host, rng.random(300) < 0.8)
    assert_slice_rows(outer, rng.random(300) < 0.8)


def test_an_all_false_mask_keeps_no_rows():
    host = LabeledGraph(6, [(1, 2), (2, 3), (4, 6)])
    part = assert_slice_rows(host, np.zeros(6, dtype=bool))
    assert part.edges.shape == (0, 2) and part.is_empty


@pytest.mark.parametrize("n", [0, 1, 7])
def test_an_edgeless_host(n):
    host = LabeledGraph(n)
    assert_slice_rows(host, np.ones(n, dtype=bool))
    part = assert_slice_rows(host, np.zeros(n, dtype=bool))
    assert part.edges.shape == (0, 2)


def test_a_mask_shorter_than_the_label_range():
    host = MultiGraph(12, [(1, 2), (2, 2), (2, 5), (3, 5), (3, 5), (4, 6)])
    part = assert_slice_rows(host, [True, True, False, True, True, True])
    assert part.edges.tolist() == [[1, 2], [2, 2], [2, 5], [4, 6]]
    assert part.vertices.tolist() == [1, 2, 4, 5, 6]
