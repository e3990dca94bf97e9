"""The two ways a forest code reaches the decode, and what the decode costs.

A code from outside is checked (decode_sequence, degrees_from_sequence);
a drawn code is valid by construction and reaches the same decode and
degree count unchecked (sample_forest, sample_forest_degrees), so both
paths must give the same forest for the same code.  The decode keys its
arrays by the m = n - t non-roots: a forest of one edge at n = 10**7
must decode in a few bytes, and codes with many roots or few non-roots
must still decode as oracles.pointer_decode does.
"""
import tracemalloc

import numpy as np
import pytest

from degree_lab.forests import (_draw_sequence, decode_sequence,
                                degrees_from_sequence, sample_forest,
                                sample_forest_degrees)
from degree_lab.graphs import LabeledGraph
from oracles import pointer_decode

N = 100_000
HUGE = 10**7


def peak_bytes(call):
    """tracemalloc's peak over a second call, after a warm-up call."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("call", [
    lambda: decode_sequence(HUGE, HUGE - 1, [1]),
    lambda: sample_forest(HUGE, HUGE - 1, 0),
], ids=["decode_sequence", "sample_forest"])
def test_one_edge_at_1e7_peaks_under_a_mebibyte(call):
    peak = peak_bytes(call)
    assert peak < 2**20, f"peak {peak} bytes for one edge at n = {HUGE}"


@pytest.mark.parametrize("order", ["random", "sorted"])
@pytest.mark.parametrize("t", [N - 1, N - 3, N // 2])
def test_many_roots_decode_as_the_pointer_loop(t, order):
    rng = np.random.default_rng(t)
    body = rng.integers(1, N + 1, size=N - t - 1)
    if order == "sorted":
        body.sort()
    seq = np.append(body, rng.integers(1, t + 1))
    leaves = np.asarray(pointer_decode(N, t, seq), dtype=np.int64)
    u, v = np.minimum(seq, leaves), np.maximum(seq, leaves)
    rows = np.lexsort((v, u))
    expected = np.column_stack((u[rows], v[rows]))
    assert np.array_equal(decode_sequence(N, t, seq).edges, expected)


@pytest.mark.parametrize("n, t", [(0, 0), (1, 1), (6, 6), (2, 1), (10, 3),
                                  (1_000, 1), (1_000, 999), (N, 4)])
@pytest.mark.parametrize("seed", range(3))
def test_a_drawn_code_decodes_alike_on_both_paths(n, t, seed):
    shape_n, shape_t, seq = _draw_sequence(n, t, seed)
    assert (shape_n, shape_t) == (n, t)
    forest = decode_sequence(n, t, seq)
    assert sample_forest(n, t, seed) == forest
    degrees = degrees_from_sequence(n, t, seq)
    assert np.array_equal(sample_forest_degrees(n, t, seed), degrees)
    assert np.array_equal(forest.degree_sequence(), degrees)
    # as_graph hands its rows over unchecked; the checked path agrees
    assert forest.as_graph() == LabeledGraph(n, forest.edges.tolist())
