"""The linear forest codec against the heap codec it replaced, at large n.

reference_decode and reference_encode are the heap-based largest-leaf
codec, kept here verbatim as the reference, except that the input checks are
left out and the decode returns its edge list in removal order.  The
decoded edges must equal the reference's, and encode_forest must equal
the reference encoding and give back the decoded sequence.
"""
import heapq

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from degree_lab.forests import decode_sequence, encode_forest


def reference_decode(n, t, seq):
    """Edges (w, y) of the forest coded by seq, in removal order."""
    if not seq:
        return []

    # pending-degree bookkeeping mirroring the removal process
    deg = [0] * (n + 1)
    for w in seq:
        deg[w] += 1
    for v in range(t + 1, n + 1):
        deg[v] += 1

    heap = [-v for v in range(1, n + 1) if deg[v] == 1]
    heapq.heapify(heap)
    edges = []
    for w in seq:
        while True:
            y = -heapq.heappop(heap)
            if deg[y] == 1:
                break
        edges.append((w, y))
        deg[y] -= 1
        deg[w] -= 1
        if deg[w] == 1:
            heapq.heappush(heap, -w)
    return edges


def reference_encode(forest):
    n, t = forest.n, forest.t
    if n == t:
        return ()
    deg = [0] * (n + 1)
    nbrs = [[] for _ in range(n + 1)]
    for u, v in forest.edges:
        u, v = int(u), int(v)
        nbrs[u].append(v)
        nbrs[v].append(u)
        deg[u] += 1
        deg[v] += 1

    # max-heap of candidate leaves, lazy deletion; roots never enter
    heap = [-v for v in range(t + 1, n + 1) if deg[v] == 1]
    heapq.heapify(heap)
    alive = [True] * (n + 1)
    out = []
    for _ in range(n - t):
        while True:
            y = -heapq.heappop(heap)
            if alive[y] and deg[y] == 1:
                break
        x = next(w for w in nbrs[y] if alive[w])
        out.append(x)
        alive[y] = False
        deg[y] = 0
        deg[x] -= 1
        if deg[x] == 1 and x > t:
            heapq.heappush(heap, -x)
    return tuple(out)


def code(n, t, shape, rng):
    """A code of the (n, t) family: uniform, a star, a path, or few labels."""
    if n == t:
        return ()
    size = n - t - 1
    if shape == "uniform":
        body = rng.integers(1, n + 1, size=size)
    elif shape == "star":
        body = np.full(size, int(rng.integers(1, n + 1)))
    elif shape == "path":
        body = np.arange(n - 1, t, -1)
    else:
        body = rng.choice(rng.integers(1, n + 1, size=3), size=size)
    return tuple(int(w) for w in body) + (int(rng.integers(1, t + 1)),)


def check_round_trip(n, t, seq):
    forest = decode_sequence(n, t, seq)
    expected = sorted((min(w, y), max(w, y))
                      for w, y in reference_decode(n, t, seq))
    assert forest.edges.tolist() == [list(e) for e in expected]
    assert encode_forest(forest) == reference_encode(forest) == seq


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_linear_codec_matches_the_heap_codec(data):
    n = data.draw(st.integers(1, 20_000), label="n")
    t = data.draw(st.one_of(st.integers(1, min(n, 8)), st.integers(1, n)),
                  label="t")
    shape = data.draw(st.sampled_from(["uniform", "star", "path", "few"]),
                      label="shape")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1),
                                          label="seed"))
    check_round_trip(n, t, code(n, t, shape, rng))


def test_grown_core_size():
    q, t = 100_000, 4
    check_round_trip(q, t, code(q, t, "uniform", np.random.default_rng(11)))
