"""Rooted labeled forests and their sequence encoding.

A rooted forest on vertices 1..n with t trees has its roots at the
vertices 1..t, one per tree.  Such forests are in bijection with the
sequences of length n - t whose first n - t - 1 entries range over 1..n
and whose last entry ranges over 1..t (for n == t the empty sequence).
There are t * n**(n - t - 1) of them.

The encoding repeatedly removes the leaf with the largest label and
records its neighbour.  The largest leaf is never a root: a root of
degree one shares its tree with a second leaf, and that leaf, not being
a root, carries a larger label.  Decoding reverses the process from the
multiset of recorded neighbours.

Degrees can be read off a sequence without decoding: a vertex appears
in the sequence once per removed neighbour, and every non-root is
removed once itself, so

    degree(v) = occurrences(v) + (0 if v <= t else 1).

Uniform sequences are trivial to draw, which makes uniform forests and
their degree sequences cheap to sample.
"""
from __future__ import annotations

import heapq

import numpy as np

from .graphs import (GraphError, LabeledGraph, _component_labels,
                     _EdgeListGraph)


class RootedForest(_EdgeListGraph):
    """Forest on {1..n} with t trees rooted at the vertices 1..t."""

    __slots__ = ("n", "t", "edges")

    def __init__(self, n: int, t: int, edges=()):
        super().__init__(n, edges)
        n = self.n
        t = int(t)
        if not (0 <= t <= n):
            raise GraphError("root count out of range")
        if n > 0 and t == 0:
            raise GraphError("a non-empty forest needs at least one root")
        if self.edges.shape[0] != n - t:
            raise GraphError(f"a forest with {t} trees on {n} vertices "
                             f"has {n - t} edges, got {self.edges.shape[0]}")
        labels = _component_labels(n, self.edges)
        if len(np.unique(labels)) != t:
            raise GraphError("edge set does not form exactly t trees")
        if t > 0 and len(np.unique(labels[:t])) != t:
            raise GraphError("two roots share a tree")
        self.t = t

    def as_graph(self) -> LabeledGraph:
        return LabeledGraph(self.n, self.edges)

    def __repr__(self) -> str:
        return f"RootedForest(n={self.n}, t={self.t})"


def _forest_shape(n, t) -> tuple[int, int]:
    """n and t as ints, checked to describe a rooted forest."""
    n = int(n)
    t = int(t)
    if n < 0 or not (0 <= t <= n) or (n > 0 and t == 0):
        raise ValueError("invalid forest shape")
    return n, t


def forest_count(n: int, t: int) -> int:
    """Number of rooted forests on {1..n} with roots exactly 1..t."""
    n, t = _forest_shape(n, t)
    if n == t:
        return 1
    return t * n ** (n - t - 1)


def _validate_sequence(n: int, t: int, seq) -> tuple[int, ...]:
    seq = tuple(int(w) for w in seq)
    if len(seq) != n - t:
        raise ValueError(f"sequence must have length {n - t}")
    if seq:
        body, last = seq[:-1], seq[-1]
        if any(not 1 <= w <= n for w in body):
            raise ValueError("sequence entry outside 1..n")
        if not 1 <= last <= t:
            raise ValueError("last sequence entry outside 1..t")
    return seq


def encode_forest(forest: RootedForest) -> tuple[int, ...]:
    """Neighbour sequence of the repeated largest-leaf removal."""
    n, t = forest.n, forest.t
    if n == t:
        return ()
    deg = [0] * (n + 1)
    nbrs: list[list[int]] = [[] for _ in range(n + 1)]
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


def decode_sequence(n: int, t: int, seq) -> RootedForest:
    """Inverse of encode_forest."""
    n, t = _forest_shape(n, t)
    seq = _validate_sequence(n, t, seq)
    if not seq:
        return RootedForest(n, t)

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
    return RootedForest(n, t, edges)


def degrees_from_sequence(n: int, t: int, seq) -> np.ndarray:
    """Forest degrees read directly off a sequence, no decoding."""
    n, t = _forest_shape(n, t)
    seq = _validate_sequence(n, t, seq)
    occ = np.bincount(np.asarray(seq, dtype=np.int64), minlength=n + 1)[1:]
    occ[t:] += 1
    return occ


def _draw_sequence(n: int, t: int, rng) -> np.ndarray:
    body = rng.integers(1, n + 1, size=n - t - 1)
    last = rng.integers(1, t + 1)
    return np.append(body, last)


def sample_forest(n: int, t: int, rng=None) -> RootedForest:
    """Uniform rooted forest on {1..n} with roots 1..t."""
    n, t = _forest_shape(n, t)
    if n == t:
        return RootedForest(n, t)
    rng = np.random.default_rng(rng)
    return decode_sequence(n, t, _draw_sequence(n, t, rng))


def sample_forest_degrees(n: int, t: int, rng=None) -> np.ndarray:
    """Degree sequence of a uniform forest, skipping edge construction.

    Consumes the generator exactly as sample_forest does, so with equal
    seeds this returns sample_forest(n, t, seed).degree_sequence().
    """
    n, t = _forest_shape(n, t)
    if n == t:
        return np.zeros(n, dtype=np.int64)
    rng = np.random.default_rng(rng)
    return degrees_from_sequence(n, t, _draw_sequence(n, t, rng))
