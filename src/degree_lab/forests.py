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

The encoding is one flat loop.  A pointer scans the labels downward for
a vertex of degree one, and never moves up.  When a removal leaves the
removed leaf's neighbour x with degree one and x lies above the
pointer, x is the largest leaf and goes next; otherwise the pointer
moves down to the next vertex of degree one.  So the pass is linear.  A
leaf's neighbour is the sum of the labels of its neighbours not yet
removed (graphs._neighbour_sums; a forest's sums never exceed
n(n + 1)/2, so they fit in int64), and the loop calls no function per
step.  Sequences are 1-D int64 arrays;
encode_forest returns a tuple of ints.

The decoding has no per-step loop.  Number the steps 0..m-1, m = n - t,
and let l(x) be the last position of x in the sequence (-1 when x does
not occur).  A non-root x has degree occurrences(x) + 1, so it is a
leaf from step l(x) + 1 until it is removed, and step i removes the
largest non-root x left with l(x) < i; its parent is seq[i].  Call a set
C of the non-roots that occur a chain set when for each of them

    x in C  iff  above(x) + before(x) <= l(x),

where above(x) counts the non-roots w > x outside C and before(x) the
y in C with l(y) < l(x).  Remove each y in C at step l(y) + 1 (these
steps are distinct), and the other non-roots, the stops, in decreasing
label order at the remaining steps in increasing order.  That is the
largest-leaf schedule, which is unique, so every chain set gives it:

- Each vertex is a leaf when it is removed.  For y in C that holds by
  construction.  The j-th largest stop s with l(s) >= 0 is outside C,
  so at most l(s) + 1 - before(s) <= above(s) = j - 1 of the steps
  0..l(s) are free, and s goes at a later step.
- Each vertex is the largest leaf left.  For y in C, at least
  l(y) + 1 - before(y) >= above(y) + 1 of the steps 0..l(y) are free,
  so the above(y) stops larger than y are gone by step l(y) + 1, and so
  is each chain vertex w > y with l(w) < l(y).  For a stop s at free
  step f, the larger stops went at earlier free steps, and a chain
  vertex w > s that is a leaf at f has l(w) + 1 < f, f being free.

The decode (_decode) finds a chain set as a fixpoint.  Starting from
C = {}, each round recomputes C by the rule, with one cumsum over the
candidates in label order (above) and one in time order (before), until
C no longer changes.  The first round is closed-form, n - x <= l(x).  On
every code tried (all codes with n <= 8, 40 000 random, sorted and
reversed codes with n < 25, and uniform, sorted and strided codes at
n = 10**5) each round only added vertices.  A set that grows at every
round settles within #candidates + 1 rounds after the first; past that
bound the decode raises rather than return a forest from a set that has
not settled.  A uniform code at n = 10**5 takes four rounds and a
confirming one (36 727, 11 751, 1 439 and 37 vertices added); sorted
codes take up to about log2(n) rounds, 18 for the ascending code at
10**5.  The roots are never candidates and never stops, so the decode
keys its arrays by the m non-roots, x - t for x in t+1..n, and takes
O(m) time and memory whatever n is: a forest of one edge at n = 10**7
needs arrays of at most two slots, not of 10**7.

Degrees can be read off a sequence without decoding: a vertex appears
in the sequence once per removed neighbour, and every non-root is
removed once itself, so

    degree(v) = occurrences(v) + (0 if v <= t else 1).

Uniform sequences are trivial to draw, which makes uniform forests and
their degree sequences cheap to sample.

A code reaches the decode and the degree count (_degrees) through one
of two entry points, each giving n, t and the code.  _validate_sequence
checks a code from outside (decode_sequence, degrees_from_sequence).
_draw_sequence draws one (sample_forest, sample_forest_degrees): its
first n - t - 1 entries come from 1..n and its last from 1..t, so every
draw is a valid code and is not checked again.

RootedForest keeps every check for outside input (lists, arrays,
edge-list files), down to a component pass.  Only the forests that
_decode builds skip that pass, as checked rows: every valid code
decodes to a rooted forest.
"""
from __future__ import annotations

import numpy as np

from .graphs import (GraphError, LabeledGraph, _Checked, _components,
                     _EdgeListGraph, _key_rows, _neighbour_sums, _order,
                     _whole)


class RootedForest(_EdgeListGraph):
    """Forest on {1..n} with t trees rooted at the vertices 1..t."""

    __slots__ = ("n", "t", "edges")

    def __init__(self, n: int, t: int, edges=()):
        super().__init__(n, edges)
        n = self.n
        t = _whole("t", t)
        if not (0 <= t <= n):
            raise GraphError("root count out of range")
        if n > 0 and t == 0:
            raise GraphError("a non-empty forest needs at least one root")
        if self.edges.shape[0] != n - t:
            raise GraphError(f"a forest with {t} trees on {n} vertices "
                             f"has {n - t} edges, got {self.edges.shape[0]}")
        if not isinstance(edges, _Checked):
            trees, labels = _components(n, self.edges)
            if trees != t:
                raise GraphError("edge set does not form exactly t trees")
            # labels count trees by smallest member, so the roots 1..t lie
            # in distinct trees exactly when they carry the labels 0..t-1
            if not np.array_equal(labels[:t], np.arange(t)):
                raise GraphError("two roots share a tree")
        self.t = t

    def as_graph(self) -> LabeledGraph:
        # a forest's rows are canonical and simple already
        return LabeledGraph(self.n, _Checked(self.edges))

    def __repr__(self) -> str:
        return f"RootedForest(n={self.n}, t={self.t})"


def _forest_shape(n, t) -> tuple[int, int]:
    """n and t as ints, checked to describe a rooted forest."""
    n = _order("n", n, 0)
    t = _whole("t", t)
    if not (0 <= t <= n) or (n > 0 and t == 0):
        raise ValueError(f"invalid forest shape: n = {n}, t = {t}")
    return n, t


def forest_count(n: int, t: int) -> int:
    """Number of rooted forests on {1..n} with roots exactly 1..t."""
    n, t = _forest_shape(n, t)
    if n == t:
        return 1
    return t * n ** (n - t - 1)


def _validate_sequence(n: int, t: int, seq) -> tuple[int, int, np.ndarray]:
    """n, t and a code from outside, checked to describe a rooted forest;
    the code as a 1-D int64 array."""
    n, t = _forest_shape(n, t)
    seq = np.asarray(seq)
    if seq.ndim != 1 or (seq.size and seq.dtype.kind not in "iu"):
        raise ValueError("sequence must be a 1-D sequence of integers")
    seq = seq.astype(np.int64, copy=False)
    if seq.size != n - t:
        raise ValueError(f"sequence must have length {n - t}")
    if seq.size and ((seq[:-1] < 1) | (seq[:-1] > n)).any():
        raise ValueError("sequence entry outside 1..n")
    if seq.size and not 1 <= seq[-1] <= t:
        raise ValueError("last sequence entry outside 1..t")
    return n, t, seq


def _draw_sequence(n: int, t: int, rng) -> tuple[int, int, np.ndarray]:
    """n, t, checked, and a uniform code drawn from the generator that
    rng seeds; every draw is a valid code, so it is not checked again."""
    n, t = _forest_shape(n, t)
    rng = np.random.default_rng(rng)
    if n == t:  # the one forest of roots alone; nothing to draw
        return n, t, np.empty(0, dtype=np.int64)
    body = rng.integers(1, n + 1, size=n - t - 1)
    return n, t, np.append(body, rng.integers(1, t + 1))


def encode_forest(forest: RootedForest) -> tuple[int, ...]:
    """Neighbour sequence of the repeated largest-leaf removal."""
    # a leaf's one neighbour is the sum of its neighbours not yet removed
    nsum = _neighbour_sums(forest.n + 1, forest.edges).tolist()
    # deg[0] = 1 stops the pointer at 0, ending the loop, after the last edge
    deg = [1] + forest.degree_sequence().tolist()
    ptr = forest.n
    while deg[ptr] != 1:
        ptr -= 1
    leaf = ptr
    seq = []
    while leaf:
        x = nsum[leaf]
        nsum[x] -= leaf
        seq.append(x)
        deg[x] -= 1
        if deg[x] == 1 and x > ptr:
            leaf = x
        else:
            ptr -= 1
            while deg[ptr] != 1:
                ptr -= 1
            leaf = ptr
    return tuple(seq)


def decode_sequence(n: int, t: int, seq) -> RootedForest:
    """Inverse of encode_forest: the rooted forest on {1..n} with roots
    1..t whose largest-leaf removal records seq."""
    return _decode(*_validate_sequence(n, t, seq))


def _decode(n: int, t: int, seq: np.ndarray) -> RootedForest:
    """The forest of a valid code.  The removal order is a fixpoint of
    whole-array rounds (module docstring), with no per-step loop: the
    chain vertices go at their steps, the stops in the free steps.  Every
    valid code decodes to a rooted forest, so its edges reach
    RootedForest as checked rows."""
    m = seq.size
    number, step = _chains(t, seq)
    leaves = np.empty(m, dtype=np.int64)
    leaves[step] = number + t
    free = np.ones(m, dtype=bool)
    free[step] = False
    stop = np.ones(m, dtype=bool)
    stop[number - 1] = False
    leaves[free] = np.flatnonzero(stop)[::-1] + (t + 1)
    del number, step, free, stop  # freed before the rows are keyed
    return RootedForest(n, t, _Checked(_key_rows(n, seq, leaves)))


def _chains(t: int, seq: np.ndarray):
    """The chain set that the rounds from C = {} settle on (module
    docstring), as the numbers x - t of its vertices x, and their removal
    steps.  A helper of its own, so that its temporaries are freed
    before the leaves are placed."""
    m = seq.size
    # last[x - t] is l(x) for a non-root x; slot 0 takes every root
    # entry, and seq[-1] is a root
    last = np.full(m + 1, -1, dtype=np.int64)
    np.maximum.at(last, np.maximum(seq[:-1] - t, 0), np.arange(m - 1))
    # the candidates, non-roots that occur, in label order, and their
    # places in time order (by last position)
    number = np.flatnonzero(last[1:] >= 0) + 1
    ell = last[number]
    occurs = np.zeros(m, dtype=bool)
    occurs[ell] = True
    rank = np.cumsum(occurs)[ell] - 1
    by_time = np.empty_like(rank)
    by_time[rank] = np.arange(rank.size)
    # above(x) = (n - x) - #{y in C: y > x}, and n - x = m - (x - t), so
    # the rule reads before(x) - #{y in C: y > x} <= l(x) - (m - number)
    bound = ell - (m - number)
    chain = bound >= 0
    for _ in range(number.size + 1):
        # before(x) - #{y in C: y > x}, from one cumsum in time order
        # and one in label order
        gap = np.cumsum(chain[by_time])[rank] - chain
        gap += np.cumsum(chain)
        gap -= np.count_nonzero(chain)
        settled = gap <= bound
        if np.array_equal(settled, chain):
            return number[chain], ell[chain] + 1
        chain = settled
    raise RuntimeError("decoding rounds did not settle")


def _degrees(n: int, t: int, seq: np.ndarray) -> np.ndarray:
    """The forest degrees of a valid code (module docstring)."""
    occ = np.bincount(seq, minlength=n + 1)[1:]
    occ[t:] += 1
    return occ


def degrees_from_sequence(n: int, t: int, seq) -> np.ndarray:
    """Forest degrees read directly off a sequence, no decoding."""
    return _degrees(*_validate_sequence(n, t, seq))


def sample_forest(n: int, t: int, rng=None) -> RootedForest:
    """Uniform rooted forest on {1..n} with roots 1..t."""
    return _decode(*_draw_sequence(n, t, rng))


def sample_forest_degrees(n: int, t: int, rng=None) -> np.ndarray:
    """Degree sequence of a uniform forest, skipping edge construction.

    Consumes the generator exactly as sample_forest does, so with equal
    seeds this returns sample_forest(n, t, seed).degree_sequence().
    """
    return _degrees(*_draw_sequence(n, t, rng))
