"""Independent reference implementations used only by the tests.

Everything here is deliberately naive: union-find components, brute
force enumeration, exact rational arithmetic.  The point is that none
of it shares code with the package under test.
"""
from fractions import Fraction
from itertools import combinations


class UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


def uf_components(n, edges):
    """Components of a graph on 1..n as a sorted list of sorted tuples."""
    uf = UnionFind(range(1, n + 1))
    for u, v in edges:
        uf.union(u, v)
    groups = {}
    for v in range(1, n + 1):
        groups.setdefault(uf.find(v), []).append(v)
    return sorted(tuple(sorted(g)) for g in groups.values())


def is_rooted_forest(n, t, edges):
    """Acyclic, t components, roots 1..t pairwise separated."""
    if len(edges) != n - t:
        return False
    uf = UnionFind(range(1, n + 1))
    for u, v in edges:
        if not uf.union(u, v):
            return False  # cycle
    reps = {uf.find(r) for r in range(1, t + 1)}
    return len(reps) == t


def enumerate_rooted_forests(n, t):
    """All edge sets forming a forest on 1..n with t trees rooted at 1..t."""
    pairs = list(combinations(range(1, n + 1), 2))
    if n == t:
        return [frozenset()]
    return [frozenset(subset)
            for subset in combinations(pairs, n - t)
            if is_rooted_forest(n, t, subset)]


def exact_expected_census(n, k, load):
    """Expected bins with the given load, as an exact Fraction."""
    from math import comb
    return (Fraction(n) * comb(k, load)
            * Fraction(1, n) ** load
            * Fraction(n - 1, n) ** (k - load))


def pointer_decode(n, t, seq):
    """The leaf removed at each step when seq is decoded, by the
    descending-pointer loop: one interpreted step per sequence entry.

    A pointer scans the labels downward for a vertex of degree one and
    never moves up; a removal that leaves its neighbour x with degree one
    above the pointer makes x the next leaf.
    """
    seq = [int(x) for x in seq]
    degrees = [0] * n
    for x in seq:
        degrees[x - 1] += 1
    for v in range(t, n):
        degrees[v] += 1
    # deg[0] = 1 stops the pointer at 0 after the last entry
    deg = [1] + degrees
    ptr = n
    while deg[ptr] != 1:
        ptr -= 1
    leaf = ptr
    leaves = []
    for x in seq:
        leaves.append(leaf)
        deg[x] -= 1
        if deg[x] == 1 and x > ptr:
            leaf = x
        else:
            ptr -= 1
            while deg[ptr] != 1:
                ptr -= 1
            leaf = ptr
    return leaves
