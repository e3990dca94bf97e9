"""validate_core_graph accepts a simple graph exactly when it is its own
core, and that is the two-check rule it replaced: every vertex of degree
at least two, and every component of excess at least one.

The reference below is that rule, written with the union-find components
of tests/oracles.py.  It is checked on every simple graph with at most
five vertices, and on seeded random graphs with six to twelve vertices
built as disjoint unions of dense blocks and bare cycles, so that all
three verdicts occur: accepted, a vertex of degree below two, and every
degree at least two but a component of excess zero.
"""
import itertools
from collections import Counter

import numpy as np
import pytest

from degree_lab.graphs import GraphError, LabeledGraph
from degree_lab.samplers import validate_core_graph

from oracles import uf_components

MESSAGE = ("core graph must be its own core: minimum degree 2 and every "
           "component of excess >= 1")


def two_check_rule(n, edges):
    """The verdict of the old rule: 'ok', 'degree' or 'excess'."""
    deg = Counter(itertools.chain.from_iterable(edges))
    if any(deg[v] < 2 for v in range(1, n + 1)):
        return "degree"
    for comp in uf_components(n, edges):
        members = set(comp)
        size = sum(1 for u, _ in edges if u in members)
        if size < len(comp) + 1:
            return "excess"
    return "ok"


def check(n, edges):
    verdict = two_check_rule(n, edges)
    g = LabeledGraph(n, edges)
    if verdict == "ok":
        validate_core_graph(g)
    else:
        with pytest.raises(GraphError) as info:
            validate_core_graph(g)
        assert str(info.value) == MESSAGE
    return verdict


def small_graphs():
    for n in range(6):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for bits in range(1 << len(pairs)):
            yield n, [p for i, p in enumerate(pairs) if bits >> i & 1]


def random_graph(rng):
    """Disjoint blocks on a random relabeling of 1..n, 6 <= n <= 12: each
    block a bare cycle or a random graph of edge density 0.3 to 1."""
    n = int(rng.integers(6, 13))
    cuts = rng.choice(np.arange(1, n), size=int(rng.integers(0, 3)),
                      replace=False)
    bounds = [0, *sorted(cuts.tolist()), n]
    perm = rng.permutation(n) + 1
    edges = []
    for lo, hi in zip(bounds, bounds[1:]):
        block = range(lo, hi)
        if hi - lo >= 3 and rng.random() < 0.25:
            pairs = list(zip(block, list(block[1:]) + [lo]))
        else:
            p = rng.uniform(0.3, 1.0)
            pairs = [pair for pair in itertools.combinations(block, 2)
                     if rng.random() < p]
        edges += [(int(perm[a]), int(perm[b])) for a, b in pairs]
    return n, edges


def test_every_simple_graph_on_at_most_five_vertices():
    verdicts = Counter(check(n, edges) for n, edges in small_graphs())
    assert sum(verdicts.values()) == 1 + 1 + 2 + 8 + 64 + 1024
    assert verdicts["ok"] and verdicts["degree"] and verdicts["excess"]


def test_random_graphs_on_six_to_twelve_vertices():
    rng = np.random.default_rng(20101015083)
    verdicts = Counter(check(*random_graph(rng)) for _ in range(3000))
    assert min(verdicts[v] for v in ("ok", "degree", "excess")) >= 100, verdicts
