"""graphs._roots, the one labeling route, on the shapes each of its steps
is there for, against union-find (tests/oracles.py).

- a row of isolated edges, at least _THIN_FRONTIER of them, so that one
  array round peels adjacent leaves together (the pair rule);
- long pendant paths, peeled one vertex at a time, so that the parents
  form deep chains (pointer doubling);
- a bare cycle beside a complex component (a 2-core that is not core);
- a shuffled cubic core like pipeline-cli's, whose 2-core needs several
  hook rounds, beside a smaller one;
- a multigraph with loops and repeated rows.

Each case checks _components' count and labels, _roots' own contract
(one root a component, its smallest 2-core vertex when it has a 2-core,
else one of its vertices), and split's partition and largest core
component.
"""
import numpy as np
import pytest
from oracles import uf_components
from test_peel_fuzz import K4, reference_peel, relabeled, whole

from degree_lab.graphs import (_THIN_FRONTIER, MultiGraph, _components,
                               _roots, split)


def cycle(first, length):
    return [(first + i, first + (i + 1) % length) for i in range(length)]


def path(first, length):
    return [(first + i, first + i + 1) for i in range(length - 1)]


def cubic(first, half):
    """A connected cubic graph on first..first + 2 * half - 1."""
    return cycle(first, 2 * half) + [(first + i, first + i + half)
                                     for i in range(half)]


def star(centre, first, leaves):
    return [(centre, v) for v in range(first, first + leaves)]


EDGES = 2 * _THIN_FRONTIER

CASES = {
    "isolated edges": relabeled(
        2 * EDGES + 3, [(2 * i + 1, 2 * i + 2) for i in range(EDGES)], 1),
    "long pendant paths": relabeled(
        604, K4 + [(4, 5)] + path(5, 300) + path(305, 300), 2),
    "a bare cycle beside a complex component": relabeled(
        30, cycle(1, 10) + [(10 + u, 10 + v) for u, v in K4]
        + [(14, 15), (15, 16), (15, 17)] + star(18, 19, 5), 3),
    "shuffled cubic cores": relabeled(1500, cubic(1, 500) + cubic(1001, 250),
                                      4),
    "a multigraph with loops and repeated rows": MultiGraph(
        40 + EDGES,
        [(1, 1), (1, 2), (2, 3), (3, 3), (4, 5), (4, 5), (5, 6), (7, 7),
         (7, 7), (8, 9), (9, 10), (8, 10), (8, 9), (11, 12), (11, 12),
         (13, 14), (13, 14), (13, 14), (15, 15), (15, 16), (16, 16)]
        + star(20, 41, EDGES) + [(20, 20)]),
}


def oracle(g):
    """Union-find components by smallest member, the 2-core vertices and
    which components are complex."""
    comps = uf_components(g.n, g.edges.tolist())
    label = np.zeros(g.n + 1, dtype=np.int64)
    for i, comp in enumerate(comps):
        label[list(comp)] = i
    rows = np.bincount(label[g.edges[:, 0]], minlength=len(comps))
    kept = set(reference_peel(whole(g)).vertices.tolist())
    return comps, label[1:], kept, rows > np.array([len(c) for c in comps])


@pytest.mark.parametrize("g", CASES.values(), ids=CASES.keys())
def test_labels(g):
    comps, label, kept, _ = oracle(g)
    count, got = _components(g.n, g.edges)
    assert count == len(comps)
    assert got.tolist() == label.tolist()
    root = _roots(g.n, g.edges)[0]
    assert root[0] == 0
    for comp in comps:
        named = {int(root[v]) for v in comp}
        core = [v for v in comp if v in kept]
        assert named == {min(core)} if core else named <= set(comp)
        assert len(named) == 1


@pytest.mark.parametrize("g", CASES.values(), ids=CASES.keys())
def test_split(g):
    comps, _, kept, is_complex = oracle(g)
    parts = split(g)
    complex_vertices = {v for comp, c in zip(comps, is_complex) if c
                        for v in comp}
    core = kept & complex_vertices
    assert parts.core.vertices.tolist() == sorted(core)
    cores = [c for c in uf_components(g.n, parts.core.edges.tolist())
             if c[0] in core]
    best = list(max(cores, key=len, default=()))
    assert parts.core_largest_component.tolist() == best
    large = next((set(c) for c in comps if best and best[0] in c), set())
    assert set(parts.large_complex.vertices.tolist()) == large
    assert set(parts.small_complex.vertices.tolist()) == (
        complex_vertices - large)
    assert set(parts.non_complex.vertices.tolist()) == (
        set(range(1, g.n + 1)) - complex_vertices)
    pieces = (parts.large_complex, parts.small_complex, parts.non_complex)
    assert sum(p.size for p in pieces) == g.num_edges
