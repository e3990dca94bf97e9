"""core_of peels first, _grow merges, and the forest decode calls nothing.

core_of peels the whole graph and keeps the 2-core's components of
excess >= 1; it must give the same slice as the route it replaced,
peeling the complex part, and as split's core.  The graphs below are
the ones on which the two routes could part: bare cycles and cycles
with pendant trees (the 2-core holds them, the core does not), a cycle
beside a complex component, forests, the empty graph, grown cores and
G(n, m) draws around the giant-component threshold.  Multigraph bare
cycles, a lone loop and a double edge, must leave the core too, while a
triple edge and a loop on K4 stay in it.

core_of drops the bare cycles with a second peel, of the 2-core
vertices of live degree 2, and makes no component pass.  With
_components made to raise, core_of, validate_core_graph, sample_complex
and sample_complex_degrees must still give the answers they gave
before, on all those shapes and on K4 grown to q = 1 000.

_grow merges the core rows into the decoded forest rows instead of
sorting them together; its rows must equal the sorted concatenation.

An ast check keeps decode_sequence free of lambdas and nested
functions, and of module functions passed as arguments, so that its
loop pays no per-step callback.
"""
import ast
import itertools
from pathlib import Path

import numpy as np
import pytest
from test_checked_rows import assert_canonical_rows

from degree_lab import forests, graphs
from degree_lab.forests import sample_forest
from degree_lab.graphs import (GraphError, LabeledGraph, MultiGraph, _key_rows,
                               _peel_to_core, complex_part, core_of, split)
from degree_lab.samplers import (_grow, sample_complex, sample_complex_degrees,
                                 sample_gnm, sample_multigraph,
                                 validate_core_graph)

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "degree_lab"
FORESTS = PACKAGE / "forests.py"

K4 = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
# two vertices joined by three paths of length two
THETA = [(1, 3), (3, 2), (1, 4), (4, 2), (1, 5), (5, 2)]


def cycle(first, length):
    """Edges of a cycle on first..first + length - 1."""
    return [(first + i, first + (i + 1) % length) for i in range(length)]


def cubic(half):
    """Connected cubic graph: a 2*half cycle plus long chords."""
    return cycle(1, 2 * half) + [(i, i + half) for i in range(1, half + 1)]


def relabeled(n, edges, seed):
    """The graph on 1..n with its labels permuted at random."""
    perm = np.random.default_rng(seed).permutation(n) + 1
    return LabeledGraph(n, np.append(0, perm)[np.asarray(edges)])


def assert_one_core(g):
    core = core_of(g)
    assert core == _peel_to_core(complex_part(g))
    assert core == split(g).core
    return core


def with_pendant_trees(n, length, seed):
    """A cycle on 1..length, and a random tree hanging from each of the
    other vertices onto a smaller label."""
    rng = np.random.default_rng(seed)
    edges = cycle(1, length)
    edges += [(int(rng.integers(1, v)), v) for v in range(length + 1, n + 1)]
    return edges


@pytest.mark.parametrize("n, edges", [
    (3, cycle(1, 3)),
    (50, cycle(1, 50)),
    (20, cycle(1, 3) + cycle(4, 7) + cycle(11, 10)),
])
def test_bare_cycles_have_an_empty_core(n, edges):
    for g in (LabeledGraph(n, edges), relabeled(n, edges, n)):
        assert assert_one_core(g).is_empty


@pytest.mark.parametrize("seed", range(5))
def test_cycles_with_pendant_trees_have_an_empty_core(seed):
    edges = with_pendant_trees(300, 3 + seed, seed)
    for g in (LabeledGraph(300, edges), relabeled(300, edges, seed)):
        assert assert_one_core(g).is_empty


def test_a_cycle_beside_a_complex_component():
    edges = K4 + [(4, 5), (5, 6)] + cycle(7, 6) + [(12, 13)]
    g = LabeledGraph(13, edges)
    assert assert_one_core(g).edge_set() == set(K4)
    for seed in range(10):
        assert assert_one_core(relabeled(13, edges, seed)).order == 4


@pytest.mark.parametrize("n, t, seed", [(1, 1, 0), (10, 3, 1), (500, 7, 2)])
def test_forests_have_an_empty_core(n, t, seed):
    forest = sample_forest(n, t, seed).as_graph()
    assert assert_one_core(forest).is_empty


def test_the_empty_graph():
    assert assert_one_core(LabeledGraph(0)).is_empty


def test_grown_k4_at_q_1e5():
    k4 = LabeledGraph(4, K4)
    core = assert_one_core(sample_complex(k4, 100_000, 20201029))
    assert core.edge_set() == k4.edge_set()


@pytest.mark.parametrize("ratio", [0.4, 0.5, 0.6, 1.0])
def test_gnm_draws(ratio):
    n = 1000
    rng = np.random.default_rng(int(ratio * 10))
    cores = 0
    for _ in range(100):
        core = assert_one_core(sample_gnm(n, int(ratio * n), rng))
        cores += not core.is_empty
    if ratio == 1.0:
        assert cores == 100


def test_multigraph_draws():
    for (n, m), seed in itertools.product([(8, 7), (60, 50)], range(30)):
        assert_one_core(sample_multigraph(n, m, seed))


@pytest.mark.parametrize("n, edges, kept", [
    (1, [(1, 1)], []),
    (2, [(1, 2), (1, 2)], []),
    (2, [(1, 2)] * 3, [1, 2]),
    (4, K4 + [(1, 1)], [1, 2, 3, 4]),
    (3, [(1, 1), (1, 2), (2, 3)], []),
    (7, K4 + [(5, 5), (6, 7), (6, 7)], [1, 2, 3, 4]),
], ids=["loop", "double edge", "triple edge", "k4 with a loop",
        "loop with a pendant path", "k4 beside a loop and a double edge"])
def test_multigraph_bare_cycles(n, edges, kept):
    g = MultiGraph(n, edges)
    core = assert_one_core(g)
    assert core.vertices.tolist() == kept
    assert core.edge_set() == {e for e in g.edge_set() if e[0] in kept}
    assert core.size == sum(u in kept for u, _ in edges)


def route_graphs():
    """The shapes above, as (name, graph) pairs."""
    for n, edges in [(3, cycle(1, 3)), (50, cycle(1, 50)),
                     (20, cycle(1, 3) + cycle(4, 7) + cycle(11, 10))]:
        yield "bare cycles", LabeledGraph(n, edges)
        yield "bare cycles relabeled", relabeled(n, edges, n)
    for seed in range(5):
        yield "pendant trees", LabeledGraph(
            300, with_pendant_trees(300, 3 + seed, seed))
    yield "cycle beside K4", LabeledGraph(
        13, K4 + [(4, 5), (5, 6)] + cycle(7, 6) + [(12, 13)])
    yield "K4 beside a triangle", LabeledGraph(7, K4 + cycle(5, 3))
    for edges in (K4, THETA, cubic(10)):
        yield "own core", LabeledGraph(max(max(e) for e in edges), edges)
    for n, t, seed in [(1, 1, 0), (10, 3, 1), (500, 7, 2)]:
        yield "forest", sample_forest(n, t, seed).as_graph()
    yield "empty", LabeledGraph(0)
    for seed in range(5):
        yield "grown K4", sample_complex(LabeledGraph(4, K4), 1000, seed)
    for ratio, seed in itertools.product([0.4, 0.5, 0.6, 1.0], range(5)):
        yield "gnm", sample_gnm(1000, int(ratio * 1000), seed)
    for (n, m), seed in itertools.product([(8, 7), (60, 50)], range(10)):
        yield "multigraph", sample_multigraph(n, m, seed)
    yield "loop", MultiGraph(1, [(1, 1)])
    yield "double edge", MultiGraph(2, [(1, 2), (1, 2)])
    yield "triple edge", MultiGraph(2, [(1, 2)] * 3)
    yield "K4 with a loop", MultiGraph(4, K4 + [(1, 1)])


def verdict(g):
    """validate_core_graph's answer: None, or the GraphError message."""
    try:
        validate_core_graph(g)
    except GraphError as exc:
        return str(exc)
    return None


def test_no_component_pass(monkeypatch):
    shapes = [(name, g, assert_one_core(g), verdict(g))
              for name, g in route_graphs()]
    k4 = LabeledGraph(4, K4)
    grown = [(seed, sample_complex(k4, 1000, seed),
              sample_complex_degrees(k4, 1000, seed)) for seed in range(5)]

    def refuse(*args):
        raise AssertionError("a component pass was made")

    monkeypatch.setattr(graphs, "_components", refuse)
    monkeypatch.setattr(forests, "_components", refuse)
    for name, g, core, answer in shapes:
        assert core_of(g) == core, name
        assert verdict(g) == answer, name
    assert {answer is None for *_, answer in shapes} == {False, True}
    for seed, g, deg in grown:
        assert sample_complex(k4, 1000, seed) == g
        assert np.array_equal(sample_complex_degrees(k4, 1000, seed), deg)


@pytest.mark.parametrize("edges", [K4, THETA, cubic(10)],
                         ids=["k4", "theta", "cubic20"])
def test_grow_rows_are_the_sorted_concatenation(edges):
    core = LabeledGraph(max(max(e) for e in edges), edges)
    for q, seed in itertools.product(
            [core.n, core.n + 1, 50, 1000, 100_000], range(3)):
        rows, forest = _grow(core, q, seed)
        both = np.concatenate((core.edges, forest.edges))
        assert_canonical_rows(rows.rows)
        assert np.array_equal(rows.rows, _key_rows(q, both[:, 0], both[:, 1]))


def test_decode_sequence_passes_no_callback():
    tree = ast.parse(FORESTS.read_text(), filename=str(FORESTS))
    functions = {node.name for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
    decode, = (node for node in tree.body
               if isinstance(node, ast.FunctionDef)
               and node.name == "decode_sequence")
    found = []
    for node in ast.walk(decode):
        if isinstance(node, ast.Lambda):
            found.append(f"line {node.lineno}: lambda")
        elif (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              and node is not decode):
            found.append(f"line {node.lineno}: nested function {node.name}")
        elif isinstance(node, ast.Call):
            args = node.args + [kw.value for kw in node.keywords]
            found += [f"line {node.lineno}: passes {arg.id}" for arg in args
                      if isinstance(arg, ast.Name) and arg.id in functions]
    assert not found, "decode_sequence callbacks: " + ", ".join(found)
