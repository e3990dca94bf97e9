"""A pipeline draw reaches LabeledGraph as checked rows.

sample_pipeline stacks its canonical blocks on increasing label ranges,
which is key order already, and sorts only a relabeled draw.  The oracle
is the checked path, as in tests/test_checked_rows.py: the same edges
passed as an array get every check and must give an equal graph, and
the rows must be canonical on their own terms.
"""
import pytest
from test_checked_rows import assert_canonical_rows

from degree_lab.graphs import LabeledGraph
from degree_lab.samplers import PipelineSpec, sample_pipeline

K4 = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]


def criterion_12b_core():
    """1 000-vertex cubic core plus a theta: two core components."""
    half = 500
    size = 2 * half
    edges = [(i, i % size + 1) for i in range(1, size + 1)]
    edges += [(i, i + half) for i in range(1, half + 1)]
    a, b, c, d, e, f, g = range(size + 1, size + 8)
    edges += [(a, c), (c, b), (a, d), (d, e), (e, b), (a, f), (f, g), (g, b)]
    return LabeledGraph(size + 7, edges)


def pipeline_specs():
    k4 = LabeledGraph(4, K4)
    two = LabeledGraph(9, K4 + [(5, 6), (6, 7), (7, 5), (5, 8), (8, 9),
                                (9, 7)])
    core = criterion_12b_core()
    n, large, small = 100_000, 38_400, 598
    spare = n - large - small
    m = spare // 2 + core.num_edges - core.n + large + small
    return {
        "k4": PipelineSpec(k4, 10, 0, 60, 37),
        "small_order=0": PipelineSpec(k4, 40, 0, 400, 250),
        "spare_order=0": PipelineSpec(two, 30, 20, 50, 53),
        "empty core": PipelineSpec(LabeledGraph(0), 0, 0, 50, 20),
        "criterion 12b": PipelineSpec(core, large, small, n, m),
    }


SPECS = pipeline_specs()


@pytest.mark.parametrize("shuffle", [False, True], ids=["blocks", "shuffled"])
@pytest.mark.parametrize("name", list(SPECS))
def test_pipeline_draws_pass_every_check(name, shuffle):
    spec = SPECS[name]
    for seed in range(2 if name == "criterion 12b" else 8):
        g = sample_pipeline(spec, seed, shuffle_labels=shuffle)
        assert_canonical_rows(g.edges)
        assert LabeledGraph(spec.n, g.edges) == g
        assert (g.n, g.num_edges) == (spec.n, spec.m)
