"""Sizes given to the samplers, the bins, the forest counts, the graph
constructors, the pipeline spec and the regime classifier must be
integers: a float, whole or not, is refused with ValueError, never
truncated.  numpy integers are accepted.  A size below its lower bound
is refused with one message, "<name> must be at least <bound>, got
<value>"."""
import numpy as np
import pytest

from degree_lab.bins import (expected_census, loads_from_positions,
                             prefix_max_load, throw_balls, throw_positions)
from degree_lab.concentration import classify_regime
from degree_lab.forests import (RootedForest, forest_count, sample_forest,
                                sample_forest_degrees)
from degree_lab.graphs import LabeledGraph, MultiGraph
from degree_lab.samplers import (PipelineSpec, enumerate_gnm,
                                 exact_census_gnm, sample_complex, sample_cs,
                                 sample_gnm, sample_multigraph)

K4 = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]


def pipeline_spec(l, r, n, m):
    return PipelineSpec(LabeledGraph(4, K4), l, r, n, m)


@pytest.mark.parametrize("fn, args, message", [
    (sample_gnm, (10.7, 5, 0), "n must be an integer, got 10.7"),
    (sample_gnm, (10, 5.0, 0), "m must be an integer, got 5.0"),
    (sample_cs, (10.0, 4, 0), "n must be an integer, got 10.0"),
    (sample_multigraph, (4, 2.5, 0), "m must be an integer, got 2.5"),
    (sample_complex, (LabeledGraph(4, K4), 9.5, 0),
     "q must be an integer, got 9.5"),
    (enumerate_gnm, (4.0, 2), "n must be an integer, got 4.0"),
    (exact_census_gnm, (4, 2, 10.5, 0), "trials must be an integer, got 10.5"),
    (throw_balls, (2.5, 3, 0), "n must be an integer, got 2.5"),
    (throw_positions, (4, 3.0, 0), "k must be an integer, got 3.0"),
    (loads_from_positions, (2.0, [1]), "n must be an integer, got 2.0"),
    (prefix_max_load, ([1, 2], 1.5), "t must be an integer, got 1.5"),
    (expected_census, (5, 3, 1.0), "load must be an integer, got 1.0"),
    (forest_count, (5.9, 2), "n must be an integer, got 5.9"),
    (sample_forest, (5, 2.0, 0), "t must be an integer, got 2.0"),
    (sample_forest_degrees, (5.0, 2, 0), "n must be an integer, got 5.0"),
    (LabeledGraph, (10.7,), "n must be an integer, got 10.7"),
    (RootedForest, (3, 1.9, [(1, 2), (2, 3)]),
     "t must be an integer, got 1.9"),
    (classify_regime, (1000.9, 500.5), "n must be an integer, got 1000.9"),
    (pipeline_spec, (4.5, 0, 20, 17), "large_order must be an integer, got 4.5"),
    (pipeline_spec, (4, 0.5, 20, 17), "small_order must be an integer, got 0.5"),
    (pipeline_spec, (4, 0, 20, 17.0), "m must be an integer, got 17.0"),
], ids=lambda x: x.__name__ if callable(x) else None)
def test_float_sizes_are_refused(fn, args, message):
    with pytest.raises(ValueError) as info:
        fn(*args)
    assert str(info.value) == message


@pytest.mark.parametrize("fn, args, message", [
    (sample_multigraph, (0, 1, 0), "n must be at least 1, got 0"),
    (sample_gnm, (0, 0, 0), "n must be at least 1, got 0"),
    (throw_positions, (0, 3, 0), "n must be at least 1, got 0"),
    (sample_multigraph, (3, -1, 0), "m must be at least 0, got -1"),
    (classify_regime, (5, -1), "m must be at least 0, got -1"),
    (expected_census, (5, -1, 0), "k must be at least 0, got -1"),
    (exact_census_gnm, (4, 3, -1, 0), "trials must be at least 0, got -1"),
    (sample_complex, (LabeledGraph(4, K4), 3, 0),
     "q must be at least 4, got 3"),
    (enumerate_gnm, (4, -1), "m must be at least 0, got -1"),
    (LabeledGraph, (-1,), "n must be at least 0, got -1"),
    (MultiGraph, (-1,), "n must be at least 0, got -1"),
    (RootedForest, (-1, 0), "n must be at least 0, got -1"),
    (loads_from_positions, (-1, []), "n must be at least 0, got -1"),
    (sample_forest, (-1, 0), "n must be at least 0, got -1"),
    (forest_count, (-1, 0), "n must be at least 0, got -1"),
    (enumerate_gnm, (-1, 0), "n must be at least 0, got -1"),
    (pipeline_spec, (-1, 0, 20, 17), "large_order must be at least 0, got -1"),
], ids=lambda x: x.__name__ if callable(x) else None)
def test_sizes_below_their_bound_are_refused(fn, args, message):
    with pytest.raises(ValueError) as info:
        fn(*args)
    assert str(info.value) == message


def test_cs_refuses_its_sizes_before_any_draw():
    # with a cap of 0 no G(n, m) draw is made, so only cs itself can refuse
    for n, m, message in [(5, -1, "m must be at least 0, got -1"),
                          (0, 0, "n must be at least 1, got 0")]:
        with pytest.raises(ValueError) as info:
            sample_cs(n, m, 0, max_attempts=0)
        assert str(info.value) == message


def test_numpy_integer_sizes_are_accepted():
    n, m = np.int32(10), np.int64(5)
    assert sample_gnm(n, m, 0) == sample_gnm(10, 5, 0)
    assert np.array_equal(throw_balls(np.uint8(4), np.int16(6), 0),
                          throw_balls(4, 6, 0))
    assert forest_count(np.int64(5), np.int64(2)) == forest_count(5, 2) == 50
