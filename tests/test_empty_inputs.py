"""Empty inputs take the general path of each kernel.

components, bins.census, _largest_component and sample_pipeline have no
branch of their own for empty input; these cases pin what the general
code returns there.
"""
import numpy as np

from degree_lab.bins import census
from degree_lab.graphs import LabeledGraph, _largest_component, components
from degree_lab.samplers import PipelineSpec, sample_cs, sample_pipeline


def test_components_of_the_empty_graph():
    assert components(LabeledGraph(0)) == []


def test_census_of_no_bins():
    counts = census([])
    assert counts.dtype == np.int64
    assert counts.shape == (0,)


def test_largest_component_of_no_vertices():
    mask = _largest_component(0, np.empty((0, 2), dtype=np.int64))
    assert mask.dtype == bool
    assert mask.shape == (0,)


def test_pipeline_on_an_empty_core_is_a_complex_free_draw():
    spec = PipelineSpec(LabeledGraph(0), 0, 0, 60, 25)
    for seed in range(3):
        a = np.random.default_rng(seed)
        b = np.random.default_rng(seed)
        g = sample_pipeline(spec, a)
        h = sample_cs(60, 25, b)
        assert g == h
        # the empty core blocks drew nothing from the shared generator
        assert a.bit_generator.state == b.bit_generator.state
