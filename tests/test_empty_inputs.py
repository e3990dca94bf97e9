"""Empty inputs take the general path of each kernel.

components, bins.census and sample_pipeline have no branch of their own
for empty input, and split has one only where it picks the largest
component of an empty core; these cases pin what the code returns there.
"""
import numpy as np

from degree_lab.bins import census
from degree_lab.graphs import LabeledGraph, components, split
from degree_lab.samplers import PipelineSpec, sample_cs, sample_pipeline


def test_components_of_the_empty_graph():
    assert components(LabeledGraph(0)) == []


def test_census_of_no_bins():
    counts = census([])
    assert counts.dtype == np.int64
    assert counts.shape == (0,)


def test_largest_component_of_no_vertices():
    parts = split(LabeledGraph(0))
    for part in (parts.large_complex, parts.small_complex,
                 parts.non_complex, parts.core):
        assert part.is_empty and part.size == 0
    best = parts.core_largest_component
    assert best.dtype == np.int64
    assert best.shape == (0,)


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
