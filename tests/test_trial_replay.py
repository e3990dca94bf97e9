"""Each trial's statistic is the maximum of the vector its sampler draws.

A trial builds a load or degree vector and the harness takes its
maximum.  Replaying every reported trial seed through the public sampler
of its kind must give back the reported statistic.
"""
import pytest

from degree_lab.bins import throw_balls
from degree_lab.concentration import two_point_prediction
from degree_lab.experiments import ExperimentConfig, run_experiment
from degree_lab.forests import sample_forest_degrees
from degree_lab.graphs import LabeledGraph
from degree_lab.samplers import (PipelineSpec, sample_complex, sample_cs,
                                 sample_gnm, sample_pipeline)

K4 = LabeledGraph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
SPEC = PipelineSpec(K4, 10, 0, 60, 37)

CASES = {
    "bins": (dict(kind="bins", n=30, k=60),
             lambda seed: throw_balls(30, 60, seed)),
    "forest": (dict(kind="forest", n=40, t=3),
               lambda seed: sample_forest_degrees(40, 3, seed)),
    "gnm": (dict(kind="gnm", n=30, m=20),
            lambda seed: sample_gnm(30, 20, seed).degree_sequence()),
    "cs": (dict(kind="cs", n=30, m=15),
           lambda seed: sample_cs(30, 15, seed).degree_sequence()),
    "complex": (dict(kind="complex", core=K4, q=30),
                lambda seed: sample_complex(K4, 30, seed).degree_sequence()),
    "pipeline": (dict(kind="pipeline", core=K4, large_order=10,
                      small_order=0, n=60, m=37),
                 lambda seed: sample_pipeline(SPEC, seed).degree_sequence()),
    "pipeline-shuffled": (
        dict(kind="pipeline", core=K4, large_order=10, small_order=0, n=60,
             m=37, shuffle_labels=True),
        lambda seed: sample_pipeline(SPEC, seed,
                                     shuffle_labels=True).degree_sequence()),
}


@pytest.mark.parametrize("name", CASES)
def test_statistic_is_the_maximum_of_the_replayed_vector(name):
    fields, draw = CASES[name]
    report = run_experiment(ExperimentConfig(**fields, trials=20,
                                             master_seed=5))
    replayed = [int(draw(seed).max()) for seed in report.trial_seeds]
    assert report.trial_stats == replayed


def test_pipeline_window_is_capped_at_n_minus_1():
    # regime I predicts [5, 6], but no vertex of a graph on 6 vertices
    # has degree above 5
    assert two_point_prediction(6, 6).as_tuple() == (5, 6)
    report = run_experiment(ExperimentConfig(
        kind="pipeline", core=K4, large_order=4, small_order=0, n=6, m=6,
        trials=5))
    assert report.interval == (5, 5)
    assert report.anchor == 5
