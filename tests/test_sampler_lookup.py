"""Each sampling kind calls its sampler through the module globals of
degree_lab.experiments at run time, never through a reference taken at
import.  Tracers that time the samplers (perfbench/spans.py) replace
those globals and rely on this."""
import pytest

from degree_lab import experiments
from degree_lab.experiments import ExperimentConfig, run_experiment
from degree_lab.graphs import LabeledGraph

K4 = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]


@pytest.mark.parametrize("sampler, cfg", [
    ("throw_balls", dict(kind="bins", n=10, k=10)),
    ("sample_forest_degrees", dict(kind="forest", n=10, t=2)),
    ("sample_gnm_counted", dict(kind="gnm", n=10, m=5)),
    ("sample_cs_counted", dict(kind="cs", n=10, m=4)),
    ("sample_complex", dict(kind="complex", core=LabeledGraph(4, K4), q=10)),
    ("sample_pipeline", dict(kind="pipeline", core=LabeledGraph(4, K4),
                             large_order=10, small_order=0, n=20, m=15)),
])
def test_each_kind_looks_its_sampler_up_when_it_runs(monkeypatch, sampler,
                                                     cfg):
    original = getattr(experiments, sampler)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(experiments, sampler, counted)
    report = run_experiment(ExperimentConfig(trials=1, **cfg))
    assert len(calls) == 1
    assert len(report.trial_stats) == 1
