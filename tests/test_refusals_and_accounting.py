"""Refusal and accounting paths that the other tests do not reach: the
CSV row of a capped trial, the draw count of a capped complex-free
sampler, and three PipelineSpec refusals."""
import pytest

from degree_lab import samplers
from degree_lab.cli import main
from degree_lab.graphs import LabeledGraph
from degree_lab.samplers import (PipelineSpec, SamplingCapExceeded,
                                 sample_cs_counted)
from degree_lab.seeding import trial_seed

K4 = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]


def test_csv_row_of_a_capped_trial(capsysbinary):
    # K8 has all 28 edges: no pairing draw within the cap is simple
    code = main(["gnm", "--n", "8", "--m", "28", "--trials", "2",
                 "--format", "csv"])
    lines = capsysbinary.readouterr().out.decode().splitlines()
    assert code == 1
    assert lines == ["trialIndex,seed,statistic,inInterval",
                     f"0,{trial_seed(0, 0)},,false",
                     f"1,{trial_seed(0, 1)},,false"]


def test_capped_inner_loop_reports_the_draws_made(monkeypatch):
    calls = []

    def gnm(n, m, rng):
        calls.append(n)
        if len(calls) == 3:
            raise SamplingCapExceeded("inner cap", 10_000)
        return LabeledGraph(6, K4), 1  # complex, so it is rejected

    monkeypatch.setattr(samplers, "sample_gnm_counted", gnm)
    with pytest.raises(SamplingCapExceeded) as info:
        sample_cs_counted(6, 6, 0)
    assert len(calls) == 3
    assert info.value.attempts == 3


def two_component_core():
    theta7 = [(1, 3), (3, 2), (1, 4), (4, 5), (5, 2),
              (1, 6), (6, 7), (7, 2)]
    return LabeledGraph(11, theta7 + [(u + 7, v + 7) for u, v in K4])


@pytest.mark.parametrize("args, message", [
    ((two_component_core(), 30, 3, 100, 73),
     "small_order smaller than the rest of the core"),
    ((LabeledGraph(0), 5, 0, 100, 50),
     "large_order must be zero iff the core is empty"),
    ((LabeledGraph(4, K4), 4, 0, 10, 5),
     "edge budget of the complex-free part is negative"),
])
def test_pipeline_spec_refusals(args, message):
    with pytest.raises(ValueError, match=message):
        PipelineSpec(*args)
