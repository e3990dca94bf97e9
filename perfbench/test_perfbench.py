"""Self-tests of the benchmark: run with `python3 -m pytest perfbench`.

Each workload is run once traced, with one verdict per phase.  The tests
check that tracing changes no report, that every wrapper is removed, and
that each span the prediction table in README.md assigns to a workload
fires there, so a rename or move in degree_lab fails here instead of
silently reporting zero.
"""
from __future__ import annotations

import json
from pathlib import Path

import pytest

import calibrate
import run
import spans
import workloads

BENCHMARK = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())

# spans that must fire on each workload (README.md, prediction table)
FIRES = {
    "grown-core": ["forests.decode_sequence", "forests.RootedForest",
                   "forests.sample_forest", "graphs.core_of",
                   "graphs.LabeledGraph", "samplers.sample_complex"],
    "census": ["samplers.exact_census_gnm", "samplers.sample_gnm_counted",
               "bins.throw_positions", "graphs.LabeledGraph"],
    "sparse-cs": ["samplers.sample_cs_counted", "samplers.sample_gnm_counted",
                  "bins.throw_positions", "graphs.has_complex_component",
                  "graphs.LabeledGraph"],
    "pipeline-cli": ["cli.main", "edgelist.read_edge_list",
                     "samplers.sample_pipeline", "samplers.sample_complex",
                     "samplers.sample_cs_counted", "forests.decode_sequence",
                     "graphs.split", "concentration.two_point_prediction",
                     "graphs.LabeledGraph"],
}
EVERYWHERE = ["experiments.run_experiment", "seeding.trial_seed"]
# forest and peel spans: census and sparse-cs must never reach them
SKIPPED = ["forests.decode_sequence", "forests.RootedForest",
           "forests.sample_forest", "graphs.core_of", "graphs.split"]


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def traced_run(request, tmp_path_factory):
    name = request.param
    lab, workload, _ = run.set_up(name, tmp_path_factory.mktemp(name))
    tracer = spans.Tracer(lab.SamplingCapExceeded)
    verdicts, metrics, problems = run.traced(workload, run.DEFAULT_SEED, 0.0,
                                             tracer)
    return name, tracer, verdicts, metrics, problems


def test_traced_reports_match_untraced(traced_run):
    _, _, verdicts, _, problems = traced_run
    plain, replay = verdicts[:len(verdicts) // 2], verdicts[len(verdicts) // 2:]
    assert [v.digest for v in plain] == [v.digest for v in replay]
    assert all(v.digest for v in verdicts)
    assert not [p for p in problems if p]


def test_wrappers_removed(traced_run):
    assert spans.leftover_wrappers() == []
    tracer = spans.Tracer(RuntimeError)
    tracer.install()
    try:
        assert len(spans.leftover_wrappers()) >= len(spans.SPANS)
    finally:
        tracer.restore()
    assert spans.leftover_wrappers() == []


def test_spans_fire_where_the_table_says(traced_run):
    name, tracer, *_ = traced_run
    calls = {span: stat[2] for span, stat in tracer.stats.items()}
    silent = [s for s in FIRES[name] + EVERYWHERE if not calls[s]]
    assert silent == []
    if name in ("census", "sparse-cs"):
        assert [s for s in SKIPPED if calls[s]] == []


def test_per_layer_names_match_benchmark_json(traced_run):
    *_, metrics, _ = traced_run
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: unit for k, (_, unit) in metrics.items()} == declared


def test_end_to_end_names_match_benchmark_json(tmp_path):
    _, workload, setup_s = run.set_up("sparse-cs", tmp_path)
    verdicts, passes = run.loop(workload, run.DEFAULT_SEED, 0.0)
    assert len(passes) == len(verdicts) + 1
    metrics = run.end_to_end(workload, verdicts, passes, [setup_s])
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: unit for k, (_, unit) in metrics.items()} == declared
    assert all(value > 0 for value, _ in metrics.values())


def test_timings_scale_with_the_calibration_passes():
    workload = workloads.Census
    verdict = workloads.Verdict(seconds=2.0, trials=4, failed=0)
    ref = calibrate.reference(workload.calibration)
    at_ref = run.end_to_end(workload, [verdict], [ref, ref], [1.0])
    slow_host = run.end_to_end(workload, [verdict], [ref, 3 * ref], [1.0])
    assert at_ref["experiment_s_p50"][0] == pytest.approx(2.0)
    assert at_ref["trials_per_s"][0] == pytest.approx(2.0)
    assert slow_host["experiment_s_p50"][0] == pytest.approx(1.0)
    assert slow_host["trials_per_s"][0] == pytest.approx(4.0)


def test_same_seed_same_inputs():
    assert workloads.master_seed(5, 0) == workloads.master_seed(5, 0)
    assert workloads.master_seed(5, 0) != workloads.master_seed(6, 0)
    assert workloads.master_seed(5, 0) != workloads.master_seed(5, 1)


def test_strict_json_rejects_nan():
    with pytest.raises(ValueError):
        workloads.strict_json(b'{"n": NaN}')
