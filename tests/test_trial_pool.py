"""Trials after the first run on a small thread pool, with no effect on
the report.

A report must not depend on how many threads ran its trials: a pooled
run gives the same JSON (without elapsedMs) and CSV bytes as a run on
one thread, capped trials included.  A trial that fails inside the pool
fails the run with its own exception, the lowest failing index first;
no thread outlives run_experiment; and a failing run has derived at most
the seeds of the trials submitted before it failed.
"""
import sys
import threading
import time

import pytest

import degree_lab.experiments as experiments
from degree_lab.experiments import ExperimentConfig, emit_report, run_experiment
from degree_lab.graphs import LabeledGraph
from degree_lab.samplers import sample_gnm_counted
from degree_lab.seeding import trial_seed

K4 = LabeledGraph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])

CONFIGS = {
    "bins": dict(kind="bins", n=30, k=60),
    "forest": dict(kind="forest", n=40, t=3),
    "gnm": dict(kind="gnm", n=30, m=20),
    "cs": dict(kind="cs", n=30, m=15),
    "complex": dict(kind="complex", core=K4, q=30),
    "pipeline": dict(kind="pipeline", core=K4, large_order=10, small_order=0,
                     n=60, m=37, shuffle_labels=True),
}

POOL = 4  # threads of a pooled run, whatever this machine has; more than
# the cores of a small machine, so trials interleave


def pooled(monkeypatch, workers=POOL):
    monkeypatch.setattr(experiments, "_worker_count",
                        lambda trials: min(workers, trials - 1))


def outputs(cfg):
    report = run_experiment(cfg)
    return (emit_report(report, include_elapsed=False),
            emit_report(report, "csv"))


def one_and_many(monkeypatch, cfg):
    """The outputs of cfg run on one thread, then on POOL threads."""
    pooled(monkeypatch, 1)
    alone = outputs(cfg)
    pooled(monkeypatch)
    return alone, outputs(cfg)


@pytest.mark.parametrize("kind", CONFIGS)
@pytest.mark.parametrize("trials", [2, 3, 25])
def test_pooled_reports_are_byte_identical(kind, trials, monkeypatch):
    cfg = ExperimentConfig(trials=trials, master_seed=7, **CONFIGS[kind])
    alone, many = one_and_many(monkeypatch, cfg)
    assert many == alone


def test_pooled_reports_hold_under_fast_thread_switching(monkeypatch):
    cfg = ExperimentConfig(trials=40, master_seed=11, **CONFIGS["cs"])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        alone, many = one_and_many(monkeypatch, cfg)
    finally:
        sys.setswitchinterval(interval)
    assert many == alone


def test_pooled_capped_trials_are_byte_identical(monkeypatch):
    # three draws a trial cap about half of these gnm trials
    monkeypatch.setattr(
        experiments, "sample_gnm_counted",
        lambda n, m, seed: sample_gnm_counted(n, m, seed, max_attempts=3))
    cfg = ExperimentConfig("gnm", n=10, m=12, trials=30, master_seed=3)
    alone, many = one_and_many(monkeypatch, cfg)
    assert many == alone
    extras = run_experiment(cfg).extras
    assert 0 < extras["failedTrials"] < 30
    assert 0 < extras["acceptanceFraction"] < 1


def test_two_trials_get_one_thread_and_many_at_most_four():
    assert experiments._worker_count(2) == 1
    assert 1 <= experiments._worker_count(10**300) <= experiments._MAX_WORKERS


class TrialFailed(Exception):
    pass


def failing_bins(monkeypatch, failing, slow=()):
    """Make the bins trials with an index in failing raise TrialFailed,
    after a pause for those in slow; returns the set of threads that ran
    a trial and the list of trial indices whose seeds were derived."""
    index = {trial_seed(0, i): i for i in range(64)}
    threads = set()
    derived = []
    real_seed = experiments.trial_seed
    real_throw = experiments.throw_balls

    def seed(master, i):
        derived.append(i)
        return real_seed(master, i)

    def throw(n, k, rng):
        threads.add(threading.get_ident())
        i = index[rng]
        if i in slow:
            time.sleep(0.2)
        if i in failing:
            raise TrialFailed(f"trial {i} failed")
        return real_throw(n, k, rng)

    monkeypatch.setattr(experiments, "trial_seed", seed)
    monkeypatch.setattr(experiments, "throw_balls", throw)
    return threads, derived


def bins(trials):
    return ExperimentConfig("bins", n=30, k=60, trials=trials)


def test_a_pooled_failure_reaches_the_caller(monkeypatch):
    pooled(monkeypatch)
    threads, _ = failing_bins(monkeypatch, {5})
    before = threading.active_count()
    with pytest.raises(TrialFailed, match="^trial 5 failed$"):
        run_experiment(bins(40))
    assert threading.active_count() == before
    assert len(threads) > 1  # the failing trial ran in the pool


def test_the_lowest_failing_index_wins(monkeypatch):
    # trial 3 fails after trial 4 has failed
    pooled(monkeypatch)
    failing_bins(monkeypatch, {3, 4}, slow={3})
    with pytest.raises(TrialFailed, match="^trial 3 failed$"):
        run_experiment(bins(40))


def test_no_thread_outlives_a_run(monkeypatch):
    pooled(monkeypatch)
    threads, _ = failing_bins(monkeypatch, set())
    before = threading.active_count()
    run_experiment(bins(40))
    assert threading.active_count() == before
    assert len(threads) > 1


@pytest.mark.parametrize("k", [1, 2, 9])
def test_a_failing_run_derives_only_the_seeds_it_submitted(k, monkeypatch):
    pooled(monkeypatch)
    _, derived = failing_bins(monkeypatch, {k})
    with pytest.raises(TrialFailed):
        run_experiment(bins(10**300))
    bound = POOL * experiments._IN_FLIGHT_PER_WORKER
    assert len(derived) == len(set(derived)) <= k + 1 + bound
    assert max(derived) <= k + bound
