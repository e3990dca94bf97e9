"""Integer inputs of an experiment run.

Every int flag of every kind is read with graphs._whole under its field
name before the first trial seed is derived, so a float, whole or not,
is refused with ValueError instead of being truncated or failing later.
trial_seed reads its master seed and trial index the same way.  Trial
seeds are derived as the trial loop reaches them, so a huge trial count
costs nothing before the first trial.
"""
import numpy as np
import pytest
from test_edge_key_bound import run_capped

import degree_lab.experiments as experiments
from degree_lab.experiments import KIND_SPECS, ExperimentConfig, run_experiment
from degree_lab.graphs import LabeledGraph
from degree_lab.seeding import trial_seed

K4 = LabeledGraph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])

# a valid two-trial config of every kind with an int flag
VALID = {
    "bins": dict(n=10, k=10),
    "forest": dict(n=10, t=2),
    "gnm": dict(n=10, m=5),
    "cs": dict(n=10, m=4),
    "complex": dict(core=K4, q=10),
    "pipeline": dict(core=K4, large_order=10, small_order=0, n=20, m=17),
    "census": dict(n=4, m=3),
}

INT_FIELDS = [(kind, flag.field) for kind, spec in KIND_SPECS.items()
              for flag in spec.flags if flag.type is int]


def config(kind, **changes):
    return ExperimentConfig(kind, **{"trials": 2, **VALID[kind], **changes})


def test_every_int_flag_is_covered():
    assert {kind for kind, _ in INT_FIELDS} == set(VALID)
    assert {("bins", "master_seed"), ("bins", "trials"),
            ("pipeline", "large_order")} <= set(INT_FIELDS)


@pytest.mark.parametrize("kind, field", INT_FIELDS)
@pytest.mark.parametrize("fraction", [0.0, 0.5])
def test_float_int_flags_are_refused_before_any_seed(kind, field, fraction,
                                                     monkeypatch):
    def no_seed(*args):
        raise AssertionError("a trial seed was derived")

    monkeypatch.setattr(experiments, "trial_seed", no_seed)
    value = getattr(config(kind), field) + fraction
    with pytest.raises(ValueError,
                       match=rf"^{field} must be an integer, got {value}$"):
        run_experiment(config(kind, **{field: float(value)}))


def test_float_master_seed_is_refused_not_truncated():
    with pytest.raises(ValueError,
                       match=r"^master_seed must be an integer, got 1\.5$"):
        run_experiment(ExperimentConfig(kind="bins", n=10, k=10, trials=2,
                                        master_seed=1.5))


@pytest.mark.parametrize("args, message", [
    ((1.5, 0), "master_seed must be an integer, got 1.5"),
    ((1.0, 0), "master_seed must be an integer, got 1.0"),
    ((0, 2.0), "trial_index must be an integer, got 2.0"),
    ((0, -1), "trial_index must be at least 0, got -1"),
])
def test_trial_seed_reads_integers(args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        trial_seed(*args)


def test_trial_seed_takes_any_integer_master_mod_2_64():
    assert trial_seed(-1, 3) == trial_seed(2**64 - 1, 3)
    assert trial_seed(np.int64(5), np.uint8(2)) == trial_seed(5, 2)


def test_seeds_are_derived_as_the_trials_run(monkeypatch):
    def first_only(master, index):
        assert index == 0, "a seed was derived before its trial came up"
        return trial_seed(master, index)

    monkeypatch.setattr(experiments, "trial_seed", first_only)
    # m > n: the first cs trial refuses m
    with pytest.raises(ValueError, match="m = 11"):
        run_experiment(ExperimentConfig(kind="cs", n=10, m=11,
                                        trials=10**300))


def test_huge_trial_count_exits_at_the_first_trial():
    result = run_capped(["-m", "degree_lab.cli", "cs", "--n", "10", "--m",
                         "11", "--trials", str(10**300)])
    assert result.returncode == 2, result.stderr
    assert result.stdout == ""
    assert result.stderr.startswith("degree-lab: error: ")
    assert "m = 11" in result.stderr
