"""Each experiment input is read once: argparse stores every flag under
its ExperimentConfig field, and nu reports a whole count as an int
however it was given."""
import json

import pytest

from degree_lab.cli import _config_from_args, build_parser, main
from degree_lab.edgelist import write_edge_list
from degree_lab.experiments import (DEFAULT_SEED, KIND_SPECS,
                                    ExperimentConfig, emit_report,
                                    run_experiment)
from degree_lab.graphs import LabeledGraph

K4 = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]


@pytest.mark.parametrize("kind", list(KIND_SPECS))
def test_every_flag_lands_on_its_config_field(kind, tmp_path):
    core = tmp_path / "k4.txt"
    write_edge_list(LabeledGraph(4, K4), core)
    argv, want = [kind], {}
    for i, flag in enumerate(KIND_SPECS[kind].flags):
        if flag.type is bool:
            argv.append(flag.name)
            want[flag.field] = True
        elif flag.name == "--core":
            argv += [flag.name, str(core)]
        else:
            want[flag.field] = flag.type(11 + i)
            argv += [flag.name, str(want[flag.field])]
    args = build_parser().parse_args(argv)
    cfg = _config_from_args(args)
    for field, value in want.items():
        assert getattr(args, field) == value
        assert getattr(cfg, field) == value
    if "--core" in argv:
        assert cfg.core == LabeledGraph(4, K4)


@pytest.mark.parametrize("kind, shown", [
    ("pipeline", "--l L"), ("pipeline", "--r R"), ("bins", "--seed SEED"),
    ("bins", "--eps EPS"), ("complex", "--core FILE"),
])
def test_help_keeps_its_metavars(kind, shown, capsys):
    with pytest.raises(SystemExit):
        main([kind, "--help"])
    assert shown in capsys.readouterr().out


def test_seed_default_is_stated_once(capsys):
    assert ExperimentConfig(kind="bins").master_seed == DEFAULT_SEED
    with pytest.raises(SystemExit):
        main(["bins", "--help"])
    assert f"master seed (default {DEFAULT_SEED})" in capsys.readouterr().out


def test_nu_reports_whole_counts_as_ints(capsysbinary):
    texts = []
    for argv in (["nu", "--n", "100", "--k", "100"], ["nu", "--n", "100"]):
        assert main(argv) == 0
        texts.append(json.dumps(json.loads(capsysbinary.readouterr().out)
                                ["params"]))
    report = run_experiment(ExperimentConfig(kind="nu", n=100.0, k=100.0))
    texts.append(json.dumps(json.loads(emit_report(report))["params"]))
    assert texts == ['{"n": 100, "k": 100, "eps": 0.25}'] * 3


def test_nu_keeps_a_float_past_two_to_the_53(capsysbinary):
    assert main(["nu", "--n", "1e306", "--k", "10"]) == 0
    params = json.loads(capsysbinary.readouterr().out)["params"]
    assert json.dumps(params) == '{"n": 1e+306, "k": 10, "eps": 0.25}'
