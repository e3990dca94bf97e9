"""Bad inputs stop at the boundary; capped trials are counted, not lost."""
import json
import re

import pytest

from degree_lab.cli import main
from degree_lab.edgelist import write_edge_list
from degree_lab.experiments import KIND_SPECS
from degree_lab.graphs import LabeledGraph

K4 = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]

# small valid values of every required flag, per kind where they differ
SMALL = {"--n": "60", "--k": "10", "--t": "2", "--m": "30", "--q": "10",
         "--l": "10", "--r": "0"}
SMALL_BY_KIND = {"census": {"--n": "4", "--m": "3"}}


def huge_count_cases():
    """Every int-typed count flag but --trials and --seed, at a value
    inside the float range and at one past int64."""
    for kind, spec in KIND_SPECS.items():
        for flag in spec.flags:
            if flag.type is int and flag.name not in ("--trials", "--seed"):
                for label, value in (("10**306", 10**306), ("2**63", 2**63)):
                    yield pytest.param(kind, flag, value,
                                       id=f"{kind}{flag.name}={label}")


# values swept through every int and float flag of every kind
BOUNDARY = ("0", "-1", "0.5", "nan", "inf", "-inf", "x", "", "1e400")


def accepted(flag, value):
    """Whether flag takes value: any int as --seed, any finite value >= 0
    as --eps, and 0 where the flag's low is 0."""
    if flag.name == "--eps":
        return value in ("0", "0.5")
    if flag.low is None:
        return value in ("0", "-1")
    return value == "0" and flag.low == 0


def boundary_cases():
    """Every int and float flag of every kind at each BOUNDARY value it
    refuses."""
    for kind, spec in KIND_SPECS.items():
        for flag in spec.flags:
            if flag.type in (int, float):
                for value in BOUNDARY:
                    if not accepted(flag, value):
                        yield pytest.param(kind, flag, value,
                                           id=f"{kind}{flag.name}={value!r}")


def run_with(kind, flag, value, tmp_path, capsys):
    """main's exit code and output for kind with its required flags at
    small valid values and flag at value; argparse's own refusals raise
    SystemExit, whose code is taken."""
    core = tmp_path / "k4.txt"
    write_edge_list(LabeledGraph(4, K4), core)
    values = {**SMALL, **SMALL_BY_KIND.get(kind, {}), "--core": str(core)}
    argv = [kind]
    for f in KIND_SPECS[kind].flags:
        if f.required and f.name != flag.name:
            argv += [f.name, values[f.name]]
    argv += [flag.name, str(value)]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr()


@pytest.mark.parametrize("argv, name", [
    (["nu", "--n", "inf"], "n"),
    (["nu", "--n", "100", "--k", "nan"], "k"),
    (["bins", "--n", "10", "--k", "10", "--eps", "inf"], "epsilon"),
    (["bins", "--n", "10", "--k", "10", "--threshold", "nan"], "threshold"),
    (["gnm", "--n", "1", "--m", "0"], "m"),
    (["bins", "--n", "10", "--k", "0"], "k"),
    (["forest", "--n", "10", "--t", "2", "--trials", "0"], "trials"),
    (["bins", "--n", "10", "--k", "10", "--threshold", "2"], "threshold"),
    (["bins", "--n", "10", "--k", "10", "--threshold", "-0.5"], "threshold"),
    (["census", "--n", "4", "--m", "3", "--threshold", "5"], "threshold"),
    (["forest", "--n", "5", "--t", "6"], "t"),
    (["gnm", "--n", "3", "--m", "4"], "m"),
    (["cs", "--n", "10", "--m", "11"], "m"),
    (["nu", "--n", "0.5"], "n"),
    (["nu", "--n", "-5"], "n"),
    (["nu", "--n", "10", "--k", "0.5"], "k"),
    (["gnm", "--n", str(10**400), "--m", "2", "--trials", "1"], "n"),
    (["bins", "--n", "10", "--k", "10", "--trials", str(10**400)], "trials"),
    (["forest", "--n", "10", "--t", str(-10**400)], "t"),
])
def test_bad_input_is_a_usage_error_naming_it(argv, name, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert re.search(rf"error: .*\b{name}\b", captured.err)


@pytest.mark.parametrize("kind, flag, value", list(huge_count_cases()))
def test_a_huge_count_is_a_usage_error_naming_it(kind, flag, value, tmp_path,
                                                 capsys):
    # refused in the window or at the first trial's size readers, before
    # an array of that size is made; nothing runs in a child process
    code, captured = run_with(kind, flag, value, tmp_path, capsys)
    assert code == 2
    assert captured.out == ""
    assert re.search(rf"error: .*\b{flag.field}\b", captured.err)


@pytest.mark.parametrize("kind, flag, value", list(boundary_cases()))
def test_a_boundary_value_is_a_usage_error_naming_it(kind, flag, value,
                                                     tmp_path, capsys):
    # argparse names the flag, the experiment's checks its field or flag
    code, captured = run_with(kind, flag, value, tmp_path, capsys)
    assert code == 2
    assert captured.out == ""
    named = rf"\b({flag.field}|{flag.name[2:]})\b"
    assert re.search(rf"error: .*{named}", captured.err)


def test_pipeline_without_edges_is_a_usage_error_naming_m(tmp_path, capsys):
    core = tmp_path / "k4.txt"
    write_edge_list(LabeledGraph(4, K4), core)
    code = main(["pipeline", "--core", str(core), "--l", "10", "--r", "0",
                 "--n", "60", "--m", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert re.search(r"error: .*\bm\b", captured.err)


def test_every_trial_capped_gives_a_valid_failing_report(capsysbinary):
    # K8 is the only simple graph with 28 edges on 8 vertices; no pairing
    # draw within the cap is simple
    code = main(["gnm", "--n", "8", "--m", "28", "--trials", "2"])
    out = capsysbinary.readouterr().out

    def reject(token):
        raise ValueError(f"non-JSON constant {token}")

    doc = json.loads(out, parse_constant=reject)
    assert code == 1
    assert doc["verdict"] == "fail"
    assert doc["histogram"] == []
    assert doc["extras"]["failedTrials"] == 2
    assert doc["extras"]["acceptanceFraction"] == 0.0
