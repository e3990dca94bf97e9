"""Bad inputs stop at the boundary; capped trials are counted, not lost."""
import json
import re

import pytest

from degree_lab.cli import main


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
