"""A vertex count past graphs.MAX_VERTICES is refused under the name the
caller gave it: q for a complex graph, n or a part order for a pipeline
draw.

A pipeline draw's complex-free part has n - l - r vertices, a number the
caller never typed, so the spec refuses n itself, before any draw.  Each
case runs in the address-space-capped child process of
test_edge_key_bound, where any array of size n would fail the test
instead.
"""
import pytest

from degree_lab.edgelist import write_edge_list
from degree_lab.graphs import MAX_VERTICES, LabeledGraph

from test_edge_key_bound import HUGE, run_capped

K4 = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
K4_CODE = f"LabeledGraph(4, {K4})"


def refusal(name, value=HUGE):
    return f"{name} = {value} exceeds the vertex limit {MAX_VERTICES}"


@pytest.mark.parametrize("code, name", [
    (f"sample_complex({K4_CODE}, {HUGE}, 0)", "q"),
    (f"sample_complex_degrees({K4_CODE}, {HUGE}, 0)", "q"),
    (f"PipelineSpec({K4_CODE}, 4, 0, {HUGE}, {HUGE // 2})", "n"),
    (f"PipelineSpec({K4_CODE}, {HUGE}, 0, 20, 17)", "large_order"),
], ids=["sample_complex", "sample_complex_degrees", "PipelineSpec",
        "PipelineSpec-large_order"])
def test_api_names_the_order_it_was_given(code, name):
    script = ("from degree_lab import *\n"
              f"try:\n    {code}\n"
              "except ValueError as exc:\n"
              "    print(type(exc).__name__, exc)\n")
    result = run_capped(["-c", script])
    assert result.returncode == 0, result.stderr
    assert result.stdout == f"ValueError {refusal(name)}\n"


@pytest.mark.parametrize("flags, name, value", [
    (["complex", "--q", str(HUGE)], "q", HUGE),
    (["pipeline", "--l", "4", "--r", "0", "--n", str(HUGE + 10),
      "--m", str((HUGE + 10) // 2)], "n", HUGE + 10),
], ids=["complex", "pipeline"])
def test_cli_names_the_flag_it_was_given(tmp_path, flags, name, value):
    core = tmp_path / "k4.txt"
    write_edge_list(LabeledGraph(4, K4), core)
    argv = [flags[0], "--core", str(core), *flags[1:], "--trials", "1"]
    result = run_capped(["-m", "degree_lab.cli", *argv])
    assert result.returncode == 2
    assert result.stdout == ""
    assert refusal(name, value) in result.stderr
