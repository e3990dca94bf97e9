"""Vertex and bin counts past graphs.MAX_VERTICES are refused up front.

The bins and forest experiments and the samplers allocate arrays of
size n, so a huge n must fail as a usage error before the first
allocation, with the one refusal of graphs._order.  Each case runs in
the address-space-capped child process of test_edge_key_bound, where
any array of size n would fail the test instead.
"""
import pytest

from degree_lab.graphs import MAX_VERTICES

from test_edge_key_bound import HUGE, run_capped


@pytest.mark.parametrize("code, limit", [
    (f"throw_balls({HUGE}, 2, 0)", "vertex limit"),
    (f"throw_positions({HUGE}, 2, 0)", "vertex limit"),
    (f"loads_from_positions({HUGE}, [1, 2])", "vertex limit"),
    (f"sample_forest({HUGE}, 1, 0)", "vertex limit"),
    (f"sample_forest_degrees({HUGE}, 1, 0)", "vertex limit"),
    (f"decode_sequence({HUGE}, 1, [1])", "vertex limit"),
    (f"forest_count({HUGE}, 1)", "vertex limit"),
    (f"sample_multigraph({HUGE}, 1, 0)", "vertex limit"),
    (f"sample_cs({HUGE}, 1, 0)", "vertex limit"),
    (f"enumerate_gnm({HUGE}, 0)", "vertex limit"),
    (f"exact_census_gnm({HUGE}, 0, 1, 0)", "vertex limit"),
])
def test_api_refuses_n_past_the_limit(code, limit):
    script = ("from degree_lab import *\n"
              f"try:\n    {code}\n"
              "except ValueError as exc:\n"
              "    print(type(exc).__name__, exc)\n")
    result = run_capped(["-c", script])
    assert result.returncode == 0, result.stderr
    assert result.stdout == (f"ValueError n = {HUGE} exceeds the {limit} "
                             f"{MAX_VERTICES}\n")


@pytest.mark.parametrize("argv", [
    ["bins", "--n", str(HUGE), "--k", "2", "--trials", "1"],
    ["forest", "--n", str(HUGE), "--t", "1", "--trials", "1"],
])
def test_cli_refuses_n_past_the_limit(argv):
    result = run_capped(["-m", "degree_lab.cli", *argv])
    assert result.returncode == 2
    assert result.stdout == ""
    assert f"n = {HUGE} exceeds the" in result.stderr
    assert str(MAX_VERTICES) in result.stderr
