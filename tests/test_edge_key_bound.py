"""Vertex counts whose edge keys u * (n + 1) + v would overflow int64.

Each refusal runs in a child process whose address space is capped at
2 GiB, so a check that allocated anything of size n (4 GB even as bools)
would fail there instead of passing.
"""
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from degree_lab.graphs import MAX_VERTICES, MultiGraph

ROOT = Path(__file__).resolve().parent.parent
HUGE = 4_000_000_000
LIMIT = 2 << 30


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (LIMIT, LIMIT))


def run_capped(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["OPENBLAS_NUM_THREADS"] = "1"
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120,
                          preexec_fn=_cap_address_space)


def test_bound_is_the_largest_n_whose_keys_fit():
    assert (MAX_VERTICES + 1) ** 2 <= 2 ** 63 < (MAX_VERTICES + 2) ** 2


def test_endpoints_survive_the_key_at_the_bound():
    n = MAX_VERTICES
    g = MultiGraph(n, [(n, n - 1), (n - 2, n - 3), (n, n), (n - 2, n - 3)])
    assert g.edges.tolist() == [[n - 3, n - 2], [n - 3, n - 2],
                                [n - 1, n], [n, n]]
    assert not g.is_simple()


@pytest.mark.parametrize("code, error", [
    (f"LabeledGraph({HUGE}, [(1, 2)])", "GraphError"),
    (f"sample_gnm({HUGE}, 2, 0)", "ValueError"),
])
def test_api_refuses_a_vertex_count_past_the_bound(code, error):
    script = ("from degree_lab import LabeledGraph, GraphError, sample_gnm\n"
              f"try:\n    {code}\n"
              "except (GraphError, ValueError) as exc:\n"
              "    print(type(exc).__name__, exc)\n")
    result = run_capped(["-c", script])
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith(error)
    assert str(HUGE) in result.stdout


def test_cli_refuses_a_vertex_count_past_the_bound():
    result = run_capped(["-m", "degree_lab.cli", "gnm", "--n", str(HUGE),
                         "--m", "2", "--trials", "1"])
    assert result.returncode == 2
    assert result.stdout == ""
    assert f"n = {HUGE}" in result.stderr

