"""An input under the vertex limit but over the memory at hand is a usage
error: exit 2 and one "degree-lab: error:" line, no traceback.

Each command runs in the child process of test_edge_key_bound, whose
address space is capped at 2 GiB, so that the arrays of size n these
inputs ask for cannot be allocated.
"""
import pytest
from test_edge_key_bound import run_capped

from degree_lab.graphs import MAX_VERTICES

N = 3_037_000_000


def assert_usage_error(result):
    assert result.returncode == 2, result.stderr
    assert result.stdout == ""
    assert result.stderr.startswith("degree-lab: error: ")
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("argv", [
    ["bins", "--n", str(MAX_VERTICES), "--k", "2", "--trials", "1"],
    ["forest", "--n", str(N), "--t", "1", "--trials", "1"],
])
def test_experiment_over_memory_is_a_usage_error(argv):
    assert_usage_error(run_capped(["-m", "degree_lab.cli", *argv]))


def test_decompose_over_memory_is_a_usage_error(tmp_path):
    path = tmp_path / "huge.txt"
    path.write_text(f"{N} 1\n1 2\n")
    assert_usage_error(run_capped(["-m", "degree_lab.cli", "decompose",
                                   str(path)]))
