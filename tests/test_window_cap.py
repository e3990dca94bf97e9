"""Degree windows never predict a degree the sampled graphs cannot reach."""
import json

import pytest

from degree_lab.cli import main
from degree_lab.edgelist import write_edge_list
from degree_lab.graphs import LabeledGraph

K4 = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]


@pytest.mark.parametrize("argv, top", [
    # the uncapped window was [8, 9]: no simple graph on 6 vertices has a
    # vertex of degree above 5
    (["gnm", "--n", "6", "--m", "9", "--trials", "50"], 5),
    # the uncapped window was [3, 4] for a single edge
    (["forest", "--n", "2", "--t", "1"], 1),
    # the uncapped window was [4, 4]; K4 itself is the only draw
    (["complex", "--core", "CORE", "--q", "4"], 3),
    # the uncapped window was [2, 3]; the triangle is the only draw
    (["cs", "--n", "3", "--m", "3", "--trials", "20"], 2),
])
def test_window_is_capped_at_the_largest_degree(argv, top, tmp_path,
                                                capsysbinary):
    core = tmp_path / "core.txt"
    write_edge_list(LabeledGraph(4, K4), core)
    argv = [str(core) if a == "CORE" else a for a in argv]
    main(argv)
    doc = json.loads(capsysbinary.readouterr().out)
    lo, hi = doc["prediction"]["interval"]
    assert hi == top
    assert lo <= hi
    assert doc["prediction"]["h"] <= top
    assert max(value for value, _ in doc["histogram"]) == top
