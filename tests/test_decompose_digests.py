"""Bytes of the decompose report locked across commits.

degree-lab decompose runs in the directory of its input file, so that
params.file is the same bare name on every machine, and the sha256 of
its output is compared with the value recorded when the test was added.
"""
import hashlib

import numpy as np

from degree_lab.cli import main
from degree_lab.edgelist import format_edge_list
from degree_lab.graphs import LabeledGraph
from degree_lab.samplers import PipelineSpec, sample_pipeline

K4 = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]

# Two complex components whose cores are K4s of the same size (the tie
# goes to the one holding the smaller label), each with a pendant path,
# plus a triangle with a tail and a two-vertex tree outside the complex
# part: large complex, small complex, non-complex and core all non-empty.
HAND_MADE = """\
16 20
9 12
9 13
9 15
12 13
12 15
13 15
15 16
1 3
1 4
1 7
3 4
3 7
4 7
7 10
10 11
2 5
5 6
2 6
6 8
14 2
"""


def pipeline_draw() -> str:
    core = LabeledGraph(8, K4 + [(u + 4, v + 4) for u, v in K4])
    spec = PipelineSpec(core, large_order=40, small_order=12, n=100, m=80)
    return format_edge_list(sample_pipeline(spec, np.random.default_rng(7),
                                            shuffle_labels=True))


def decompose_digest(text, tmp_path, monkeypatch, capsysbinary) -> str:
    (tmp_path / "graph.txt").write_text(text)
    monkeypatch.chdir(tmp_path)
    assert main(["decompose", "graph.txt"]) == 0
    return hashlib.sha256(capsysbinary.readouterr().out).hexdigest()


def test_hand_made_graph(tmp_path, monkeypatch, capsysbinary):
    assert decompose_digest(HAND_MADE, tmp_path, monkeypatch,
                            capsysbinary) == (
        "8f3a716987f80ae883c0095f2c6535cd6d1922af1d64b4d680310e29fcfc0c03")


def test_pipeline_draw(tmp_path, monkeypatch, capsysbinary):
    assert decompose_digest(pipeline_draw(), tmp_path, monkeypatch,
                            capsysbinary) == (
        "7d3dace7e024dd0432e355920a18f6439076a19936c5033e71919cedeeada255")
