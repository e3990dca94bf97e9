"""Report bytes locked across commits.

The eight experiment configs of acceptance criterion 13, with the sha256
of their JSON report (elapsed time excluded) and, for kinds with
per-trial rows, of their CSV report.  A change to any report byte, key
order included, shows up here; criterion 13 only compares reruns.
"""
import hashlib

import pytest

from degree_lab.experiments import (ExperimentConfig, emit_report,
                                    run_experiment)
from degree_lab.graphs import LabeledGraph

K4 = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
CORE = LabeledGraph(4, K4)

CASES = [
    (ExperimentConfig(kind="nu", n=100_000),
     "ba2c6166e187a56889fd25a12ee52be8ec6b3daeb70df1817b47b442e23951b1",
     None),
    (ExperimentConfig(kind="bins", n=500, k=500, trials=10, master_seed=3),
     "5853fc97fcf01ac7f315ebed9c33e3bfb9df79428c1fbda92650a1ddb0bf499a",
     "d8df28666a33a922b69988af136d9f3e77da767dda73eb8a77d7bd4f360b118a"),
    (ExperimentConfig(kind="forest", n=400, t=2, trials=10, master_seed=3),
     "17bc990f0099cad3a270ede86b4dccc9313aa305c715c20b6b6984e4c5f0d16b",
     "7a6013f52f38f2be1bf22370825576ef9fe01e3077851a194bfc16a8e63d172e"),
    (ExperimentConfig(kind="gnm", n=300, m=150, trials=10, master_seed=3),
     "f704be5ae526db7cf84d88f2b1f94606dbe5e401245faf27a47484b791bc4207",
     "bd5ee2cc20c28b9caa5592db798a4aee98b65d37448b0782b929e006c01d10fe"),
    (ExperimentConfig(kind="cs", n=300, m=150, trials=10, master_seed=3),
     "b344662d7b0b044afddab6342b767a111744c3b22e74d0c8f2ab202020bde233",
     "bd5ee2cc20c28b9caa5592db798a4aee98b65d37448b0782b929e006c01d10fe"),
    (ExperimentConfig(kind="complex", core=CORE, q=60, trials=10,
                      master_seed=3),
     "2216879e58e70391107300e89cb58217089dc32cf6198819805148e5fe77ae86",
     "f1e273ce3e74adf9aac3cb3a5a0ce11bba41f598c0b030c2aa3b99d0e5cb4912"),
    (ExperimentConfig(kind="pipeline", core=CORE, large_order=10,
                      small_order=0, n=60, m=37, trials=10, master_seed=3),
     "cd3f5be02377099210a71fb851e4917e6f43d554022956ad30c82343f6d8b5d6",
     "c3374bc7f5d5ecffd5992940e2c3154eca631f43b517c75dc800955535e03cfd"),
    (ExperimentConfig(kind="census", n=3, m=2, trials=50, master_seed=3),
     "2efda1584964baf3c870060d33283a45425bfbcef630e96469ab2f1701350930",
     None),
]


def sha256(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


@pytest.mark.parametrize("cfg, json_digest, csv_digest", CASES,
                         ids=[cfg.kind for cfg, _, _ in CASES])
def test_report_bytes_unchanged(cfg, json_digest, csv_digest):
    report = run_experiment(cfg)
    assert sha256(emit_report(report, "json",
                              include_elapsed=False)) == json_digest
    if csv_digest is None:
        with pytest.raises(ValueError):
            emit_report(report, "csv")
    else:
        assert sha256(emit_report(report, "csv")) == csv_digest
