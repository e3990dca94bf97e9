"""samplers._lex_ranks: the census counts each sample at its lexicographic
rank in G(n, m), computed from its edge keys, so it never lists the class.

Every graph that enumerate_gnm lists must rank to its own index; the
census must give the per-sample loop's counts with enumerate_gnm out of
reach; and the rank tables must stay small on a class the caps allow
whose pair set is large.
"""
import numpy as np
import pytest
from test_census_blocks import reference_census
from test_edge_key_bound import run_capped

from degree_lab import samplers
from degree_lab.graphs import _edge_keys
from degree_lab.samplers import _lex_ranks, enumerate_gnm, exact_census_gnm


def class_keys(n, m):
    """The sorted edge keys of enumerate_gnm(n, m), one row per graph."""
    graphs = enumerate_gnm(n, m)
    edges = np.stack([g.edges for g in graphs]).reshape(len(graphs), m, 2)
    return _edge_keys(n, edges[..., 0], edges[..., 1])


@pytest.mark.parametrize("n, m", [(4, 3), (5, 5), (6, 2), (6, 8), (7, 4),
                                  (20, 1), (141, 1), (3, 3), (6, 15),
                                  (4, 0), (1, 0)])
def test_every_graph_ranks_to_its_own_index(n, m):
    keys = class_keys(n, m)
    assert _lex_ranks(n, m)(keys).tolist() == list(range(keys.shape[0]))


@pytest.mark.parametrize("n, m", [(4, 3), (5, 5)])
def test_census_never_lists_the_class(monkeypatch, n, m):
    want = {seed: reference_census(n, m, 300, seed) for seed in range(3)}

    def refuse(n, m):
        raise AssertionError("the census listed its class")

    monkeypatch.setattr(samplers, "enumerate_gnm", refuse)
    for seed, counts in want.items():
        assert exact_census_gnm(n, m, 300, seed).counts == counts


def test_rank_tables_of_the_complete_graph_fit_in_two_gib():
    # K447 is the one graph of G(447, 99 681): 99 681 edges, at the edge
    # cap, and a dense m x C(n, 2) table of binomials would hold 10^10
    result = run_capped(["-c", "from degree_lab.samplers import "
                         "exact_census_gnm; "
                         "print(exact_census_gnm(447, 99681, 0).graph_count)"])
    assert result.returncode == 0, result.stderr
    assert result.stdout == "1\n"
