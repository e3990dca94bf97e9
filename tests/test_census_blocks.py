"""The block-drawn census of samplers.exact_census_gnm against the
per-sample loop it replaced.

reference_census is the census loop over sample_gnm_counted, and
reference_gnm_counted, reference_multigraph and their helpers are the
one-pairing-per-call draw and simplicity rule, kept here verbatim as the
reference.  numpy's bounded-integer stream does not depend on how the
throws are split into calls, so the block census must give the same
counts, raise SamplingCapExceeded on the same seeds and leave the
generator in the same state; the single-pairing samplers must give the
same graphs and attempt counts.
"""
import math
import time

import numpy as np
import pytest
from test_edge_key_bound import run_capped

from degree_lab import samplers
from degree_lab.graphs import LabeledGraph, MultiGraph
from degree_lab.samplers import (DEFAULT_GNM_CAP, ENUMERATION_CAP,
                                 SamplingCapExceeded, enumerate_gnm,
                                 exact_census_gnm, sample_gnm_counted,
                                 sample_multigraph)


def reference_edge_keys(n, u, v):
    key = u * np.int64(n + 1) + v
    key.sort()
    return key


def reference_is_simple(n, u, v):
    key = reference_edge_keys(n, u, v)
    return not (bool((u == v).any()) or bool((key[1:] == key[:-1]).any()))


def reference_draw_pairing(n, m, rng):
    positions = rng.integers(1, n + 1, size=2 * m)
    a = positions[0::2]
    b = positions[1::2]
    return np.minimum(a, b), np.maximum(a, b)


def reference_multigraph(n, m, rng=None):
    rng = np.random.default_rng(rng)
    u, v = reference_draw_pairing(n, m, rng)
    return MultiGraph(n, np.column_stack((u, v)))


def reference_gnm_counted(n, m, rng=None, *, max_attempts=DEFAULT_GNM_CAP):
    rng = np.random.default_rng(rng)
    for attempt in range(1, max_attempts + 1):
        u, v = reference_draw_pairing(n, m, rng)
        if reference_is_simple(n, u, v):
            return LabeledGraph(n, np.column_stack((u, v))), attempt
    raise SamplingCapExceeded(
        f"no simple pairing in {max_attempts} attempts at n={n}, m={m}",
        max_attempts)


def reference_census(n, m, trials, rng=None):
    """Counts per enumerated graph, one reference_gnm_counted call a sample."""
    graphs = enumerate_gnm(n, m)
    index = {g.edges.tobytes(): i for i, g in enumerate(graphs)}
    rng = np.random.default_rng(rng)
    counts = [0] * len(graphs)
    for _ in range(trials):
        g, _ = reference_gnm_counted(n, m, rng)
        counts[index[g.edges.tobytes()]] += 1
    return tuple(counts)


def outcome(census, n, m, trials, seed):
    """Counts or the cap exception's attempts, and the generator state after."""
    rng = np.random.default_rng(seed)
    try:
        result = census(n, m, trials, rng)
    except SamplingCapExceeded as exc:
        result = ("cap", exc.attempts)
    if isinstance(result, samplers.UniformityReport):
        result = result.counts
    return result, rng.bit_generator.state


SMALL_CLASSES = [(n, m) for n in range(1, 6) for m in range(math.comb(n, 2) + 1)
                 if math.comb(math.comb(n, 2), m) <= ENUMERATION_CAP]


@pytest.mark.parametrize("n, m", SMALL_CLASSES)
def test_counts_match_the_per_sample_loop(n, m):
    for seed in range(5):
        assert (outcome(exact_census_gnm, n, m, 20, seed)
                == outcome(reference_census, n, m, 20, seed))


def test_counts_match_at_twenty_thousand_samples():
    got, state = outcome(exact_census_gnm, 4, 3, 20_000, 0)
    assert sum(got) == 20_000
    assert (got, state) == outcome(reference_census, 4, 3, 20_000, 0)


def test_counts_match_when_the_ball_bound_splits_blocks(monkeypatch):
    monkeypatch.setattr(samplers, "_BLOCK_BALLS", 60)  # ten rows of (4, 3)
    for seed in range(3):
        assert (outcome(exact_census_gnm, 4, 3, 500, seed)
                == outcome(reference_census, 4, 3, 500, seed))


@pytest.mark.parametrize("trials", [1, 3])
def test_k5_hits_the_cap_on_the_same_seeds(trials):
    # K5 is simple with probability about 3.9e-5, so one sample needs more
    # than DEFAULT_GNM_CAP draws about as often as not; with 3 samples the
    # blocks hold 3 rows, and a run of non-simple rows crosses their bounds
    raised = set()
    for seed in range(8):
        got = outcome(exact_census_gnm, 5, 10, trials, seed)
        assert got == outcome(reference_census, 5, 10, trials, seed)
        if got[0] == ("cap", DEFAULT_GNM_CAP):
            raised.add(seed)
    assert raised
    if trials == 1:
        assert len(raised) < 8


def test_zero_trials():
    got, _ = outcome(exact_census_gnm, 4, 3, 0, 0)
    assert got == (0,) * 20 == outcome(reference_census, 4, 3, 0, 0)[0]


def test_no_edges_on_a_large_vertex_set():
    report = exact_census_gnm(100_000, 0, 50, rng=0)
    assert report.graph_count == 1
    assert report.counts == (50,)
    assert report.tv_distance == 0.0
    assert enumerate_gnm(3000, 0) == [LabeledGraph(3000)]


@pytest.mark.parametrize("m", [7, -1])
def test_out_of_range_edge_count_is_refused_before_enumeration(m):
    with pytest.raises(ValueError, match=f"no simple graph on n = 4 vertices "
                                         f"has m = {m} edges"):
        exact_census_gnm(4, m, 0)


@pytest.mark.parametrize("n, m", [(4, 3), (300, 150), (10_000, 5_000)])
def test_single_pairing_samplers_match_the_reference(n, m):
    for seed in range(20):
        got, tries = sample_gnm_counted(n, m, seed)
        want, want_tries = reference_gnm_counted(n, m, seed)
        assert got == want and tries == want_tries
        assert sample_multigraph(n, m, seed) == reference_multigraph(n, m, seed)


@pytest.mark.parametrize("cap", [-1, 0, 1, 7])
def test_capped_gnm_raises_where_the_reference_does(cap):
    # K8 is the only simple graph with 28 edges on 8 vertices; no pairing
    # draw within a small cap is simple
    got, want = np.random.default_rng(3), np.random.default_rng(3)
    fresh = got.bit_generator.state
    with pytest.raises(SamplingCapExceeded) as exc:
        sample_gnm_counted(8, 28, got, max_attempts=cap)
    assert exc.value.attempts == cap
    with pytest.raises(SamplingCapExceeded):
        reference_gnm_counted(8, 28, want, max_attempts=cap)
    assert got.bit_generator.state == want.bit_generator.state
    assert (got.bit_generator.state == fresh) == (cap <= 0)


@pytest.mark.parametrize("argv", [
    ["census", "--n", "100000", "--m", "0", "--trials", "1000"],
    ["census", "--n", "4", "--m", "3", "--trials", "1000000"],
])
def test_census_fits_in_two_gib(argv):
    result = run_capped(["-m", "degree_lab.cli", *argv])
    assert result.returncode == 0, result.stderr


def test_class_over_the_edge_bound_is_refused_before_listing():
    # 9 870 graphs, under ENUMERATION_CAP, but of 9 869 edges each
    result = run_capped(["-m", "degree_lab.cli", "census", "--n", "141",
                         "--m", "9869", "--trials", "100000"])
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("degree-lab: error: 9870 graphs of "
                                    "9869 edges is too many to enumerate")
    assert len(enumerate_gnm(7, 4)) == 5985  # 23 940 edges, under the bound


def test_class_size_walk_matches_the_exact_count():
    # the walk runs to min(m, N - m), so classes past the middle, such as
    # G(7, 20) with 21 graphs, are counted, not refused
    edge_cap = samplers.ENUMERATION_EDGE_CAP
    for n in range(13):
        pairs = math.comb(n, 2)
        for m in range(pairs + 2):
            total = math.comb(pairs, m)
            if total <= ENUMERATION_CAP and total * m <= edge_cap:
                assert samplers._class_size(n, m) == total, (n, m)
            else:
                with pytest.raises(ValueError, match="too many to enumerate"):
                    samplers._class_size(n, m)


def test_huge_class_is_refused_at_once_naming_the_caps():
    # C(C(10**5, 2), m) has over 4 300 digits at both sizes
    result = run_capped(["-m", "degree_lab.cli", "census", "--n", "100000",
                         "--m", "5000", "--trials", "1"])
    assert result.returncode == 2
    assert result.stdout == ""
    assert "too many to enumerate" in result.stderr
    assert (f"{ENUMERATION_CAP} graphs, {samplers.ENUMERATION_EDGE_CAP} "
            "edges") in result.stderr
    start = time.perf_counter()
    with pytest.raises(ValueError, match="too many to enumerate"):
        exact_census_gnm(10**5, 5 * 10**4, 1)
    assert time.perf_counter() - start < 0.1


# rows of sorted keys u * 4 + v of G(3, 2), whose pairs have keys 6, 7, 11:
# the loop (1, 1) = 5 before a pair, the pair (1, 2) twice, and (3, 4) = 16,
# an endpoint past n whose key lies past every key of a pair on {1..3}
OUTSIDE = [[5, 7], [6, 6], [7, 16]]


@pytest.mark.parametrize("outside", range(len(OUTSIDE)))
def test_sample_outside_the_class_is_refused(outside):
    keys = np.array([[6, 7], OUTSIDE[outside], [7, 11]])
    with pytest.raises(RuntimeError,
                       match="a sample outside the enumerated class"):
        samplers._lex_ranks(3, 2)(keys)
