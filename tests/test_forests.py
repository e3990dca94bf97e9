import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degree_lab.forests import (RootedForest, decode_sequence,
                                degrees_from_sequence, encode_forest,
                                forest_count, sample_forest,
                                sample_forest_degrees)
from degree_lab.graphs import GraphError, LabeledGraph
from degree_lab.samplers import sample_complex
from oracles import enumerate_rooted_forests, is_rooted_forest


def all_sequences(n, t):
    """Every admissible code word for the (n, t) family."""
    if n == t:
        yield ()
        return
    for body in itertools.product(range(1, n + 1), repeat=n - t - 1):
        for last in range(1, t + 1):
            yield body + (last,)


class TestRootedForest:
    def test_accepts_single_tree(self):
        f = RootedForest(3, 1, [(1, 2), (2, 3)])
        assert f.n == 3 and f.t == 1
        assert f.max_degree() == 2

    def test_edgeless(self):
        f = RootedForest(3, 3)
        assert f.degree_sequence().tolist() == [0, 0, 0]

    def test_rejects_wrong_edge_count(self):
        with pytest.raises(GraphError):
            RootedForest(3, 1, [(1, 2)])

    def test_rejects_cycle(self):
        with pytest.raises(GraphError):
            RootedForest(4, 1, [(1, 2), (2, 3), (2, 3)])
        with pytest.raises(GraphError):
            RootedForest(5, 2, [(1, 3), (3, 4), (4, 1)])

    def test_rejects_roots_sharing_a_tree(self):
        # roots 1 and 2 joined by an edge: one component, two roots
        with pytest.raises(GraphError):
            RootedForest(4, 2, [(1, 2), (3, 4)])

    def test_rejects_bad_t(self):
        with pytest.raises(GraphError):
            RootedForest(3, 0, [(1, 2), (2, 3)])
        with pytest.raises(GraphError):
            RootedForest(3, 4)

    def test_as_graph_degrees_agree(self):
        f = RootedForest(5, 2, [(1, 3), (3, 4), (2, 5)])
        g = f.as_graph()
        assert np.array_equal(g.degree_sequence(), f.degree_sequence())


class TestCounting:
    def test_known_values(self):
        assert forest_count(4, 2) == 8
        assert forest_count(5, 1) == 125   # rooted labeled trees
        assert forest_count(3, 3) == 1
        assert forest_count(2, 1) == 1

    def test_matches_enumeration_oracle(self):
        for n in range(1, 7):
            for t in range(1, min(3, n) + 1):
                assert forest_count(n, t) == len(
                    enumerate_rooted_forests(n, t))


class TestCodec:
    def test_decode_example(self):
        # the code of the path 1-2-3-4 rooted at 1
        f = decode_sequence(4, 1, (3, 2, 1))
        assert f.edge_set() == {(3, 4), (2, 3), (1, 2)}

    def test_encode_inverts_it(self):
        f = RootedForest(4, 1, [(1, 2), (2, 3), (3, 4)])
        assert encode_forest(f) == (3, 2, 1)

    def test_trivial_family(self):
        f = decode_sequence(3, 3, ())
        assert f.num_edges == 0
        assert encode_forest(f) == ()

    def test_last_symbol_must_hit_a_root(self):
        with pytest.raises(ValueError):
            decode_sequence(4, 2, (3, 3))

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            decode_sequence(4, 2, (3, 2, 1))

    def test_exhaustive_small_family(self):
        seen = set()
        for seq in all_sequences(4, 2):
            f = decode_sequence(4, 2, seq)
            assert is_rooted_forest(4, 2, f.edge_set())
            assert encode_forest(f) == seq
            seen.add(frozenset(f.edge_set()))
        assert len(seen) == 8

    def test_bijection_up_to_six(self):
        for n in range(1, 7):
            for t in range(1, min(3, n) + 1):
                codes = set()
                forests = set()
                for seq in all_sequences(n, t):
                    f = decode_sequence(n, t, seq)
                    assert encode_forest(f) == seq
                    codes.add(seq)
                    forests.add(frozenset(f.edge_set()))
                assert len(codes) == forest_count(n, t)
                assert len(forests) == forest_count(n, t)
                assert forests == {
                    frozenset(e) for e in enumerate_rooted_forests(n, t)}

    def test_degrees_without_decoding(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            n = int(rng.integers(2, 30))
            t = int(rng.integers(1, n + 1))
            f = sample_forest(n, t, rng=int(rng.integers(0, 2 ** 32)))
            seq = encode_forest(f)
            assert np.array_equal(degrees_from_sequence(n, t, seq),
                                  f.degree_sequence())

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, data):
        n = data.draw(st.integers(2, 9))
        t = data.draw(st.integers(1, n))
        if n == t:
            seq = ()
        else:
            body = data.draw(st.lists(st.integers(1, n),
                                      min_size=n - t - 1,
                                      max_size=n - t - 1))
            seq = tuple(body) + (data.draw(st.integers(1, t)),)
        f = decode_sequence(n, t, seq)
        assert is_rooted_forest(n, t, f.edge_set())
        assert encode_forest(f) == seq


class TestSampling:
    def test_deterministic(self):
        a = sample_forest(50, 5, rng=7)
        b = sample_forest(50, 5, rng=7)
        assert a.edge_set() == b.edge_set()

    def test_degree_stream_matches_forest(self):
        for seed in range(10):
            f = sample_forest(200, 3, rng=seed)
            d = sample_forest_degrees(200, 3, rng=seed)
            assert np.array_equal(d, f.degree_sequence())

    def test_uniform_over_small_family(self):
        # n=4, t=2 has 8 forests; frequencies should be flat
        trials = 16000
        rng = np.random.default_rng(15)
        tally = Counter()
        for _ in range(trials):
            f = sample_forest(4, 2, rng=rng)
            tally[frozenset(f.edge_set())] += 1
        assert len(tally) == 8
        for count in tally.values():
            assert abs(count / trials - 1 / 8) < 0.015

    def test_all_roots(self):
        f = sample_forest(4, 4, rng=0)
        assert f.edge_set() == set()

    def test_all_roots_draw_nothing(self):
        # n == t has one forest and one code word, the empty one
        k4 = LabeledGraph(4, list(itertools.combinations(range(1, 5), 2)))
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        forest = sample_forest(4, 4, rng)
        assert (forest.n, forest.t, forest.num_edges) == (4, 4, 0)
        assert sample_forest_degrees(4, 4, rng).tolist() == [0, 0, 0, 0]
        assert sample_complex(k4, 4, rng) == k4
        assert rng.bit_generator.state == state
