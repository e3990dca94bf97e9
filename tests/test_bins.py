import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degree_lab.bins import (census, expected_census, loads_from_positions,
                             max_load, prefix_max_load, throw_balls,
                             throw_positions)
from degree_lab.concentration import typical_max_load
from oracles import exact_expected_census


class TestThrow:
    def test_single_bin(self):
        loads = throw_balls(1, 17, rng=0)
        assert loads.tolist() == [17]

    def test_no_balls(self):
        loads = throw_balls(5, 0, rng=0)
        assert loads.tolist() == [0] * 5

    def test_conservation_and_range(self):
        loads = throw_balls(50, 200, rng=3)
        assert loads.sum() == 200
        assert loads.min() >= 0

    def test_positions_match_loads(self):
        rng = np.random.default_rng(11)
        pos = throw_positions(20, 60, rng)
        direct = throw_balls(20, 60, rng=11)
        assert np.array_equal(loads_from_positions(20, pos), direct)

    def test_roughly_uniform(self):
        # mean load k/n with fluctuation O(sqrt(k/n)) per bin
        n, k = 100, 100_000
        loads = throw_balls(n, k, rng=1)
        assert abs(loads.mean() - k / n) < 1e-9
        assert loads.std() < 5 * math.sqrt(k / n)

    def test_deterministic(self):
        a = throw_balls(30, 90, rng=42)
        b = throw_balls(30, 90, rng=42)
        assert np.array_equal(a, b)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            throw_balls(0, 3, rng=0)
        with pytest.raises(ValueError):
            throw_balls(3, -1, rng=0)

    @given(n=st.integers(1, 40), k=st.integers(0, 120),
           seed=st.integers(0, 2 ** 20))
    @settings(max_examples=50, deadline=None)
    def test_conservation_property(self, n, k, seed):
        loads = throw_balls(n, k, rng=seed)
        assert loads.shape == (n,)
        assert int(loads.sum()) == k


class TestLoadsFromPositions:
    def test_example(self):
        loads = loads_from_positions(3, np.array([1, 1, 2]))
        assert loads.tolist() == [2, 1, 0]

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            loads_from_positions(3, np.array([0, 1]))
        with pytest.raises(ValueError):
            loads_from_positions(3, np.array([4]))

    @pytest.mark.parametrize("positions, dtype", [
        ([1.5, 2], "float64"),
        ([1.0, 2.0], "float64"),
        (np.array([1.0, 3.0]), "float64"),
        (np.array([1, 2], dtype=np.float32), "float32"),
        (np.array([True, True]), "bool"),
        ([True], "bool"),
    ])
    def test_rejects_non_integer_positions(self, positions, dtype):
        with pytest.raises(ValueError) as info:
            loads_from_positions(3, positions)
        assert str(info.value) == f"ball positions must be integers, got {dtype}"

    @pytest.mark.parametrize("positions, loads", [
        ([], [0, 0, 0]),
        (np.array([]), [0, 0, 0]),
        ([3, 1, 3], [1, 0, 2]),
        (np.array([2, 2], dtype=np.uint8), [0, 2, 0]),
        (np.array([1, 3], dtype=np.int32), [1, 0, 1]),
    ])
    def test_accepts_integer_positions(self, positions, loads):
        assert loads_from_positions(3, positions).tolist() == loads


class TestMaxAndPrefix:
    def test_max(self):
        assert max_load(np.array([0, 3, 1])) == 3

    def test_prefix(self):
        loads = np.array([1, 4, 0, 2])
        assert prefix_max_load(loads, 1) == 1
        assert prefix_max_load(loads, 2) == 4
        assert prefix_max_load(loads, 4) == 4

    def test_prefix_range_checked(self):
        loads = np.array([1, 2])
        with pytest.raises(ValueError):
            prefix_max_load(loads, 0)
        with pytest.raises(ValueError):
            prefix_max_load(loads, 3)


class TestLoadVectors:
    """The load readers take integer loads, never negative, and refuse
    anything else rather than truncate or count it."""

    @pytest.mark.parametrize("loads, message", [
        ([1.5, 2.7], "loads must be integers, got float64"),
        ([1.0, 2.0], "loads must be integers, got float64"),
        (np.array([1, 2], dtype=np.float32), "loads must be integers, got float32"),
        ([True, False], "loads must be integers, got bool"),
        ([-3], "loads must be non-negative"),
        ([0, 4, -1], "loads must be non-negative"),
        (np.array([3, 2**63 + 5], dtype=np.uint64),
         "loads must fit in int64, got 9223372036854775813"),
    ])
    def test_refused(self, loads, message):
        for read in (max_load, lambda a: prefix_max_load(a, 1), census):
            with pytest.raises(ValueError) as info:
                read(loads)
            assert str(info.value) == message

    def test_integer_dtypes_accepted(self):
        loads = np.array([0, 3, 1], dtype=np.uint8)
        assert max_load(loads) == 3
        assert prefix_max_load(loads.astype(np.int32), 2) == 3
        assert census(loads).tolist() == [1, 1, 0, 1]


class TestCensus:
    def test_example(self):
        counts = census(np.array([0, 2, 2, 1]))
        assert counts.tolist() == [1, 1, 2]

    def test_total(self):
        loads = throw_balls(40, 90, rng=9)
        counts = census(loads)
        assert counts.sum() == 40
        assert np.dot(np.arange(counts.size), counts) == 90


class TestExpectedCensus:
    def test_all_in_one_bin(self):
        for n, k in ((2, 3), (5, 4), (10, 2)):
            assert expected_census(n, k, k) == pytest.approx(
                n ** (1 - k), rel=1e-12)

    def test_load_zero(self):
        n, k = 7, 3
        assert expected_census(n, k, 0) == pytest.approx(
            n * (1 - 1 / n) ** k, rel=1e-12)

    def test_out_of_range_loads(self):
        assert expected_census(5, 3, 4) == 0.0
        assert expected_census(5, 3, -1) == 0.0

    def test_single_bin(self):
        assert expected_census(1, 6, 6) == 1.0
        assert expected_census(1, 6, 5) == 0.0

    def test_matches_exact_binomial(self):
        n, k = 100, 100
        for load in (0, 1, 2, 5, 17):
            exact = exact_expected_census(n, k, load)
            assert expected_census(n, k, load) == pytest.approx(
                float(exact), rel=1e-10)

    def test_sums_to_bin_count(self):
        n, k = 30, 45
        total = sum(expected_census(n, k, j) for j in range(k + 1))
        assert total == pytest.approx(n, rel=1e-9)

    @pytest.mark.parametrize("n, k, load, want", [
        (10, 10**306, 1, 0.0),
        (10**306, 10**306, 0, 1e306 / math.e),
    ], ids=["k-past-the-range", "n-and-k-past-the-range"])
    def test_past_the_range_of_lgamma(self, n, k, load, want):
        # lgamma(k + 1) overflows for k past about 2.5e305
        assert expected_census(n, k, load) == pytest.approx(want, rel=1e-9)

    def test_agrees_with_the_lgamma_formula(self):
        def by_lgamma(n, k, load):
            log_binom = (math.lgamma(k + 1) - math.lgamma(load + 1)
                         - math.lgamma(k - load + 1))
            return math.exp(math.log(n) + log_binom - load * math.log(n)
                            + (k - load) * math.log1p(-1.0 / n))

        for n in (2, 3, 10, 1000, 10**6):
            for k in (0, 1, 2, 5, 14, 15, 16, 50, 200):
                for load in range(k + 1):
                    assert expected_census(n, k, load) == pytest.approx(
                        by_lgamma(n, k, load), rel=1e-12, abs=0.0)


class TestLoadBehavior:
    def test_census_mean_tracks_prediction(self):
        # average number of bins holding exactly 3 balls over repeated
        # experiments should sit near its expectation
        n = k = 100_000
        target = expected_census(n, k, 3)
        rng = np.random.default_rng(21)
        counts = []
        for _ in range(100):
            loads = loads_from_positions(n, rng.integers(1, n + 1, size=k))
            c = census(loads)
            counts.append(c[3] if c.size > 3 else 0)
        assert abs(np.mean(counts) - target) / target < 0.05

    def test_sparse_throws_never_collide_much(self):
        # with k = n^(1/3) balls the max load is 1 almost always
        n = 10 ** 6
        k = 100
        rng = np.random.default_rng(8)
        ones = sum(
            max_load(loads_from_positions(n, rng.integers(1, n + 1, size=k))) == 1
            for _ in range(200))
        assert ones >= 190

    def test_max_load_near_typical(self):
        # realized maxima cluster a little below the crossing point;
        # a window reaching two integers down catches nearly all mass
        n = k = 200_000
        anchor = math.floor(typical_max_load(n))
        rng = np.random.default_rng(13)
        hits = 0
        trials = 100
        for _ in range(trials):
            m = max_load(loads_from_positions(n, rng.integers(1, n + 1, size=k)))
            hits += anchor - 2 <= m <= anchor + 1
        assert hits / trials >= 0.95
