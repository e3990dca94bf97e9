import math

import numpy as np
import pytest

from degree_lab.bins import expected_census
from degree_lab.concentration import (OUT_OF_SCOPE, REGIME_ABOVE, REGIME_BELOW,
                                      REGIME_WINDOW, classify_regime,
                                      load_objective, log_ball_count,
                                      log_bin_count, predicted_interval,
                                      two_point_prediction, typical_max_load)


# an int past the float range, on which float(x) raises OverflowError
BIG = 10 ** 400
PAST_FLOATS = [pytest.param(BIG, id="1e400"), pytest.param(-BIG, id="-1e400")]


def grid_pairs(count=100, seed=5):
    """(n, k) pairs with k <= n, n log-spaced across [10, 1e12]."""
    rng = np.random.default_rng(seed)
    ns = np.exp(rng.uniform(np.log(10.0), np.log(1e12), size=count))
    ks = np.exp(rng.uniform(0.0, np.log(ns)))
    return list(zip(ns, np.maximum(ks, 1.0)))


class TestObjective:
    def test_at_one(self):
        for k in (1.0, 7.0, 1e5, 2.5):
            assert load_objective(1.0, 123.0, k) == pytest.approx(
                1.0 + math.log(k), abs=1e-15)

    def test_balanced_cancellation(self):
        # with k = n the k and n log terms collapse to a single + log n
        for n in (10.0, 1e4, 3.7e8):
            for x in (1.5, 2.0, 9.0):
                direct = load_objective(x, n, n)
                reduced = x - (x + 0.5) * math.log(x) + math.log(n)
                assert direct == pytest.approx(reduced, rel=1e-12)

    def test_zero_at_inverted_point(self):
        n = math.exp(log_bin_count(3.0))
        assert load_objective(3.0, n, n) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_nonpositive_x(self):
        with pytest.raises(ValueError):
            load_objective(0.0, 10, 10)
        with pytest.raises(ValueError):
            log_ball_count(-1.0, 10)
        with pytest.raises(ValueError):
            log_bin_count(0.0)


class TestHelperFunctions:
    def test_bin_count_at_one(self):
        assert log_bin_count(1.0) == -1.0

    def test_ball_count_at_one(self):
        for n in (2.0, 1e6):
            assert log_ball_count(1.0, n) == pytest.approx(-1.0, abs=1e-15)

    def test_cross_identity(self):
        x = typical_max_load(1e4, 5e3)
        assert log_ball_count(x, 1e4) == pytest.approx(math.log(5e3),
                                                       abs=1e-11)


class TestSolver:
    def test_inverts_bin_count(self):
        for x in (2.0, 3.0, 5.0):
            n = math.exp(log_bin_count(x))
            assert typical_max_load(n) == pytest.approx(x, abs=1e-9)

    def test_identities_on_grid(self):
        for n, k in grid_pairs():
            nu = typical_max_load(n, k)
            assert abs(log_ball_count(nu, n) - math.log(k)) <= 1e-10
            hat = typical_max_load(n)
            assert abs(log_bin_count(hat) - math.log(n)) <= 1e-10

    def test_always_above_one(self):
        for n, k in grid_pairs(seed=7):
            assert typical_max_load(n, k) > 1.0

    def test_deterministic(self):
        a = typical_max_load(123456.789, 777.0)
        b = typical_max_load(123456.789, 777.0)
        assert a == b

    def test_strictly_increasing_in_balls(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            n = float(np.exp(rng.uniform(np.log(100), np.log(1e10))))
            k = float(rng.integers(2, int(min(n, 1e9))))
            assert typical_max_load(n, k) < typical_max_load(n, k + 1)

    def test_balanced_case_increasing(self):
        assert typical_max_load(1e3) < typical_max_load(1e6)
        values = [typical_max_load(10.0 ** e) for e in range(1, 13)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_small_ball_count_stays_low(self):
        n = 1e9
        k = float(int(n ** (1.0 / 3.0)))
        assert typical_max_load(n, k) <= 5.0 / 3.0 + 0.05

    def test_dominates_average_load(self):
        n = 1e9
        assert typical_max_load(n, n) * n / n >= 10.0

    def test_growth_ratio_trends_to_one_from_above(self):
        # the load over log n / log log n: slowly decreasing toward 1,
        # still far from it at any size a desk run can reach
        def ratio(n):
            return typical_max_load(n) * math.log(math.log(n)) / math.log(n)
        r6, r9, r12 = ratio(1e6), ratio(1e9), ratio(1e12)
        assert r6 > r9 > r12 > 1.0
        assert r12 < 2.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            typical_max_load(0.0)
        with pytest.raises(ValueError):
            typical_max_load(10.0, 0.2)  # ln k <= -1

    def test_no_bracket_names_n_and_k(self):
        # the load of 1e306 balls in 10 bins lies past the bracket limit
        with pytest.raises(ValueError, match=r"^no bracket for the typical "
                           r"load of k = 1e\+306 balls in n = 10 bins$"):
            typical_max_load(10, 10**306)


class TestNonFiniteInputs:
    """Infinite and NaN values, and ints past the float range, are refused
    with ValueError, not bisected into an answer or raised as
    OverflowError."""

    @pytest.mark.parametrize("bad", [math.inf, math.nan, -math.inf,
                                     *PAST_FLOATS])
    def test_x_and_n(self, bad):
        for call, name in ((lambda: load_objective(bad, 10, 10), "x"),
                           (lambda: log_ball_count(bad, 10), "x"),
                           (lambda: log_bin_count(bad), "x"),
                           (lambda: typical_max_load(bad), "n"),
                           (lambda: typical_max_load(bad, 10), "n"),
                           (lambda: predicted_interval(bad), "n")):
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value).startswith(
                f"{name} must be finite and positive")

    @pytest.mark.parametrize("bad", [math.inf, math.nan, -math.inf, 0.0,
                                     -5.0, *PAST_FLOATS])
    def test_k_and_n(self, bad):
        for call, name in ((lambda: load_objective(2.0, bad, 10), "n"),
                           (lambda: load_objective(2.0, 10, bad), "k"),
                           (lambda: log_ball_count(2.0, bad), "n"),
                           (lambda: typical_max_load(10, bad), "k")):
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value).startswith(
                f"{name} must be finite and positive")

    @pytest.mark.parametrize("fn, args, message", [
        (classify_regime, (BIG, 1), f"n = {BIG} lies outside the float range"),
        (classify_regime, (10, BIG), f"m = {BIG} lies outside the float range"),
        (two_point_prediction, (BIG, 1),
         f"n = {BIG} lies outside the float range"),
        (two_point_prediction, (1000, BIG),
         f"m = {BIG} lies outside the float range"),
        (expected_census, (BIG, 1, 0), f"n = {BIG} lies outside the float range"),
        (expected_census, (10, BIG, 1), f"k = {BIG} lies outside the float range"),
    ], ids=["classify_regime-n", "classify_regime-m",
            "two_point_prediction-n", "two_point_prediction-m",
            "expected_census-n", "expected_census-k"])
    def test_counts_past_the_float_range(self, fn, args, message):
        with pytest.raises(ValueError) as info:
            fn(*args)
        assert str(info.value) == message

    def test_small_finite_k_keeps_the_log_rule(self):
        with pytest.raises(ValueError, match=r"ln k > -1"):
            typical_max_load(10, 0.3)

    @pytest.mark.parametrize("eps", [math.inf, math.nan])
    def test_eps(self, eps):
        with pytest.raises(ValueError) as info:
            predicted_interval(100, eps=eps)
        assert str(info.value).startswith("eps must be finite and non-negative")


class TestPredictedInterval:
    def test_floor_examples(self):
        n = math.exp(log_bin_count(4.5))
        assert predicted_interval(n, eps=1.0 / 3.0) == (4, 4)
        assert predicted_interval(n, eps=0.6) == (3, 5)

    def test_contains_anchor_when_wide_enough(self):
        for n in (1e3, 1e5, 1e8):
            lo, hi = predicted_interval(n, eps=1.0 / 3.0)
            anchor = math.floor(typical_max_load(n) - 1.0 / 3.0)
            assert lo <= anchor <= hi

    def test_rejects_negative_eps(self):
        with pytest.raises(ValueError):
            predicted_interval(100.0, eps=-0.1)


class TestClassifyRegime:
    def test_at_half(self):
        assert classify_regime(10 ** 6, 10 ** 6 // 2) == REGIME_BELOW

    def test_window(self):
        assert classify_regime(10 ** 6, 10 ** 6 // 2 + 10 ** 4) == REGIME_WINDOW

    def test_linear_band(self):
        assert classify_regime(10 ** 6, 750_000) == REGIME_ABOVE

    def test_window_cap_is_a_gate(self):
        # s = n^0.8 = 63096 at n = 10^6 exceeds the default cap n/20,
        # so the pair falls through to the density band; a looser cap
        # keeps it in the window regime
        n = 10 ** 6
        m = n // 2 + int(n ** 0.8)
        assert classify_regime(n, m) == REGIME_ABOVE
        assert classify_regime(n, m, linear_cap=1.0 / 15.0) == REGIME_WINDOW

    def test_out_of_scope(self):
        n = 10 ** 6
        assert classify_regime(n, n) == OUT_OF_SCOPE        # alpha = 2
        assert classify_regime(n, 10 * n) == OUT_OF_SCOPE
        assert classify_regime(n, n // 2 + int(0.51 * n)) == OUT_OF_SCOPE

    def test_boundary_margin_top_edge(self):
        n = 10 ** 6
        m_high = int(1.97 * n / 2)  # alpha = 1.97, above the default band
        assert classify_regime(n, m_high) == OUT_OF_SCOPE
        assert classify_regime(n, m_high, boundary_margin=0.01) == REGIME_ABOVE

    def test_gap_between_window_and_band(self):
        # a tight window cap leaves densities the band margin excludes
        n = 10 ** 6
        m = int(1.03 * n / 2)   # s = 15000
        assert classify_regime(n, m, linear_cap=0.001) == OUT_OF_SCOPE
        assert classify_regime(n, m, linear_cap=0.001,
                               boundary_margin=0.01) == REGIME_ABOVE


class TestTwoPoint:
    def test_below_window_matches_load(self):
        n = 10 ** 5
        m = n // 2
        pred = two_point_prediction(n, m)
        assert pred.regime == REGIME_BELOW
        expected = math.floor(typical_max_load(n, 2 * m) - 1.0 / 3.0)
        assert pred.lower == expected and pred.upper == expected + 1

    def test_window_takes_the_larger_anchor(self):
        n = 10 ** 6
        s = 10 ** 4
        pred = two_point_prediction(n, n // 2 + s)
        assert pred.regime == REGIME_WINDOW
        expected = max(math.floor(typical_max_load(s) + 2.0 / 3.0),
                       math.floor(typical_max_load(n) - 1.0 / 3.0))
        assert pred.lower == expected

    def test_above_window(self):
        n = 10 ** 6
        pred = two_point_prediction(n, int(0.7 * n))
        assert pred.regime == REGIME_ABOVE
        assert pred.lower == math.floor(typical_max_load(n) + 2.0 / 3.0)
        assert pred.as_tuple() == (pred.lower, pred.lower + 1)

    def test_interval_is_two_points(self):
        pred = two_point_prediction(10 ** 5, 10 ** 5 // 2)
        assert pred.upper - pred.lower == 1
        assert pred.contains(pred.lower) and pred.contains(pred.upper)
        assert not pred.contains(pred.lower - 1)

    def test_needs_an_edge(self):
        with pytest.raises(ValueError, match=r"^m must be at least 1, got 0$"):
            two_point_prediction(10, 0)

    def test_rejects_out_of_scope(self):
        n = 10 ** 4
        with pytest.raises(ValueError):
            two_point_prediction(n, int(1.5 * n))  # alpha = 3
