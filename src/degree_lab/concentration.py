"""Typical maximum load and two-point degree windows.

For k balls thrown into n bins the maximum load concentrates near the
unique positive root of

    x * ln k + x - (x + 1/2) * ln x - (x - 1) * ln n,

called the typical maximum load here.  The same quantity, evaluated at
suitable (n, k) pairs, drives the two-point prediction for the maximum
degree of sparse random graph models: depending on how the edge count m
compares to n/2 the maximum degree lands in a window {h, h + 1} whose
anchor h is a floor of a shifted typical load.

The load functions take real-valued counts, which enter only through
logarithms; classify_regime and two_point_prediction take the integer
order n and size m of a graph, and refuse floats rather than truncate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from sys import float_info

from .graphs import _at_least

REGIME_BELOW = "I"
REGIME_WINDOW = "II"
REGIME_ABOVE = "III"
OUT_OF_SCOPE = "out-of-scope"

# the default window half-width, of predicted_interval and of every experiment
DEFAULT_EPSILON = 0.25

_MAX_BRACKET = 1e300


def _positive(name: str, x) -> float:
    """x as a float, refused unless it is finite and positive.  x is
    compared before it is converted, so an int past the float range is
    refused here, not raised as OverflowError."""
    if not 0 < x <= float_info.max:
        raise ValueError(f"{name} must be finite and positive, got {x}")
    return float(x)


def _in_float_range(name: str, x: int) -> int:
    """An int count that float arithmetic will read, refused with
    ValueError past the float range rather than raising OverflowError
    inside that arithmetic."""
    if x > float_info.max:
        raise ValueError(f"{name} = {x} lies outside the float range")
    return x


def load_objective(x: float, n: float, k: float) -> float:
    """Objective whose positive root is the typical maximum load.

    Strictly positive at x = 1 whenever ln k > -1, eventually negative,
    and has exactly one sign change on (1, infinity).  x, n and k must be
    finite and positive.
    """
    return _objective(_positive("x", x), _positive("n", n), _positive("k", k))


def _objective(x: float, n: float, k: float) -> float:
    """load_objective on values already checked."""
    return (x * math.log(k) + x - (x + 0.5) * math.log(x)
            - (x - 1.0) * math.log(n))


def log_ball_count(x: float, n: float) -> float:
    """Log of the ball count for which x is the typical load in n bins.

    Inverse view of typical_max_load in its second argument:
    log_ball_count(typical_max_load(n, k), n) == log(k).  x and n must be
    finite and positive.
    """
    x = _positive("x", x)
    n = _positive("n", n)
    return (1.0 + 0.5 / x) * math.log(x) + (1.0 - 1.0 / x) * math.log(n) - 1.0


def log_bin_count(x: float) -> float:
    """Log of the bin count n for which x is typical when k = n.

    Inverse view of the balanced case:
    typical_max_load(exp(log_bin_count(x))) == x.
    """
    x = _positive("x", x)
    return (x + 0.5) * math.log(x) - x


def typical_max_load(n: float, k: float | None = None) -> float:
    """Unique positive root of load_objective(., n, k).

    k defaults to n (the balanced case).  Bisection runs until the
    midpoint is no longer strictly between the bracket ends, so the
    result is accurate to the last floating point digit and the call is
    deterministic.  Requires finite n > 0 and k > 0, and ln k > -1.
    """
    n = _positive("n", n)
    k = n if k is None else _positive("k", k)
    if math.log(k) <= -1.0:
        raise ValueError("ball count must satisfy ln k > -1")

    lo = 1.0
    hi = 2.0
    while _objective(hi, n, k) > 0.0:
        hi *= 2.0
        if hi > _MAX_BRACKET:
            raise ValueError(f"no bracket for the typical load of "
                             f"k = {k:g} balls in n = {n:g} bins")

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if not (lo < mid < hi):
            break
        val = _objective(mid, n, k)
        if val > 0.0:
            lo = mid
        elif val < 0.0:
            hi = mid
        else:
            return mid
    if abs(_objective(lo, n, k)) <= abs(_objective(hi, n, k)):
        return lo
    return hi


def predicted_interval(n: float, k: float | None = None,
                       eps: float = DEFAULT_EPSILON) -> tuple[int, int]:
    """Integer window [floor(load - eps), floor(load + eps)].

    For eps < 1/2 this has one or two points and the maximum load falls
    inside it with probability tending to one as n grows.
    """
    if not 0.0 <= eps < math.inf:
        raise ValueError(f"eps must be finite and non-negative, got {eps}")
    load = typical_max_load(n, k)
    return (math.floor(load - eps), math.floor(load + eps))


@dataclass(frozen=True)
class TwoPointPrediction:
    """Predicted two-point window {lower, lower + 1} for a max degree."""

    regime: str
    lower: int

    @property
    def upper(self) -> int:
        return self.lower + 1

    def contains(self, value: int) -> bool:
        return self.lower <= value <= self.upper

    def as_tuple(self) -> tuple[int, int]:
        return (self.lower, self.upper)


def classify_regime(n: int, m: int, *, linear_cap: float = 0.05,
                    boundary_margin: float = 0.05) -> str:
    """Place an (n, m) pair into one of the supported density regimes.

    With s = m - n/2 and a = 2m/n:

      "I"   if s <= n**(2/3),
      "II"  if n**(2/3) < s <= linear_cap * n,
      "III" if 1 + boundary_margin < a < 2 - boundary_margin,

    checked in that order; anything else is "out-of-scope".
    """
    n = _in_float_range("n", _at_least("n", n, 1))
    m = _in_float_range("m", _at_least("m", m, 0))
    s = m - n / 2.0
    if s <= n ** (2.0 / 3.0):
        return REGIME_BELOW
    if s <= linear_cap * n:
        return REGIME_WINDOW
    a = 2.0 * m / n
    if 1.0 + boundary_margin < a < 2.0 - boundary_margin:
        return REGIME_ABOVE
    return OUT_OF_SCOPE


def two_point_prediction(n: int, m: int) -> TwoPointPrediction:
    """Two-point window for the maximum degree at n vertices, m edges.

    The anchor depends on the regime:

      "I"   floor(load(n, 2m) - 1/3),
      "II"  max(floor(load(s, s) + 2/3), floor(load(n, n) - 1/3))
            with s = m - n/2,
      "III" floor(load(n, n) + 2/3).

    Raises ValueError for m < 1, where load(n, 2m) is undefined, and
    when classify_regime returns "out-of-scope".
    """
    regime = classify_regime(n, _at_least("m", m, 1))
    if regime == OUT_OF_SCOPE:
        raise ValueError(f"(n={n}, m={m}) is outside the supported regimes")
    if regime == REGIME_BELOW:
        h = math.floor(typical_max_load(n, 2 * m) - 1.0 / 3.0)
    elif regime == REGIME_WINDOW:
        s = m - n / 2.0
        h = max(math.floor(typical_max_load(s) + 2.0 / 3.0),
                math.floor(typical_max_load(n) - 1.0 / 3.0))
    else:
        h = math.floor(typical_max_load(n) + 2.0 / 3.0)
    return TwoPointPrediction(regime=regime, lower=h)
