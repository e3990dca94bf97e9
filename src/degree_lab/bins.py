"""Balls into bins: sampling, load statistics, expected census.

k balls land independently and uniformly in n bins.  A trial is
represented by its load vector (ball count per bin, integer dtype, never
negative); everything else is a cheap function of that vector.
"""
from __future__ import annotations

import math

import numpy as np

from .concentration import _in_float_range
from .graphs import _at_least, _order, _whole


def _integers(name: str, a) -> np.ndarray:
    """a as an int64 array, refused unless of integer dtype: floats and
    bools are never truncated or counted, and an unsigned value past the
    int64 range is refused rather than wrapped negative."""
    a = np.asarray(a)
    if a.size and a.dtype.kind not in "iu":
        raise ValueError(f"{name} must be integers, got {a.dtype}")
    if a.size and a.dtype.kind == "u" and int(a.max()) > 2**63 - 1:
        raise ValueError(f"{name} must fit in int64, got {a.max()}")
    return a.astype(np.int64, copy=False)


def _loads(loads) -> np.ndarray:
    """A load vector by _integers, refused if some load is negative."""
    loads = _integers("loads", loads)
    if loads.size and loads.min() < 0:
        raise ValueError("loads must be non-negative")
    return loads


def throw_positions(n: int, k: int, rng=None) -> np.ndarray:
    """Landing bins of k balls, one entry per ball, each uniform on 1..n."""
    n = _order("n", n, 1)
    k = _at_least("k", k, 0)
    rng = np.random.default_rng(rng)
    return rng.integers(1, n + 1, size=k)


def loads_from_positions(n: int, positions: np.ndarray) -> np.ndarray:
    """Load vector: entry j is the number of balls that landed in bin j + 1."""
    n = _order("n", n, 0)
    positions = _integers("ball positions", positions)
    if positions.size and (positions.min() < 1 or positions.max() > n):
        raise ValueError("ball position outside 1..n")
    return np.bincount(positions, minlength=n + 1)[1:]


def throw_balls(n: int, k: int, rng=None) -> np.ndarray:
    """Load vector of one trial (throw_positions followed by counting)."""
    return loads_from_positions(n, throw_positions(n, k, rng))


def max_load(loads: np.ndarray) -> int:
    loads = _loads(loads)
    if loads.size == 0:
        raise ValueError("empty load vector")
    return int(loads.max())


def prefix_max_load(loads: np.ndarray, t: int) -> int:
    """Maximum load among the first t bins."""
    loads = _loads(loads)
    t = _whole("t", t)
    if not 1 <= t <= loads.size:
        raise ValueError("prefix length out of range")
    return int(loads[:t].max())


def census(loads: np.ndarray) -> np.ndarray:
    """Observed census: entry l counts the bins with load exactly l."""
    return np.bincount(_loads(loads)).astype(np.int64)


_LN_SQRT_2PI = 0.5 * math.log(2 * math.pi)


def _stirling_error(x: int) -> float:
    """ln x! - ((x + 1/2) ln x - x + ln sqrt(2 pi)) for x >= 1, the error
    of Stirling's formula; from its asymptotic series at x >= 15 (the
    first term left out is below 3e-16 there), so a large x! is never
    formed."""
    if x < 15:
        return math.lgamma(x + 1) - (x + 0.5) * math.log(x) + x - _LN_SQRT_2PI
    r = 1.0 / x
    r2 = r * r
    return r * (1 / 12 - r2 * (1 / 360 - r2 * (1 / 1260 - r2 * (1 / 1680
                                                            - r2 / 1188))))


def _log_binom(k: int, j: int) -> float:
    """ln C(k, j) for 0 <= j <= k, in Stirling's form: the leading terms of
    ln k! - ln j! - ln (k - j)! cancel by hand, leaving j ln(k / j),
    (k - j) ln(k / (k - j)) and three Stirling errors, so ln k!, which
    overflows past k ~ 2.5e305, is never formed."""
    j = min(j, k - j)
    if j == 0:
        return 0.0
    rest = k - j
    return (_stirling_error(k) - _stirling_error(j) - _stirling_error(rest)
            + j * (math.log(k) - math.log(j)) - rest * math.log1p(-j / k)
            + 0.5 * (math.log(k) - math.log(j) - math.log(rest))
            - _LN_SQRT_2PI)


def expected_census(n: int, k: int, load: int) -> float:
    """Expected number of bins with the given load, for k balls in n bins.

    Equals n * C(k, load) * (1/n)**load * (1 - 1/n)**(k - load),
    evaluated in log space (_log_binom) so large n and k are safe.
    """
    n = _in_float_range("n", _at_least("n", n, 1))
    k = _in_float_range("k", _at_least("k", k, 0))
    load = _whole("load", load)
    if load < 0 or load > k:
        return 0.0
    if n == 1:
        return 1.0 if load == k else 0.0
    log_val = (math.log(n) + _log_binom(k, load) - load * math.log(n)
               + (k - load) * math.log1p(-1.0 / n))
    return math.exp(log_val)
