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
    bools are never truncated or counted."""
    a = np.asarray(a)
    if a.size and a.dtype.kind not in "iu":
        raise ValueError(f"{name} must be integers, got {a.dtype}")
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


def expected_census(n: int, k: int, load: int) -> float:
    """Expected number of bins with the given load, for k balls in n bins.

    Equals n * C(k, load) * (1/n)**load * (1 - 1/n)**(k - load),
    evaluated in log space so large n and k are safe.
    """
    n = _in_float_range("n", _at_least("n", n, 1))
    k = _in_float_range("k", _at_least("k", k, 0))
    load = _whole("load", load)
    if load < 0 or load > k:
        return 0.0
    if n == 1:
        return 1.0 if load == k else 0.0
    log_binom = (math.lgamma(k + 1) - math.lgamma(load + 1)
                 - math.lgamma(k - load + 1))
    log_val = (math.log(n) + log_binom - load * math.log(n)
               + (k - load) * math.log1p(-1.0 / n))
    return math.exp(log_val)
