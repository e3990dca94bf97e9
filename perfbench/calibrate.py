"""Fixed calibration kernels that measure how fast the host runs right now.

The benchmark's host is shared: other tenants slow its vCPUs by up to a
factor of two, in states that last from seconds to minutes, with no
steal time to show for it (CPU time tracks wall time).  Run medians of
raw verdict times moved by 15-38% between 25 s windows of the same code.

The kernels below do not touch degree_lab and must never change.  Each
does one kind of work the workloads do: an interpreter-bound loop over
lists and dicts, many small numpy calls with tiny Python objects, and
sorting and counting over 1e5-element arrays.  The slow states do not
slow these kinds of work alike, so each workload names the kernels that
do its own kind of work (Workload.calibration).  run.py times one pass
of them before the first verdict and after every verdict, and scales
each verdict by the pass's reference time over the mean of the two
passes around it.  Over the same 25 s windows that took the spread of
verdict medians from 0.38 to 0.04 (census, small calls), from 0.31 to
0.10 (grown-core, all three) and from 0.15 to 0.04 (sparse-cs, arrays).
"""
from __future__ import annotations

import time

import numpy as np

PASS_CALLS = 6  # kernel calls in one pass, taking the named kernels in turn


def _interpreter(n: int = 20_000) -> int:
    parent = list(range(n))
    degree = {}
    x = 12345
    for i in range(n):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        j = x % n
        parent[i] = parent[j]
        degree[j] = degree.get(j, 0) + 1
    return len(degree)


class _Pair:
    __slots__ = ("key", "index")

    def __init__(self, key, index):
        self.key = key
        self.index = index


def _small_calls(calls: int = 1_500) -> int:
    rng = np.random.default_rng(3)
    odd = 0
    for i in range(calls):
        pair = _Pair(tuple(sorted(rng.integers(0, 6, 3).tolist())), i)
        odd += hash(pair.key) & 1
    return odd


def _arrays(size: int = 200_000) -> int:
    values = np.random.default_rng(7).integers(0, 100_000, size)
    return int(np.sort(values)[-1] + np.bincount(values).max())


KERNELS = {"interpreter": _interpreter, "small_calls": _small_calls,
           "arrays": _arrays}
# Seconds of one call on a 2-vCPU Intel Xeon host (Python 3.11, numpy 2.4)
# in its fast state.  They only set the scale of the scaled figures.
REFERENCE_S = {"interpreter": 0.006, "small_calls": 0.009, "arrays": 0.004}


def reference(kernels: tuple[str, ...]) -> float:
    """Seconds of one pass over `kernels` on the reference host."""
    return sum(REFERENCE_S[kernels[i % len(kernels)]]
               for i in range(PASS_CALLS))


def measure(kernels: tuple[str, ...]) -> float:
    """Seconds taken by one pass over `kernels`."""
    start = time.perf_counter()
    for i in range(PASS_CALLS):
        KERNELS[kernels[i % len(kernels)]]()
    return time.perf_counter() - start
