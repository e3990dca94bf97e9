"""decode_sequence, found by whole-array rounds, against the pointer loop.

oracles.pointer_decode is the descending-pointer decode, one interpreted
step per entry, kept as the reference.  The decoded rows must be the
reference's edges (seq[i], leaf i) in canonical order, on every code
with n <= 7, on random codes, and at n = 10**5 on codes that take many
rounds (sorted and strided ones) or have a special shape (the encodings
of a path and of a star).  A memory guard keeps the rounds' temporaries
from piling up.
"""
import itertools
import tracemalloc

import numpy as np
import pytest

from degree_lab.forests import RootedForest, decode_sequence, encode_forest
from oracles import pointer_decode

Q = 100_000


def expected_rows(n, t, seq):
    """The reference's edges as sorted (u, v) rows, u <= v."""
    seq = np.asarray(seq, dtype=np.int64)
    leaves = np.asarray(pointer_decode(n, t, seq), dtype=np.int64)
    u, v = np.minimum(seq, leaves), np.maximum(seq, leaves)
    order = np.lexsort((v, u))
    return np.column_stack((u[order], v[order]))


def check(n, t, seq):
    rows = decode_sequence(n, t, seq).edges
    assert rows.dtype == np.int64 and not rows.flags.writeable
    assert rows.shape == (n - t, 2)
    assert (rows[:, 0] <= rows[:, 1]).all()
    key = rows[:, 0] * (n + 1) + rows[:, 1]
    assert (np.diff(key) > 0).all()
    assert np.array_equal(rows, expected_rows(n, t, seq))


def all_codes(n, t):
    if n == t:
        yield ()
        return
    for body in itertools.product(range(1, n + 1), repeat=n - t - 1):
        for last in range(1, t + 1):
            yield body + (last,)


def test_every_code_up_to_seven_vertices():
    count = 0
    for n in range(0, 8):
        for t in range(min(n, 1), n + 1):
            for seq in all_codes(n, t):
                check(n, t, seq)
                count += 1
    assert count == 24_967 + 8  # the 8 codes with n == t are empty


@pytest.mark.parametrize("seed", range(6))
def test_random_codes(seed):
    rng = np.random.default_rng(seed)
    for _ in range(50):
        n = int(rng.integers(1, 3_000))
        t = int(rng.integers(1, min(n, 12) + 1))
        if n == t:
            check(n, t, [])
            continue
        high = int(rng.choice([n, t + 3, n // 2 + 1]))  # few labels or all
        body = rng.integers(1, min(high, n) + 1, size=n - t - 1)
        check(n, t, np.append(body, rng.integers(1, t + 1)))


def path_code(rng):
    """The code of a random path through 1..Q, rooted at vertex 1."""
    order = np.concatenate(([1], rng.permutation(np.arange(2, Q + 1))))
    path = RootedForest(Q, 1, np.column_stack((order[:-1], order[1:])))
    return np.asarray(encode_forest(path))


def star_code(rng):
    """The code of a star with a random centre, rooted at vertex 1."""
    centre = int(rng.integers(2, Q + 1))
    leaves = np.setdiff1d(np.arange(1, Q + 1), [centre])
    star = RootedForest(Q, 1, np.column_stack((leaves, np.full(Q - 1,
                                                                centre))))
    return np.asarray(encode_forest(star))


@pytest.mark.parametrize("shape", ["ascending", "sorted-uniform",
                                   "stride-7919", "path", "star"])
def test_codes_at_1e5(shape):
    rng = np.random.default_rng(20201029)
    t = 4
    if shape == "ascending":
        seq = np.append(np.arange(1, Q - t), 1)
    elif shape == "sorted-uniform":
        seq = np.append(np.sort(rng.integers(1, Q + 1, size=Q - t - 1)), 1)
    elif shape == "stride-7919":
        seq = np.append(np.arange(Q - t - 1) * 7919 % Q + 1, 1)
    else:
        t = 1
        seq = path_code(rng) if shape == "path" else star_code(rng)
    check(Q, t, seq)


def test_decode_peaks_under_64_bytes_a_vertex():
    rng = np.random.default_rng(7)
    t = 4
    seq = np.append(rng.integers(1, Q + 1, size=Q - t - 1), 1)
    decode_sequence(Q, t, seq)
    tracemalloc.start()
    try:
        decode_sequence(Q, t, seq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * Q, f"peak {peak} bytes at n = {Q}"
