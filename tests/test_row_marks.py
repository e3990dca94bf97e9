"""The loop and repeat row tests of degree_lab.graphs, which mark the rows
holding a hit from the flat positions of the hits, against the per-row
reduction .any(axis=-1) they replaced, and _simple_keys against a copy of
its body before that change, kept here as the reference.

The shapes cover empty blocks, rows of no length, rows of one element,
census blocks of G(4, 3) and G(5, 5) as exact_census_gnm draws them, and
the one-row blocks of a sparse complex-free draw at n = 10**5.
"""
import numpy as np
import pytest

from degree_lab.graphs import _has_loop, _has_repeat, _simple_keys
from degree_lab.samplers import _BLOCK_BALLS, _draw_pairing

SHAPES = [(0, 3), (1, 0), (7, 1), (2730, 3), (1150, 2), (1, 50_000)]


def reference_simple_keys(n, u, v):
    """_simple_keys as it was, with .any(axis=-1) and boolean indexing."""
    rows, = (~(u == v).any(axis=-1)).nonzero()
    key = u[rows] * np.int64(n + 1) + v[rows]
    key.sort()
    simple = ~(key[..., 1:] == key[..., :-1]).any(axis=-1)
    return rows[simple], key[simple]


def small_ints(rng, shape, high):
    return rng.integers(0, high, size=shape, dtype=np.int64)


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("high", [2, 4, 1 << 20])
def test_loop_marks_equal_the_row_reduction(shape, high):
    rng = np.random.default_rng([len(shape), *shape, high])
    u, v = small_ints(rng, shape, high), small_ints(rng, shape, high)
    got = _has_loop(u, v)
    assert got.dtype == bool
    np.testing.assert_array_equal(got, (u == v).any(axis=-1))


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("high", [2, 4, 1 << 20])
def test_repeat_marks_equal_the_row_reduction(shape, high):
    rng = np.random.default_rng([7, *shape, high])
    key = np.sort(small_ints(rng, shape, high), axis=-1)
    got = _has_repeat(key)
    assert got.dtype == bool
    np.testing.assert_array_equal(
        got, (key[..., 1:] == key[..., :-1]).any(axis=-1))


@pytest.mark.parametrize("u, v, loop", [
    ([], [], False),
    ([1, 2, 3], [2, 2, 4], True),
    ([1, 2, 3], [2, 3, 4], False),
    ([5], [5], True),
])
def test_one_graph_loop_mark(u, v, loop):
    u, v = np.array(u, dtype=np.int64), np.array(v, dtype=np.int64)
    got = _has_loop(u, v)
    assert got.shape == () and bool(got) is loop
    assert bool(got) == bool((u == v).any(axis=-1))


@pytest.mark.parametrize("key, repeat", [
    ([], False),
    ([4], False),
    ([1, 3, 3, 9], True),
    ([1, 3, 4, 9], False),
])
def test_one_graph_repeat_mark(key, repeat):
    key = np.array(key, dtype=np.int64)
    got = _has_repeat(key)
    assert got.shape == () and bool(got) is repeat
    assert bool(got) == bool((key[1:] == key[:-1]).any(axis=-1))


def assert_same_simple_keys(n, u, v):
    rows, key = _simple_keys(n, u, v)
    ref_rows, ref_key = reference_simple_keys(n, u, v)
    np.testing.assert_array_equal(rows, ref_rows)
    np.testing.assert_array_equal(key, ref_key)
    assert rows.dtype == ref_rows.dtype and key.dtype == ref_key.dtype
    assert key.shape == ref_key.shape
    return rows


@pytest.mark.parametrize("n, m", [(4, 3), (5, 5)])
def test_simple_keys_on_census_blocks(n, m):
    rng = np.random.default_rng([n, m])
    rows = _BLOCK_BALLS // (2 * m)
    kept = loops = 0
    for _ in range(5):
        u, v = _draw_pairing(n, m, rows, rng)
        kept += assert_same_simple_keys(n, u, v).size
        loops += int((u == v).any(axis=-1).sum())
    # the blocks hold simple rows, rows with a loop and loop-free rows
    # with a repeat alike
    assert kept > 0 and 0 < loops < 5 * rows - kept


def one_row(n, m, make):
    """A loop-free, repeat-free (1, m) block at n, then edited by make."""
    rng = np.random.default_rng([n, m])
    ends = rng.choice(np.arange(1, n + 1), size=2 * m, replace=False)
    a, b = ends[:m], ends[m:]
    u, v = np.minimum(a, b), np.maximum(a, b)
    make(u, v)
    return u[None, :], v[None, :]


def with_loop(u, v):
    v[17] = u[17]


def with_repeat(u, v):
    u[40], v[40] = u[3], v[3]


def plain(u, v):
    pass


@pytest.mark.parametrize("make, simple", [(with_loop, False),
                                          (with_repeat, False),
                                          (plain, True)])
def test_simple_keys_on_one_row_blocks(make, simple):
    n, m = 10 ** 5, 5 * 10 ** 4
    u, v = one_row(n, m, make)
    assert assert_same_simple_keys(n, u, v).size == simple
