"""The array rounds of graphs._peel_to_core on multigraph hosts.

The peel finds a leaf's one neighbour as the sum of its live neighbours'
labels, which is exact only because a vertex with a loop, or with a
repeated edge to a live vertex, never reaches degree one.  Most hosts in
test_peel_hosts.py are too small for a frontier of _THIN_FRONTIER
leaves, so there mostly the single-vertex tail meets loops and repeated
edges.  The random hosts here put loops, repeated edges and K2
components next to stars and pendant paths with frontiers of at least
_THIN_FRONTIER, so the whole-frontier rounds update the sums of such
vertices.  The reference is test_peel_fuzz's worklist peel.
"""
import numpy as np
import pytest

from degree_lab.graphs import (_THIN_FRONTIER, GraphSlice, MultiGraph,
                               _peel_to_core)

from test_peel_fuzz import reference_peel, whole


def multigraph_host(seed):
    """A relabeled multigraph of star, path and K2 blocks.

    Each star centre carries a loop, a repeated edge to a second centre,
    a plain edge only, or nothing, and has at least _THIN_FRONTIER
    leaves, some on pendant paths; lone and doubled K2 components, loose
    loops and a random tree with a few repeated rows fill the rest.
    """
    rng = np.random.default_rng(seed)
    edges, n = [], 0

    def fresh(k):
        nonlocal n
        n += k
        return list(range(n - k + 1, n + 1))

    for _ in range(int(rng.integers(2, 6))):
        centre, other = fresh(2)
        tie = rng.choice(["loop", "repeat", "edge", "none"])
        if tie == "loop":
            edges.append((centre, centre))
        elif tie == "repeat":
            edges += [(centre, other), (centre, other)]
        elif tie == "edge":
            edges.append((centre, other))
        for hub in (centre, other):
            leaves = int(rng.integers(_THIN_FRONTIER, 4 * _THIN_FRONTIER))
            for _ in range(leaves):
                path = fresh(int(rng.integers(1, 4)))
                edges += zip([hub] + path[:-1], path)
    k2 = fresh(2 * int(rng.integers(_THIN_FRONTIER, 3 * _THIN_FRONTIER)))
    edges += zip(k2[::2], k2[1::2])
    doubled = fresh(2 * int(rng.integers(1, 6)))
    edges += 2 * list(zip(doubled[::2], doubled[1::2]))
    edges += [(v, v) for v in fresh(int(rng.integers(1, 6)))]
    tree = fresh(int(rng.integers(2, 300)))
    rows = [(tree[int(rng.integers(0, j))], tree[j])
            for j in range(1, len(tree))]
    edges += rows + [rows[int(i)] for i in rng.integers(0, len(rows), 3)]
    n += int(rng.integers(0, 4))  # isolated vertices above every row
    perm = np.append(0, rng.permutation(n) + 1)
    return MultiGraph(n, perm[np.array(edges)])


@pytest.mark.parametrize("seed", range(40))
def test_rounds_on_multigraph_hosts_give_the_reference_core(seed):
    g = multigraph_host(seed)
    deg = np.bincount(g.edges.ravel(), minlength=g.n + 1)
    assert (deg == 1).sum() >= _THIN_FRONTIER  # the first frontier is a round
    assert (g.edges[:, 0] == g.edges[:, 1]).any()
    assert not g.is_simple()
    assert _peel_to_core(g) == reference_peel(whole(g))
    mask = np.random.default_rng(seed).random(g.n) < 0.9
    part = GraphSlice(g, mask)
    assert _peel_to_core(part) == reference_peel(part)

