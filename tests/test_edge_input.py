"""Edge lists go through one conversion, which refuses non-integer endpoints.

An edge list of floats, strings or bools used to be truncated or parsed
into integers without a word; every graph type now refuses it with
GraphError, and still takes integer tuples, lists and arrays.
"""
import numpy as np
import pytest

from degree_lab.forests import RootedForest
from degree_lab.graphs import GraphError, LabeledGraph, MultiGraph

# each type built on three vertices from one edge list; the forest has
# two trees rooted at 1 and 2, so the single edge must hang 3 under one
MAKERS = {
    "LabeledGraph": lambda edges: LabeledGraph(3, edges),
    "MultiGraph": lambda edges: MultiGraph(3, edges),
    "RootedForest": lambda edges: RootedForest(3, 2, edges),
}

BAD = {
    "float list": [(1.5, 3)],
    "whole float list": [(1.0, 3.0)],
    "float array": np.array([[1.9, 3.0]]),
    "string list": [("1", "3")],
    "string array": np.array([["1", "3"]]),
    "bool list": [(True, True)],
    "bool array": np.array([[True, True]]),
}

GOOD = {
    "tuple of tuples": ((1, 3),),
    "list of lists": [[3, 1]],
    "int32 array": np.array([[1, 3]], dtype=np.int32),
    "int64 array": np.array([[3, 1]], dtype=np.int64),
    "uint8 array": np.array([[1, 3]], dtype=np.uint8),
    "uint64 array": np.array([[1, 3]], dtype=np.uint64),
}


@pytest.mark.parametrize("kind", MAKERS)
@pytest.mark.parametrize("label", BAD)
def test_non_integer_endpoints_are_refused(kind, label):
    with pytest.raises(GraphError, match="integers"):
        MAKERS[kind](BAD[label])


@pytest.mark.parametrize("kind", MAKERS)
@pytest.mark.parametrize("label", GOOD)
def test_integer_endpoints_are_taken(kind, label):
    g = MAKERS[kind](GOOD[label])
    assert g.edges.dtype == np.int64
    assert g.edges.tolist() == [[1, 3]]


@pytest.mark.parametrize("empty", [(), [], np.empty((0, 2)),
                                   np.empty(0, dtype=np.int64)])
def test_empty_edge_lists_are_taken(empty):
    for make in (lambda e: LabeledGraph(3, e), lambda e: MultiGraph(3, e),
                 lambda e: RootedForest(3, 3, e)):
        g = make(empty)
        assert g.edges.shape == (0, 2)
        assert g.edges.dtype == np.int64
