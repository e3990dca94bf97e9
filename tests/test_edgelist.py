import io

import pytest

from degree_lab.edgelist import (format_edge_list, read_edge_list,
                                 write_edge_list)
from degree_lab.forests import RootedForest
from degree_lab.graphs import GraphError, LabeledGraph, MultiGraph


class TestRead:
    def test_simple_graph(self):
        g = read_edge_list(io.StringIO("3 2\n1 2\n2 3\n"))
        assert isinstance(g, LabeledGraph)
        assert g.n == 3
        assert g.edge_set() == {(1, 2), (2, 3)}

    def test_endpoints_in_either_order(self):
        g = read_edge_list(io.StringIO("3 2\n2 1\n3 2\n"))
        assert g.edge_set() == {(1, 2), (2, 3)}

    def test_multigraph(self):
        g = read_edge_list(io.StringIO("2 3 multi\n1 1\n1 2\n1 2\n"))
        assert isinstance(g, MultiGraph)
        assert not g.is_simple()
        assert g.degree_sequence().tolist() == [4, 2]

    def test_rooted_forest(self):
        f = read_edge_list(io.StringIO("4 2 roots=2\n3 1\n4 2\n"))
        assert isinstance(f, RootedForest)
        assert f.t == 2
        assert f.edge_set() == {(1, 3), (2, 4)}

    def test_blank_lines_ignored(self):
        g = read_edge_list(io.StringIO("\n2 1\n\n1 2\n\n"))
        assert g.edge_set() == {(1, 2)}

    def test_loop_rejected_for_simple(self):
        with pytest.raises(GraphError):
            read_edge_list(io.StringIO("2 1\n1 1\n"))

    def test_edge_count_mismatch(self):
        with pytest.raises(GraphError):
            read_edge_list(io.StringIO("3 2\n1 2\n"))

    def test_bad_headers(self):
        for text in ("", "3\n", "a b\n", "3 1 what\n1 2\n",
                     "3 1 roots=x\n1 2\n"):
            with pytest.raises(GraphError):
                read_edge_list(io.StringIO(text))

    def test_bad_edge_line(self):
        for line in ("1 2 3", "1", "1 x", "1 2.0"):
            with pytest.raises(GraphError, match=f"bad edge line '{line}'"):
                read_edge_list(io.StringIO(f"3 1\n{line}\n"))


class TestWrite:
    def test_simple_roundtrip(self, tmp_path):
        g = LabeledGraph(4, [(4, 2), (1, 3), (2, 1)])
        path = tmp_path / "g.txt"
        write_edge_list(g, path)
        assert read_edge_list(path) == g

    def test_format_is_sorted_with_low_endpoint_first(self):
        g = LabeledGraph(4, [(4, 2), (1, 3), (2, 1)])
        assert format_edge_list(g) == "4 3\n1 2\n1 3\n2 4\n"

    def test_multi_roundtrip(self):
        g = MultiGraph(3, [(2, 2), (1, 2), (1, 2)])
        text = format_edge_list(g)
        assert text.splitlines()[0] == "3 3 multi"
        back = read_edge_list(io.StringIO(text))
        assert isinstance(back, MultiGraph)
        assert back == g

    def test_forest_roundtrip(self, tmp_path):
        f = RootedForest(5, 2, [(1, 3), (3, 4), (2, 5)])
        path = tmp_path / "f.txt"
        write_edge_list(f, path)
        back = read_edge_list(path)
        assert isinstance(back, RootedForest)
        assert back.t == 2
        assert back.edge_set() == f.edge_set()

    def test_write_to_stream(self):
        buf = io.StringIO()
        write_edge_list(LabeledGraph(2, [(1, 2)]), buf)
        assert buf.getvalue() == "2 1\n1 2\n"
