"""Edge-list text files.

The whole package shares one plain-text format.  The first line is a
header, the remaining lines are one edge each:

    n m             simple graph on {1..n} with m edges, lines "u v"
    n m multi       multigraph; loops "u u" and repeated lines allowed
    n m roots=t     rooted forest with t trees rooted at 1..t

Tokens are whitespace-separated.  Readers accept endpoints in either
order; writers emit u < v (loops excepted) and sorted lines.
"""
from __future__ import annotations

from pathlib import Path

from .forests import RootedForest
from .graphs import GraphError, LabeledGraph, MultiGraph


def _parse(text: str):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise GraphError("empty edge-list file")
    header = lines[0].split()
    if len(header) not in (2, 3):
        raise GraphError(f"bad header {lines[0]!r}")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError as exc:
        raise GraphError(f"bad header {lines[0]!r}") from exc

    edges = []
    for ln in lines[1:]:
        try:
            u, v = ln.split()
            edges.append((int(u), int(v)))
        except ValueError as exc:
            raise GraphError(f"bad edge line {ln!r}") from exc
    if len(edges) != m:
        raise GraphError(f"header says {m} edges, file has {len(edges)}")

    if len(header) == 2:
        return LabeledGraph(n, edges)
    tag = header[2]
    if tag == "multi":
        return MultiGraph(n, edges)
    if tag.startswith("roots="):
        try:
            t = int(tag[len("roots="):])
        except ValueError as exc:
            raise GraphError(f"bad root count in header {lines[0]!r}") from exc
        return RootedForest(n, t, edges)
    raise GraphError(f"unknown header tag {tag!r}")


def read_edge_list(source) -> LabeledGraph | MultiGraph | RootedForest:
    """Parse an edge-list file; the header decides the returned type."""
    if isinstance(source, (str, Path)):
        text = Path(source).read_text()
    else:
        text = str(source.read())
    return _parse(text)


def _read_simple_graph(path: str) -> LabeledGraph:
    """read_edge_list for a file that must hold a simple graph."""
    g = read_edge_list(path)
    if not isinstance(g, LabeledGraph):
        raise GraphError(f"{path}: expected a simple-graph header")
    return g


def format_edge_list(obj) -> str:
    if isinstance(obj, RootedForest):
        header = f"{obj.n} {obj.num_edges} roots={obj.t}"
    elif isinstance(obj, MultiGraph):
        header = f"{obj.n} {obj.num_edges} multi"
    elif isinstance(obj, LabeledGraph):
        header = f"{obj.n} {obj.num_edges}"
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    lines = [header]
    lines.extend(f"{int(u)} {int(v)}" for u, v in obj.edges)
    return "\n".join(lines) + "\n"


def write_edge_list(obj, dest) -> None:
    """Write a graph, multigraph or rooted forest to a path or text file."""
    text = format_edge_list(obj)
    if isinstance(dest, (str, Path)):
        Path(dest).write_text(text)
    else:
        dest.write(text)
