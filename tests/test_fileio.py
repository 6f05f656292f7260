from __future__ import annotations

import random

import pytest

from krboot import fileio
from krboot.apsets import ApSet, ap_digits3
from krboot.constructions import build_chain, build_h6
from krboot.engine import run
from krboot.graphs import Graph, UniformHypergraph


def test_graph_round_trip(tmp_path):
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 12)
        g = Graph(n)
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.4:
                    g.add_edge(u, v)
        p = tmp_path / "g.txt"
        fileio.write_graph(g, p)
        assert fileio.read_graph(p) == g


def test_graph_file_shape(tmp_path):
    g = Graph.from_edges(4, [(0, 3), (1, 2)])
    p = tmp_path / "g.txt"
    fileio.write_graph(g, p)
    assert p.read_text() == "4 2\n0 3\n1 2\n"


@pytest.mark.parametrize(
    "text",
    [
        "",
        "4\n",
        "4 2\n0 3\n",  # count mismatch
        "4 1\n3 0\n",  # u >= v
        "4 1\n1 1\n",
        "4 2\n1 2\n0 3\n",  # not ascending
        "4 2\n0 3\n0 3\n",  # duplicate
        "4 1\n0 x\n",
        "4 1\n0 1 2\n",
    ],
)
def test_graph_rejects_malformed(tmp_path, text):
    p = tmp_path / "bad.txt"
    p.write_text(text)
    with pytest.raises(ValueError):
        fileio.read_graph(p)


def test_graph_error_names_offending_line(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("4 2\n0 1\n2 1\n")
    with pytest.raises(ValueError, match=r"bad\.txt:3"):
        fileio.read_graph(p)


def test_hypergraph_round_trip_with_labels(tmp_path):
    h = build_h6(20).hypergraph
    p = tmp_path / "h.txt"
    fileio.write_hypergraph(h, p)
    back = fileio.read_hypergraph(p)
    assert back.n == h.n and back.r == h.r
    assert back.edges == h.edges
    assert back.labels == h.labels


def test_hypergraph_round_trip_without_labels(tmp_path):
    h = UniformHypergraph(6, 4, [(0, 1, 2, 3), (2, 3, 4, 5)])
    p = tmp_path / "h.txt"
    fileio.write_hypergraph(h, p)
    back = fileio.read_hypergraph(p)
    assert back.edges == h.edges and back.labels == {}


@pytest.mark.parametrize(
    "text",
    [
        "",
        "6 4 1\n",
        "6 4 1\n0 1 2\n",  # wrong arity
        "6 4 1\n0 2 1 3\n",  # not ascending within edge
        "6 4 1\n0 1 2 3\n# label x\n",  # malformed label line
    ],
)
def test_hypergraph_rejects_malformed(tmp_path, text):
    p = tmp_path / "bad.txt"
    p.write_text(text)
    with pytest.raises(ValueError):
        fileio.read_hypergraph(p)


@pytest.mark.parametrize(
    "reader, text, line",
    [
        (fileio.read_graph, "3 1\n0 5\n", 2),  # vertex out of range
        (fileio.read_hypergraph, "5 2 1\n0 9\n", 2),  # vertex out of range
        (fileio.read_hypergraph, "5 2 1\n0 1\n# label x X 3\n", 3),  # non-integer id
        (fileio.read_hypergraph, "5 2 -1\n", 1),  # negative edge count
    ],
)
def test_range_and_label_errors_name_the_line(tmp_path, reader, text, line):
    p = tmp_path / "bad.txt"
    p.write_text(text)
    with pytest.raises(ValueError, match=rf"bad\.txt:{line}: "):
        reader(p)


def test_fpairs_round_trip(tmp_path):
    c = build_chain(4)
    p = tmp_path / "f.txt"
    fileio.write_fpairs(c.f_pairs, p)
    assert fileio.read_fpairs(p) == c.f_pairs
    fileio.write_fpairs([], p)
    assert fileio.read_fpairs(p) == []


def test_fpairs_rejects_bad_line(tmp_path):
    p = tmp_path / "f.txt"
    for bad in ("3", "3 3", "4 3", "-1 2"):  # short, degenerate, reversed, negative
        p.write_text(f"1 2\n{bad}\n")
        with pytest.raises(ValueError, match=":2"):
            fileio.read_fpairs(p)


def test_apset_round_trip(tmp_path):
    for s in (ap_digits3(100), ApSet(9, ()), ApSet(7, (1, 7))):
        p = tmp_path / "s.txt"
        fileio.write_apset(s, p)
        back = fileio.read_apset(p)
        assert back.n == s.n and back.elements == s.elements


def test_apset_rejects_malformed(tmp_path):
    p = tmp_path / "s.txt"
    p.write_text("9 2\n1\n")
    with pytest.raises(ValueError):
        fileio.read_apset(p)
    # unordered, above n, below 1
    for bad, line in (("9 2\n5\n1\n", 3), ("9 1\n12\n", 2), ("9 1\n0\n", 2)):
        p.write_text(bad)
        with pytest.raises(ValueError, match=rf"s\.txt:{line}: "):
            fileio.read_apset(p)


def test_trace_round_trip(tmp_path):
    start = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    trace = run(start, 3, Graph.complete(4))
    p = tmp_path / "t.json"
    fileio.write_trace(trace, p)
    back = fileio.read_trace(p)
    assert back == trace
    assert back.steps == trace.steps
