from __future__ import annotations

import itertools
import os
import random
import re
import stat
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krboot import fileio
from krboot.apsets import ApSet, ap_digits3
from krboot.cli import main
from krboot.constructions import build_chain, build_h6
from krboot.engine import PercolationTrace, run
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
        (fileio.read_graph, "-1 0\n", 1),  # negative vertex count
        (fileio.read_hypergraph, "5 2 1\n0 1\n# label 5 X 3\n", 3),  # unknown vertex
        (fileio.read_apset, "", 1),  # empty file
        (fileio.read_apset, "-1 0\n", 1),  # negative ambient bound
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


def _path_trace(n: int) -> PercolationTrace:
    return run(Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)]), 3, Graph.complete(n))


@pytest.mark.parametrize(
    "write, obj, text",
    [
        (fileio.write_hypergraph, UniformHypergraph(5, 3, [(0, 1, 2)], {4: ("X", 2)}),
         "5 3 1\n0 1 2\n# label 4 X 2\n"),
        (fileio.write_fpairs, [(0, 2), (1, 3)], "0 2\n1 3\n"),
        (fileio.write_fpairs, [], ""),
        (fileio.write_apset, ApSet(9, (1, 4)), "9 2\n1\n4\n"),
        (fileio.write_trace, _path_trace(5), _path_trace(5).to_json() + "\n"),
    ],
)
def test_file_shape_on_a_fresh_path(tmp_path, write, obj, text):
    p = tmp_path / "out.txt"
    write(obj, p)
    assert p.read_text() == text


# (writer, reader, larger object, smaller object), one case per writer
OVERWRITES = [
    (fileio.write_graph, fileio.read_graph, Graph.complete(30), Graph.from_edges(3, [(0, 2)])),
    (fileio.write_hypergraph, fileio.read_hypergraph, build_h6(20).hypergraph,
     UniformHypergraph(4, 3, [(0, 1, 3)])),
    (fileio.write_fpairs, fileio.read_fpairs, build_chain(12).f_pairs, [(0, 1)]),
    (fileio.write_apset, fileio.read_apset, ap_digits3(500), ApSet(5, (2,))),
    (fileio.write_trace, fileio.read_trace, _path_trace(40), _path_trace(3)),
]


@pytest.mark.parametrize(
    "write, read, big, small", OVERWRITES, ids=[w.__name__ for w, *_ in OVERWRITES]
)
def test_overwrite_leaves_exactly_the_new_text(tmp_path, write, read, big, small):
    fresh = tmp_path / "fresh.txt"
    write(small, fresh)
    p = tmp_path / "out.txt"
    write(big, p)
    assert p.stat().st_size > fresh.stat().st_size
    write(small, p)
    assert read(p) == small
    assert p.stat().st_size == fresh.stat().st_size
    assert p.read_bytes() == fresh.read_bytes()


def test_overwrite_keeps_links_and_mode(tmp_path):
    target = tmp_path / "g.txt"
    fileio.write_graph(Graph.complete(10), target)
    umask = os.umask(0)
    os.umask(umask)
    assert stat.S_IMODE(target.stat().st_mode) == 0o666 & ~umask
    target.chmod(0o600)
    link, hard = tmp_path / "link.txt", tmp_path / "hard.txt"
    link.symlink_to(target)
    os.link(target, hard)
    small = Graph.from_edges(2, [(0, 1)])
    fileio.write_graph(small, link)
    assert link.is_symlink()
    assert fileio.read_graph(target) == fileio.read_graph(hard) == small
    assert stat.S_IMODE(target.stat().st_mode) == 0o600


def test_failed_write_leaves_a_prefix_of_the_new_text(tmp_path):
    p = tmp_path / "f.txt"
    fileio.write_fpairs(build_chain(12).f_pairs, p)
    with pytest.raises(ValueError):
        fileio.write_fpairs([(0, 1), (2,)], p)  # the second pair does not unpack
    assert p.read_text() == "0 1\n"


needs_dev_fd = pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")


def _read_pipe(write_to) -> bytes:
    """Call ``write_to(path)`` with the write end of a pipe as ``/dev/fd/<w>``."""
    r, w = os.pipe()
    try:
        write_to(f"/dev/fd/{w}")
    finally:
        os.close(w)
    with os.fdopen(r, "rb") as fh:
        return fh.read()


@needs_dev_fd
def test_write_trace_to_a_pipe():
    trace = _path_trace(6)
    assert _read_pipe(lambda path: fileio.write_trace(trace, path)) == (
        trace.to_json() + "\n"
    ).encode()


@needs_dev_fd
def test_simulate_trace_to_a_pipe(tmp_path, capsys):
    start = Graph.from_edges(6, [(i, i + 1) for i in range(5)])
    fileio.write_graph(start, tmp_path / "s.txt")
    argv = ["simulate", "--start", str(tmp_path / "s.txt"), "--r", "3", "--trace"]
    got = _read_pipe(lambda path: main([*argv, path]))
    assert capsys.readouterr().out.strip() == "steps=3 percolated=true truncated=false"
    assert got == (run(start, 3, Graph.complete(6)).to_json() + "\n").encode()


def test_write_to_the_null_device():
    # /dev/null accepts lseek but refuses ftruncate, so only regular files are cut
    fileio.write_trace(_path_trace(6), os.devnull)
    fileio.write_graph(Graph.complete(4), os.devnull)


# --- property tests: every format round-trips, and a bad line is named -------


@st.composite
def graphs(draw):
    n = draw(st.integers(0, 12))
    pairs = list(itertools.combinations(range(n), 2))
    return Graph.from_edges(n, draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])


@st.composite
def hypergraphs(draw, labelled: bool):
    r = draw(st.integers(2, 5))
    n = draw(st.integers(r, 12))
    edge = st.lists(st.integers(0, n - 1), min_size=r, max_size=r, unique=True)
    edges = draw(st.lists(edge, max_size=8))
    labels = {}
    if labelled:
        tag = st.tuples(st.text("XYZABC", min_size=1, max_size=3), st.integers(-50, 50))
        labels = draw(st.dictionaries(st.integers(0, n - 1), tag, min_size=1))
    return UniformHypergraph(n, r, edges, labels)


fpair_lists = st.lists(
    st.tuples(st.integers(0, 99), st.integers(1, 100)).filter(lambda p: p[0] < p[1]),
    max_size=12,
)


@st.composite
def apsets(draw):
    n = draw(st.integers(0, 60))
    return ApSet(n, tuple(sorted(draw(st.sets(st.integers(1, n), max_size=12))) if n else ()))


@st.composite
def traces(draw):
    """Traces as ``run`` writes them: one non-empty ascending batch per step."""
    pair = st.tuples(st.integers(0, 30), st.integers(31, 60))
    steps = draw(st.lists(st.lists(pair, min_size=1, max_size=4, unique=True).map(sorted),
                          max_size=5))
    return PercolationTrace(
        steps=steps,
        running_time=len(steps),
        percolated=draw(st.booleans()),
        truncated=draw(st.booleans()),
        final_edge_count=draw(st.integers(0, 500)),
    )


FORMATS = {
    "graph": (graphs(), fileio.write_graph, fileio.read_graph),
    "hypergraph": (hypergraphs(labelled=False), fileio.write_hypergraph, fileio.read_hypergraph),
    "labelled hypergraph": (hypergraphs(labelled=True), fileio.write_hypergraph,
                            fileio.read_hypergraph),
    "fpairs": (fpair_lists, fileio.write_fpairs, fileio.read_fpairs),
    "apset": (apsets(), fileio.write_apset, fileio.read_apset),
    "trace": (traces(), fileio.write_trace, fileio.read_trace),
}


@settings(max_examples=150, deadline=None)
@given(st.data())
@pytest.mark.parametrize("name", list(FORMATS))
def test_every_format_round_trips(name, data):
    objs, write, read = FORMATS[name]
    obj = data.draw(objs)
    with tempfile.TemporaryDirectory() as d:
        p = os.path.join(d, "obj.txt")
        write(obj, p)
        assert read(p) == obj


# no digits, so never an integer; no whitespace, so never a field boundary
junk = st.text("xq.-+_#", min_size=1, max_size=4)

# label classes that are not one field of a label line
unwritable_classes = st.one_of(
    st.text("XY \t\n\x85", max_size=4).filter(lambda c: c.split() != [c]),
    st.integers(),
    st.none(),
)


@settings(max_examples=150, deadline=None)
@given(hypergraphs(labelled=True), unwritable_classes, st.data())
def test_a_label_class_that_cannot_be_read_back_is_refused(h, cls, data):
    v = data.draw(st.sampled_from(sorted(h.labels)))
    with pytest.raises(ValueError, match="label class .* must be a non-empty str"):
        UniformHypergraph(h.n, h.r, h.edges, {**h.labels, v: (cls, 0)})
    with pytest.raises(ValueError, match="label index"):
        UniformHypergraph(h.n, h.r, h.edges, {**h.labels, v: ("X", str(v))})


@settings(max_examples=150, deadline=None)
@given(st.data())
@pytest.mark.parametrize("name", [k for k in FORMATS if k != "trace"])
def test_a_malformed_line_is_named(name, data):
    objs, write, read = FORMATS[name]
    with tempfile.TemporaryDirectory() as d:
        p = os.path.join(d, "obj.txt")
        write(data.draw(objs), p)
        with open(p) as fh:
            lines = fh.read().splitlines()
        if not lines:  # an empty pair list has no line to break
            return
        k = data.draw(st.integers(0, len(lines) - 1))
        fields = lines[k].split()
        token = data.draw(junk)
        if data.draw(st.booleans()):  # one field too many
            fields.append(token)
        else:  # an integer field that is not an integer
            ints = [i for i, f in enumerate(fields) if f.lstrip("-").isdigit()]
            fields[data.draw(st.sampled_from(ints))] = token
        lines[k] = " ".join(fields)
        bad = os.path.join(d, "bad.txt")
        with open(bad, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{bad}:{k + 1}: ")):
            read(bad)


@settings(max_examples=150, deadline=None)
@given(traces(), st.data())
def test_a_malformed_trace_is_named(trace, data):
    text = trace.to_json()
    if data.draw(st.booleans()):  # cut short: never a whole JSON object
        bad, line = text[: data.draw(st.integers(0, len(text) - 1))], 1
    else:  # a stray second line
        bad, line = text + "\n" + data.draw(junk) + "\n", 2
    with tempfile.TemporaryDirectory() as d:
        p = os.path.join(d, "t.json")
        with open(p, "w") as fh:
            fh.write(bad)
        with pytest.raises(ValueError, match=re.escape(f"{p}:{line}: ")):
            fileio.read_trace(p)


@pytest.mark.parametrize(
    "text",
    [
        '{"steps": []}',  # missing fields
        "[1, 2]",  # not an object
        '{"steps": [[[0, 1, 2]]], "running_time": 1, "percolated": true,'
        ' "truncated": false, "final_edge_count": 3}',  # a pair of three
        '{"steps": [], "running_time": "x", "percolated": true,'
        ' "truncated": false, "final_edge_count": 3}',  # non-integer time
        '{"steps": [], "running_time": 0, "percolated": "false",'
        ' "truncated": false, "final_edge_count": 3}',  # a string flag
        '{"steps": [], "running_time": 0, "percolated": false,'
        ' "truncated": 0, "final_edge_count": 3}',  # an integer flag
        '{"steps": [], "running_time": false, "percolated": false,'
        ' "truncated": false, "final_edge_count": 3}',  # a boolean count
        '{"steps": [], "running_time": 0, "percolated": false,'
        ' "truncated": false, "final_edge_count": 3.0}',  # a float count
        '{"steps": [], "running_time": 0, "percolated": false,'
        ' "truncated": false, "final_edge_count": -1}',  # a negative count
        '{"steps": [[[0.7, "2"]]], "running_time": 1, "percolated": false,'
        ' "truncated": false, "final_edge_count": 3}',  # a pair of a float and a string
        '{"steps": [[[2, 1]]], "running_time": 1, "percolated": false,'
        ' "truncated": false, "final_edge_count": 3}',  # a pair written v u
        '{"steps": [[[1, 2], [0, 3]]], "running_time": 1, "percolated": false,'
        ' "truncated": false, "final_edge_count": 3}',  # a batch out of order
        '{"steps": [[[0, 3], [0, 3]]], "running_time": 1, "percolated": false,'
        ' "truncated": false, "final_edge_count": 3}',  # a pair twice
        '{"steps": [[]], "running_time": 1, "percolated": false,'
        ' "truncated": false, "final_edge_count": 3}',  # an empty batch
        '{"steps": [[[0, 3]]], "running_time": 2, "percolated": false,'
        ' "truncated": false, "final_edge_count": 3}',  # time is not the batch count
    ],
)
def test_trace_with_bad_fields_is_named(tmp_path, text):
    p = tmp_path / "t.json"
    p.write_text(text + "\n")
    with pytest.raises(ValueError, match=r"t\.json:1: "):
        fileio.read_trace(p)
