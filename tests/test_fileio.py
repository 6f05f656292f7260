from __future__ import annotations

import itertools
import json
import os
import random
import re
import stat
import subprocess
import sys
import tempfile
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krboot import engine, fileio
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
        (fileio.read_hypergraph, "5 2 1\n0 1\n# label 2 X 3\n# label 2 Y 4\n", 4),  # relabelled
        (fileio.read_apset, "", 1),  # empty file
        (fileio.read_apset, "-1 0\n", 1),  # negative ambient bound
    ],
)
def test_range_and_label_errors_name_the_line(tmp_path, reader, text, line):
    p = tmp_path / "bad.txt"
    p.write_text(text)
    with pytest.raises(ValueError, match=rf"bad\.txt:{line}: "):
        reader(p)


@pytest.mark.parametrize(
    "reader, text, counts",
    [
        (fileio.read_graph, "3 -1\n", "m >= 0, got 3 -1"),
        (fileio.read_apset, "9 -1\n", "k >= 0, got 9 -1"),
        (fileio.read_hypergraph, "5 2 -1\n", "m >= 0, got 5 2 -1"),
    ],
)
def test_negative_header_counts_fail_on_line_1(tmp_path, reader, text, counts):
    p = tmp_path / "bad.txt"
    p.write_text(text)
    with pytest.raises(ValueError, match=rf"bad\.txt:1: need n >= 0.* and {counts}$"):
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
@given(traces())
def test_trace_json_is_json_dumps_of_the_nested_lists(trace):
    fields = {key: getattr(trace, key) for key in
              ("running_time", "percolated", "truncated", "final_edge_count")}
    assert trace.to_json() == json.dumps({**fields, "steps": list(trace.steps)})


@settings(max_examples=150, deadline=None)
@given(traces())
@pytest.mark.parametrize("chunk", [1, 2, 3])
def test_traces_round_trip_across_chunk_edges(chunk, trace):
    # pieces and read chunks of 1 to 3 pairs cut batches at every place
    fields = {key: getattr(trace, key) for key in
              ("running_time", "percolated", "truncated", "final_edge_count")}
    with mock.patch.object(engine, "_CHUNK", chunk), tempfile.TemporaryDirectory() as d:
        assert trace.to_json() == json.dumps({**fields, "steps": list(trace.steps)})
        p = os.path.join(d, "t.json")
        fileio.write_trace(trace, p)
        with open(p) as fh:
            assert fh.read() == trace.to_json() + "\n"
        assert fileio.read_trace(p) == trace


def _json_path(text: str):
    """``from_json`` through json.loads alone: the trace, or the exception."""
    with mock.patch.object(engine, "_read_canonical", lambda text: None):
        try:
            return PercolationTrace.from_json(text)
        except (KeyError, TypeError, ValueError) as e:
            return e


@settings(max_examples=300, deadline=None)
@given(traces(), st.data())
@pytest.mark.parametrize("chunk", [1, 3])
def test_the_one_pass_reader_agrees_with_json_loads(chunk, trace, data):
    # an edit of up to 3 characters into up to 3 of the layout's own characters
    text = trace.to_json()
    i = data.draw(st.integers(0, len(text)))
    j = data.draw(st.integers(i, min(len(text), i + 3)))
    edited = text[:i] + data.draw(st.text("[], 0123456789-\n", max_size=3)) + text[j:]
    with mock.patch.object(engine, "_CHUNK", chunk):
        fast = engine._read_canonical(edited)
    slow = _json_path(edited)
    if fast is not None:  # what the one pass takes, json.loads takes alike
        steps, scalars = fast
        assert slow == PercolationTrace(steps, **scalars)
    elif isinstance(slow, PercolationTrace):  # and it takes every canonical text
        assert slow.to_json() != edited.rstrip(" \t\n\r")


# a trace with one- and two-pair batches; at a chunk of one pair the reader
# cuts its steps after every pair
CANONICAL = PercolationTrace(
    steps=[[(0, 1)], [(0, 2), (1, 3)], [(2, 5)], [(1, 4), (2, 4)]],
    running_time=4,
    percolated=True,
    final_edge_count=12,
)


@pytest.mark.parametrize(
    "text",
    [
        json.dumps(json.loads(CANONICAL.to_json()), indent=1),
        json.dumps(json.loads(CANONICAL.to_json()), sort_keys=True),
        CANONICAL.to_json().replace(", ", " ,  ").replace("[[", "[ ["),
        " " + CANONICAL.to_json(),
        CANONICAL.to_json().replace("]]]}", "]] ]}"),
        CANONICAL.to_json() + "\n\r\t ",
    ],
    ids=["indent", "keys-sorted", "spaces", "leading-space", "space-at-end", "blank-tail"],
)
@pytest.mark.parametrize("chunk", [1, engine._CHUNK])
def test_other_json_layouts_read_as_the_canonical_one(tmp_path, monkeypatch, chunk, text):
    monkeypatch.setattr(engine, "_CHUNK", chunk)
    for tail in ("", "\n"):
        p = tmp_path / "t.json"
        p.write_text(text + tail)
        assert fileio.read_trace(p) == PercolationTrace.from_json(text) == CANONICAL
    canonical = CANONICAL.to_json()
    assert engine._read_canonical(canonical) is not None
    assert (engine._read_canonical(text) is None) == (text.rstrip() != canonical)


@pytest.mark.parametrize(
    "old, new, reason",
    [
        ("[2, 5]", "[3, 3]", "pair [3, 3] is not two integers 0 <= u < v"),
        ("[2, 5]", "[5, 2]", "pair [5, 2] is not two integers 0 <= u < v"),
        ("[0, 1]", "[-1, 1]", "pair [-1, 1] is not two integers 0 <= u < v"),
        ("[2, 5]", "[2, 2147483648]", "batch 2 has a vertex past 2**31 - 1"),
        ("[0, 2], [1, 3]", "[1, 3], [0, 2]", "pair [0, 2] breaks its batch's ascending order"),
        ("[1, 4], [2, 4]", "[2, 4], [2, 4]", "pair [2, 4] breaks its batch's ascending order"),
        ('"running_time": 4', '"running_time": 5', "running_time 5 but 4 batches"),
        ("[[2, 5]]", "[]", "empty batch"),
    ],
)
@pytest.mark.parametrize("chunk", [1, engine._CHUNK])
def test_canonical_looking_bad_traces_get_the_json_path_reason(
    tmp_path, monkeypatch, chunk, old, new, reason
):
    monkeypatch.setattr(engine, "_CHUNK", chunk)
    text = CANONICAL.to_json().replace(old, new, 1)
    assert text != CANONICAL.to_json() and re.match(engine._HEAD, text)
    assert engine._read_canonical(text) is None
    p = tmp_path / "t.json"
    p.write_text(text + "\n")
    with pytest.raises(ValueError, match=r"t\.json:1: malformed trace: " + re.escape(reason) + "$"):
        fileio.read_trace(p)


def test_a_leading_zero_gets_the_json_decoder_reason(tmp_path):
    text = CANONICAL.to_json().replace("[2, 5]", "[02, 5]")
    assert re.match(engine._HEAD, text) and engine._read_canonical(text) is None
    with pytest.raises(json.JSONDecodeError) as e:
        json.loads(text)
    p = tmp_path / "t.json"
    p.write_text(text + "\n")
    with pytest.raises(ValueError, match=rf"t\.json:1: {re.escape(e.value.msg)}$"):
        fileio.read_trace(p)


@pytest.mark.parametrize("key", ["running_time", "final_edge_count"])
def test_a_count_of_many_digits_is_left_to_json_loads(key):
    # past 4300 digits int() may refuse it, as json.loads then does
    value = getattr(CANONICAL, key)
    text = CANONICAL.to_json().replace(f'"{key}": {value}', f'"{key}": {value}{"0" * 5000}')
    assert engine._read_canonical(text) is None
    slow = _json_path(text)
    if key == "final_edge_count" and isinstance(slow, PercolationTrace):  # no digit limit
        assert slow.final_edge_count == value * 10**5000
    else:
        with pytest.raises(ValueError, match=re.escape(str(slow))):
            PercolationTrace.from_json(text)


# builds the scaffold-sized trace of 2,560,000 one-pair batches (vertices
# below 64,040), then writes and reads it back, printing each call's peak
# RSS bump (``ru_maxrss``, KiB on Linux)
FRONTIER = """
import json, resource, sys
from array import array
from krboot import engine, fileio

m = 2_560_000
steps = engine.Batches()
for t in range(m):
    u = t // 40
    steps.ends.append(u)
    steps.ends.append(u + 1 + t % 40)
steps.offsets = array("q", range(m + 1))
trace = engine.PercolationTrace(steps, running_time=m, percolated=True, final_edge_count=m)
peak = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
before = peak()
fileio.write_trace(trace, sys.argv[1])
written = peak()
back = fileio.read_trace(sys.argv[1])
read = peak()
print(json.dumps({"write_kib": written - before, "read_kib": read - written,
                  "equal": back == trace, "running_time": back.running_time}))
"""


@pytest.mark.slow
@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB only on Linux")
def test_frontier_trace_streams_to_and_from_a_file(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(engine.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    path = tmp_path / "frontier.json"
    out = subprocess.run([sys.executable, "-c", FRONTIER, str(path)], env=env,
                         capture_output=True, text=True, check=True, timeout=600)
    got = json.loads(out.stdout)
    assert got["equal"] and got["running_time"] == 2_560_000
    # the whole file as one string would be 45 MB, and json.loads's lists about 690 MB
    assert got["write_kib"] < 50 * 1024
    assert got["read_kib"] < 150 * 1024
    with open(path, "rb") as fh:
        assert fh.read(64).startswith(b'{"running_time": 2560000, "percolated": true, ')
        fh.seek(-24, os.SEEK_END)
        assert fh.read().endswith(b"[[63999, 64039]]]}\n")


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


# each malformed trace, and the reason that ``read_trace`` gives after "t.json:1: "
BAD_TRACES = {
    '{"steps": []}':  # missing fields
    "trace has no 'running_time' field",
    "[1, 2]":  # not an object
    "malformed trace: list indices must be integers or slices, not str",
    '{"steps": [[[0, 1, 2]]], "running_time": 1, "percolated": true,'
    ' "truncated": false, "final_edge_count": 3}':  # a pair of three
    "malformed trace: too many values to unpack (expected 2)",
    '{"steps": [], "running_time": "x", "percolated": true,'
    ' "truncated": false, "final_edge_count": 3}':  # non-integer time
    "malformed trace: running_time must be a JSON int",
    '{"steps": [], "running_time": 0, "percolated": "false",'
    ' "truncated": false, "final_edge_count": 3}':  # a string flag
    "malformed trace: percolated must be a JSON bool",
    '{"steps": [], "running_time": 0, "percolated": false,'
    ' "truncated": 0, "final_edge_count": 3}':  # an integer flag
    "malformed trace: truncated must be a JSON bool",
    '{"steps": [], "running_time": false, "percolated": false,'
    ' "truncated": false, "final_edge_count": 3}':  # a boolean count
    "malformed trace: running_time must be a JSON int",
    '{"steps": [], "running_time": 0, "percolated": false,'
    ' "truncated": false, "final_edge_count": 3.0}':  # a float count
    "malformed trace: final_edge_count must be a JSON int",
    '{"steps": [], "running_time": 0, "percolated": false,'
    ' "truncated": false, "final_edge_count": -1}':  # a negative count
    "malformed trace: final_edge_count must be non-negative",
    '{"steps": [[[0.7, "2"]]], "running_time": 1, "percolated": false,'
    ' "truncated": false, "final_edge_count": 3}':  # a pair of a float and a string
    "malformed trace: pair [0.7, '2'] is not two integers 0 <= u < v",
    '{"steps": [[[2, 1]]], "running_time": 1, "percolated": false,'
    ' "truncated": false, "final_edge_count": 3}':  # a pair written v u
    "malformed trace: pair [2, 1] is not two integers 0 <= u < v",
    '{"steps": [[[1, 2], [0, 3]]], "running_time": 1, "percolated": false,'
    ' "truncated": false, "final_edge_count": 3}':  # a batch out of order
    "malformed trace: pair [0, 3] breaks its batch's ascending order",
    '{"steps": [[[0, 3], [0, 3]]], "running_time": 1, "percolated": false,'
    ' "truncated": false, "final_edge_count": 3}':  # a pair twice
    "malformed trace: pair [0, 3] breaks its batch's ascending order",
    '{"steps": [[]], "running_time": 1, "percolated": false,'
    ' "truncated": false, "final_edge_count": 3}':  # an empty batch
    "malformed trace: empty batch",
    '{"steps": [[[0, 3]]], "running_time": 2, "percolated": false,'
    ' "truncated": false, "final_edge_count": 3}':  # time is not the batch count
    "malformed trace: running_time 2 but 1 batches",
}


@pytest.mark.parametrize("text", list(BAD_TRACES))
def test_trace_with_bad_fields_is_named(tmp_path, text):
    p = tmp_path / "t.json"
    p.write_text(text + "\n")
    with pytest.raises(ValueError, match=r"t\.json:1: " + re.escape(BAD_TRACES[text]) + "$"):
        fileio.read_trace(p)


@pytest.mark.parametrize(
    "steps, reason",
    [
        ("{}", "steps must be a JSON array"),
        ('"[[0, 1]]"', "steps must be a JSON array"),
        ("[[[0, 1]], [[0, 2147483648]]]", "batch 1 has a vertex past 2**31 - 1"),
        ("[[[0, 1], [2147483647, 2147483648]]]", "batch 0 has a vertex past 2**31 - 1"),
    ],
)
def test_trace_steps_outside_the_flat_arrays_are_named(tmp_path, steps, reason):
    # batches are stored in an array('i'), so a vertex must fit 32 signed bits
    p = tmp_path / "t.json"
    p.write_text(f'{{"steps": {steps}, "running_time": 0, "percolated": false,'
                 ' "truncated": false, "final_edge_count": 0}\n')
    with pytest.raises(ValueError, match=r"t\.json:1: malformed trace: " + re.escape(reason)):
        fileio.read_trace(p)
