"""Plain-text readers and writers for graphs, hypergraphs, pair lists,
progression-free sets, and JSON traces.  All formats round-trip losslessly;
malformed input raises ValueError with a line reference.

Writers overwrite an existing regular file in place and then cut it to the
new text's length, instead of truncating it on open: on ext4, truncating or
renaming over a file whose pages are not yet on disk waits for them to be
written out first.
"""
from __future__ import annotations

import json
import os
import stat
from contextlib import contextmanager

from .apsets import ApSet
from .engine import PercolationTrace
from .graphs import Graph, UniformHypergraph


def _fail(path: str | os.PathLike, lineno: int, msg: str) -> ValueError:
    return ValueError(f"{path}:{lineno}: {msg}")


@contextmanager
def _overwrite(path):
    """Text handle that leaves ``path`` holding exactly what was written.

    Like ``open(path, "w")`` for links, ``/dev/fd/N``, pipes and mode bits,
    but without ``O_TRUNC``.  The cut runs even if writing fails, so the file
    then holds a prefix of the new text; only regular files are cut, as
    ``O_TRUNC`` has no effect on pipes or devices either.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w") as fh:
        try:
            yield fh
        finally:
            if stat.S_ISREG(os.fstat(fd).st_mode):
                fh.truncate()


def _int_fields(line: str, count: int, path, lineno: int) -> list[int]:
    parts = line.split()
    if len(parts) != count:
        raise _fail(path, lineno, f"expected {count} fields, got {len(parts)}")
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise _fail(path, lineno, f"non-integer field in {line!r}") from None


def write_graph(g: Graph, path) -> None:
    with _overwrite(path) as fh:
        fh.write(f"{g.n} {g.edge_count()}\n")
        for u, v in g.edges():
            fh.write(f"{u} {v}\n")


def read_graph(path) -> Graph:
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise _fail(path, 1, "empty graph file")
    n, m = _int_fields(lines[0], 2, path, 1)
    if n < 0 or m < 0:
        raise _fail(path, 1, f"need n >= 0 and m >= 0, got {n} {m}")
    if len(lines) != m + 1:
        raise _fail(path, len(lines), f"expected {m} edge lines, got {len(lines) - 1}")
    g = Graph(n)
    prev = (-1, -1)
    for k, line in enumerate(lines[1:], start=2):
        u, v = _int_fields(line, 2, path, k)
        if not u < v:
            raise _fail(path, k, f"edge must be written u < v, got {u} {v}")
        if u < 0 or v >= n:
            raise _fail(path, k, f"edge {u} {v} has vertex out of range [0, {n})")
        if (u, v) <= prev:
            raise _fail(path, k, "edges must be strictly ascending")
        prev = (u, v)
        g.add_edge(u, v)
    return g


def write_hypergraph(h: UniformHypergraph, path) -> None:
    with _overwrite(path) as fh:
        fh.write(f"{h.n} {h.r} {len(h.edges)}\n")
        for e in h.edges:
            fh.write(" ".join(str(v) for v in e) + "\n")
        if h.labels:
            for v in sorted(h.labels):
                cls, idx = h.labels[v]
                fh.write(f"# label {v} {cls} {idx}\n")


def read_hypergraph(path) -> UniformHypergraph:
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise _fail(path, 1, "empty hypergraph file")
    n, r, m = _int_fields(lines[0], 3, path, 1)
    if n < 0 or r < 2 or m < 0:
        raise _fail(path, 1, f"need n >= 0, r >= 2 and m >= 0, got {n} {r} {m}")
    if len(lines) < m + 1:
        raise _fail(path, len(lines), f"expected {m} edge lines")
    edges = []
    for k, line in enumerate(lines[1 : m + 1], start=2):
        ids = _int_fields(line, r, path, k)
        if any(a >= b for a, b in zip(ids, ids[1:])):
            raise _fail(path, k, "edge vertices must be strictly ascending")
        if ids[0] < 0 or ids[-1] >= n:
            raise _fail(path, k, f"edge has vertex out of range [0, {n})")
        edges.append(ids)
    labels: dict[int, tuple[str, int]] = {}
    for k, line in enumerate(lines[m + 1 :], start=m + 2):
        parts = line.split()
        if len(parts) != 5 or parts[0] != "#" or parts[1] != "label":
            raise _fail(path, k, f"expected '# label <id> <class> <index>', got {line!r}")
        try:
            v, idx = int(parts[2]), int(parts[4])
        except ValueError:
            raise _fail(path, k, f"non-integer field in {line!r}") from None
        if not 0 <= v < n:
            raise _fail(path, k, f"label on unknown vertex {v}")
        if v in labels:
            raise _fail(path, k, f"second label for vertex {v}")
        labels[v] = (parts[3], idx)
    return UniformHypergraph(n, r, edges, labels)


def write_fpairs(pairs: list[tuple[int, int]], path) -> None:
    with _overwrite(path) as fh:
        for u, v in pairs:
            fh.write(f"{u} {v}\n")


def read_fpairs(path) -> list[tuple[int, int]]:
    with open(path) as fh:
        lines = fh.read().splitlines()
    out = []
    for k, line in enumerate(lines, start=1):
        u, v = _int_fields(line, 2, path, k)
        if not 0 <= u < v:
            raise _fail(path, k, f"pair must be written 0 <= u < v, got {u} {v}")
        out.append((u, v))
    return out


def write_apset(s: ApSet, path) -> None:
    with _overwrite(path) as fh:
        fh.write(f"{s.n} {len(s.elements)}\n")
        for e in s.elements:
            fh.write(f"{e}\n")


def read_apset(path) -> ApSet:
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise _fail(path, 1, "empty set file")
    n, k = _int_fields(lines[0], 2, path, 1)
    if n < 0 or k < 0:
        raise _fail(path, 1, f"need n >= 0 and k >= 0, got {n} {k}")
    if len(lines) != k + 1:
        raise _fail(path, len(lines), f"expected {k} element lines")
    elems: list[int] = []
    for i, line in enumerate(lines[1:], start=2):
        (e,) = _int_fields(line, 1, path, i)
        if not 1 <= e <= n:
            raise _fail(path, i, f"element {e} outside [1, {n}]")
        if elems and e <= elems[-1]:
            raise _fail(path, i, "elements must be strictly increasing")
        elems.append(e)
    return ApSet(n, tuple(elems))


def write_trace(t: PercolationTrace, path) -> None:
    with _overwrite(path) as fh:  # piece by piece: no string of the whole file
        fh.writelines(t.json_pieces())
        fh.write("\n")


def read_trace(path) -> PercolationTrace:
    with open(path) as fh:
        text = fh.read()
    try:
        return PercolationTrace.from_json(text)
    except json.JSONDecodeError as e:
        raise _fail(path, e.lineno, e.msg) from None
    except KeyError as e:
        raise _fail(path, 1, f"trace has no {e} field") from None
    except (TypeError, ValueError) as e:  # the object starts on line 1
        raise _fail(path, 1, f"malformed trace: {e}") from None
