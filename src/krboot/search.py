"""Longest-running start graphs inside a complete host, by exhaustion or sampling.

A start graph is a mask over K_n's lexicographic edge list.  ``_row_builder``
turns a mask into adjacency rows with one lookup per byte of the mask, in
per-byte tables of the edge list (for n <= 21; edge by edge past that).
Every start runs through the engine's step kernel, ``engine.eligible``,
without building a trace.  Unlike ``engine.run``, which takes its rows from
``graphs.partner_rows``, the search hands the kernel the complete host's own
rows, built once per search: on graphs this small, pruning the rows costs
more than the pairs it saves.

In the complete host one step takes a start ``mask`` to ``mask | batch``, a
strictly larger edge subset and so itself a start with a larger mask.  Its
running time is 0 when the batch is empty and one more than its successor's
otherwise.  The exhaustive search therefore fills a table of running times
over all 2^C(n,2) starts from the complete graph down, with one kernel scan
and one table lookup per start, and then keeps the first slowest start in
binary-counter order.  The sampled search walks each start to stabilization
instead and keeps no memo: its random starts and their successors almost
never repeat, so a memo would cost memory and save no scans; its ties go to
the first slowest start drawn.  Each reported maximum is re-run through
``engine.run`` as a confirmation before being returned.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from operator import or_
from typing import Callable

from . import engine
from .graphs import Graph

# largest n whose starts get their rows from lookup tables: the measured
# crossover, past which building the rows edge by edge is as fast or faster
_MAX_TABLE_N = 21


@dataclass
class MaxTimeResult:
    """``kernel_scans`` counts the ``engine.eligible`` calls the search made."""

    n: int
    r: int
    max_time: int
    witness_start: Graph
    graphs_examined: int
    exhaustive: bool
    kernel_scans: int


def _edge_list(n: int) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def _row_builder(n: int) -> Callable[[int], list[int]]:
    """The adjacency rows of an edge mask of K_n, from per-byte lookup tables.

    ``tables[j][b]`` holds the rows of the edges whose bits in byte j of the
    mask are b, so a mask over C(n,2) edges costs ceil(C(n,2)/8) lookups.
    The tables hold 256 * n rows per byte, O(n^3) in all, and each lookup
    ORs n rows, so past ``_MAX_TABLE_N`` the rows are built edge by edge
    instead, in O(n) memory: from n = 22 on that is as fast per start, and
    at n = 50 the tables would take 22 MB and 1.2 s to build.
    """
    edges = _edge_list(n)
    if n > _MAX_TABLE_N:

        def rows_by_edge(mask: int) -> list[int]:
            adj = [0] * n
            while mask:
                low = mask & -mask
                u, v = edges[low.bit_length() - 1]
                mask ^= low
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            return adj

        return rows_by_edge
    tables = []
    for lo in range(0, len(edges) or 1, 8):
        byte_edges = edges[lo : lo + 8]
        table = []
        for b in range(1 << len(byte_edges)):
            rows = [0] * n
            for i, (u, v) in enumerate(byte_edges):
                if b >> i & 1:
                    rows[u] |= 1 << v
                    rows[v] |= 1 << u
            table.append(tuple(rows))
        tables.append(table)
    first, *rest = tables

    def rows_of(mask: int) -> list[int]:
        rows = first[mask & 255]
        for table in rest:
            mask >>= 8
            rows = map(or_, rows, table[mask & 255])
        return list(rows)

    return rows_of


def _running_time_complete_host(
    adj: list[int], host_rows: list[tuple[int, int]], r: int
) -> int:
    """Steps to stabilization for the K_r process from the rows ``adj``.

    ``host_rows`` is ``list(enumerate(host.adj))``, the kernel's full-scan
    rows, built once per search.  Mutates ``adj``, and makes one kernel scan
    more than the steps it returns.  Shares the engine's step kernel and
    skips only the trace bookkeeping; witnesses are re-validated with
    ``engine.run`` afterwards.
    """
    t = 0
    while batch := engine.eligible(adj, r, host_rows):
        for u, v in batch:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        t += 1
    return t


def _time_table(n: int, r: int) -> tuple[bytearray, int]:
    """Running time of every start in K_n, indexed by edge mask, and the
    number of kernel scans made to fill it.

    Starts are filled in descending mask order, so each successor
    ``mask | batch`` is already in the table.
    """
    rows_of = _row_builder(n)
    host_rows = list(enumerate(Graph.complete(n).adj))
    edges = _edge_list(n)
    bit = [[0] * n for _ in range(n)]
    for i, (u, v) in enumerate(edges):
        bit[u][v] = 1 << i
    times = bytearray(1 << len(edges))
    scans = 0
    for mask in range(len(times) - 1, -1, -1):
        scans += 1
        if batch := engine.eligible(rows_of(mask), r, host_rows):
            succ = mask
            for u, v in batch:
                succ |= bit[u][v]
            times[mask] = times[succ] + 1
    return times, scans


def _confirm(
    n: int, r: int, best_time: int, best_mask: int, examined: int, scans: int, exhaustive: bool
) -> MaxTimeResult:
    """Replay the witness through ``engine.run``, built from the edge list
    rather than the row tables."""
    witness = Graph.from_edges(n, (e for i, e in enumerate(_edge_list(n)) if best_mask >> i & 1))
    trace = engine.run(witness, r, Graph.complete(n))
    if trace.truncated or trace.running_time != best_time:
        raise AssertionError(f"engine replay got {trace.running_time}, search said {best_time}")
    return MaxTimeResult(n, r, best_time, witness, examined, exhaustive, scans)


def max_running_time(n: int, r: int) -> MaxTimeResult:
    """Exact maximum running time over all 2^C(n,2) start graphs; n <= 7."""
    if not 1 <= n <= 7:
        raise ValueError("exhaustive search is limited to 1 <= n <= 7")
    if r < 3:
        raise ValueError("need r >= 3")
    times, scans = _time_table(n, r)
    best_time = max(times)
    # index() finds the first slowest start in binary-counter order
    return _confirm(n, r, best_time, times.index(best_time), len(times), scans, exhaustive=True)


def max_running_time_sampled(n: int, r: int, samples: int, seed: int) -> MaxTimeResult:
    """Seeded lower-bound probe: best of ``samples`` uniform random starts."""
    if n < 1:
        raise ValueError("need n >= 1")
    if r < 3:
        raise ValueError("need r >= 3")
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = random.Random(seed)
    pairs = n * (n - 1) // 2
    rows_of = _row_builder(n)
    host_rows = list(enumerate(Graph.complete(n).adj))
    best_time, best_mask, scans = -1, 0, 0
    for _ in range(samples):
        mask = rng.getrandbits(pairs)
        t = _running_time_complete_host(rows_of(mask), host_rows, r)
        scans += t + 1
        if t > best_time:
            best_time, best_mask = t, mask
    return _confirm(n, r, best_time, best_mask, samples, scans, exhaustive=False)
