"""Longest-running start graphs inside a complete host, by exhaustion or sampling.

The exhaustive scan walks every subset of K_n's edges in binary-counter order
(lexicographic edge list), so ties resolve to the first witness encountered.
Each start graph runs through the engine's step kernel, ``engine.eligible``,
without building a trace.  Unlike ``engine.run``, which takes its rows from
``graphs.partner_rows``, the search hands the kernel the complete host's own
rows, built once per search: on graphs this small, pruning the rows costs
more than the pairs it saves.  Each reported maximum is re-run through
``engine.run`` as a confirmation before being returned.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from . import engine
from .graphs import Graph


@dataclass
class MaxTimeResult:
    n: int
    r: int
    max_time: int
    witness_start: Graph
    graphs_examined: int
    exhaustive: bool


def _edge_list(n: int) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def _running_time_complete_host(
    adj: list[int], host_rows: list[tuple[int, int]], r: int
) -> int:
    """Steps to stabilization for the K_r process from the rows ``adj``.

    ``host_rows`` is ``list(enumerate(host.adj))``, the kernel's full-scan
    rows, built once per search.  Mutates ``adj``.  Shares the engine's step
    kernel and skips only the trace bookkeeping; witnesses are re-validated
    with ``engine.run`` afterwards.
    """
    t = 0
    while batch := engine.eligible(adj, r, host_rows):
        for u, v in batch:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        t += 1
    return t


def _adj_from_mask(mask: int, edges: list[tuple[int, int]], n: int) -> list[int]:
    adj = [0] * n
    m = mask
    while m:
        low = m & -m
        u, v = edges[low.bit_length() - 1]
        m ^= low
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def _confirm(result: MaxTimeResult) -> MaxTimeResult:
    trace = engine.run(result.witness_start, result.r, Graph.complete(result.n))
    if trace.truncated or trace.running_time != result.max_time:
        raise AssertionError(
            f"engine replay got {trace.running_time}, search said {result.max_time}"
        )
    return result


def _best_of(n: int, r: int, masks, exhaustive: bool) -> MaxTimeResult:
    """Run every start in ``masks`` (edge subsets of K_n); keep the first slowest."""
    edges = _edge_list(n)
    host_rows = list(enumerate(Graph.complete(n).adj))
    best_time, best_mask, examined = -1, 0, 0
    for examined, mask in enumerate(masks, start=1):
        t = _running_time_complete_host(_adj_from_mask(mask, edges, n), host_rows, r)
        if t > best_time:
            best_time = t
            best_mask = mask
    witness = Graph(n)
    witness.adj = _adj_from_mask(best_mask, edges, n)
    return _confirm(MaxTimeResult(n, r, best_time, witness, examined, exhaustive))


def max_running_time(n: int, r: int) -> MaxTimeResult:
    """Exact maximum running time over all 2^C(n,2) start graphs; n <= 7."""
    if not 1 <= n <= 7:
        raise ValueError("exhaustive search is limited to 1 <= n <= 7")
    if r < 3:
        raise ValueError("need r >= 3")
    return _best_of(n, r, range(1 << (n * (n - 1) // 2)), exhaustive=True)


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
    masks = (rng.getrandbits(pairs) for _ in range(samples))
    return _best_of(n, r, masks, exhaustive=False)
