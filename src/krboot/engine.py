"""K_r graph bootstrap process: repeatedly add every host edge whose insertion
creates a new K_r, one simultaneous batch per step, until nothing changes.

An absent edge (u, v) is eligible exactly when the common neighbourhood of u
and v in the current graph contains an (r-2)-clique: that clique plus u, v and
the new edge is a fresh K_r.  ``eligible`` is the one kernel that applies this
rule; ``step_kr``, ``run`` and the start-graph search all call it.  Such a
clique needs a common neighbour, so ``step_kr`` and ``run``'s first step scan
only the two-hop rows of the current graph (``graphs.two_hop_rows``).  After
each batch ``run`` scans the pairs near that batch, or falls back to the
host's own rows when those would cost more than the host edges still missing;
all three give the same batch.
``run_oracle`` re-decides every step by counting complete K_r subgraphs from
scratch and shares no step logic with the kernel.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Iterable

from .graphs import Graph, has_clique_rows, iter_bits, two_hop_rows


@dataclass
class PercolationTrace:
    """Full record of one bootstrap run.

    ``steps[t]`` is the batch of edges added at step t+1, each batch sorted by
    (u, v).  ``running_time`` equals the number of non-empty batches; when
    ``truncated`` is True the run hit ``max_steps`` first and the true running
    time is at least that value.  ``percolated`` means the final graph equals
    the host.
    """

    steps: list[list[tuple[int, int]]] = field(default_factory=list)
    running_time: int = 0
    percolated: bool = False
    truncated: bool = False
    final_edge_count: int = 0

    def to_json(self) -> str:
        obj = {
            "running_time": self.running_time,
            "percolated": self.percolated,
            "truncated": self.truncated,
            "final_edge_count": self.final_edge_count,
            "steps": [[[u, v] for u, v in batch] for batch in self.steps],
        }
        return json.dumps(obj)

    @classmethod
    def from_json(cls, text: str) -> "PercolationTrace":
        obj = json.loads(text)
        steps = [[(int(u), int(v)) for u, v in batch] for batch in obj["steps"]]
        return cls(
            steps=steps,
            running_time=int(obj["running_time"]),
            percolated=bool(obj["percolated"]),
            truncated=bool(obj["truncated"]),
            final_edge_count=int(obj["final_edge_count"]),
        )


def _check_inputs(current: Graph, r: int, host: Graph) -> None:
    if r < 3:
        raise ValueError(f"process order r must be at least 3, got {r}")
    if current.n != host.n:
        raise ValueError("current and host must share the vertex set")
    if not current.is_subgraph_of(host):
        raise ValueError("current graph has an edge outside the host")


def step_kr(current: Graph, r: int, host: Graph) -> list[tuple[int, int]]:
    """One synchronous step: all host edges whose insertion creates a new K_r."""
    _check_inputs(current, r, host)
    return eligible(current.adj, r, two_hop_rows(current.adj, host.adj))


def eligible(
    adj: list[int], r: int, rows: Iterable[tuple[int, int]]
) -> list[tuple[int, int]]:
    """The step kernel: pairs (u, v) from ``rows`` whose edge would close a K_r.

    ``rows`` yields ``(u, mask of candidate partners)`` in ascending u; partners
    v <= u and pairs already in ``adj`` are dropped here, so a host's own rows,
    ``enumerate(host.adj)``, are a full scan.  The batch comes out sorted.
    """
    k = r - 2
    batch: list[tuple[int, int]] = []
    for u, cand in rows:
        au = adj[u]
        base = u + 1
        cand = (cand & ~au) >> base
        while cand:
            low = cand & -cand
            v = base + low.bit_length() - 1
            cand ^= low
            common = au & adj[v]
            if common and has_clique_rows(adj, common, k):
                batch.append((u, v))
    return batch


def _next_candidates(
    current: Graph, host: Graph, batch: list[tuple[int, int]], missing: int
) -> list[tuple[int, int]] | None:
    """Candidate rows for ``eligible`` after ``batch`` was just applied.

    Every edge newly eligible at the next step completes a K_r through at
    least one batch edge (u, v), so its endpoints lie in the common
    neighbourhood of u and v, or one of them is u or v itself.  Returns the
    host pairs near the batch as sorted ``(u, mask)`` rows, or None when
    enumerating them would cost more than a plain full scan, whose cost is
    ``missing``, the number of host edges not yet in ``current``.
    """
    adj = current.adj
    hadj = host.adj
    # quadratic in common-neighbourhood size
    est = 0
    for u, v in batch:
        c = (adj[u] & adj[v]).bit_count()
        est += c * (c - 1) // 2 + adj[u].bit_count() + adj[v].bit_count()
        if est > 2 * missing:
            return None
    rows: dict[int, int] = {}
    for u, v in batch:
        common = adj[u] & adj[v]
        for a in iter_bits(common):
            rows[a] = rows.get(a, 0) | (common & hadj[a])
        for x, y in ((u, v), (v, u)):
            near = adj[y] & hadj[x]
            rows[x] = rows.get(x, 0) | near
            # partners below x belong to their own row
            for w in iter_bits(near & ~adj[x] & ((1 << x) - 1)):
                rows[w] = rows.get(w, 0) | (1 << x)
    return sorted(rows.items())


def run(
    start: Graph,
    r: int,
    host: Graph,
    max_steps: int | None = None,
) -> PercolationTrace:
    """Run the K_r bootstrap process from ``start`` inside ``host``.

    ``max_steps`` defaults to C(n, 2) + 1, which no process can exhaust, so by
    default the trace is never truncated.
    """
    _check_inputs(start, r, host)
    if max_steps is None:
        max_steps = start.n * (start.n - 1) // 2 + 1
    if max_steps < 0:
        raise ValueError("max_steps must be non-negative")

    current = start.copy()
    missing = host.edge_count() - start.edge_count()
    steps: list[list[tuple[int, int]]] = []
    rows: Iterable[tuple[int, int]] = two_hop_rows(current.adj, host.adj)
    truncated = False
    while True:
        batch = eligible(current.adj, r, rows)
        if not batch:
            break  # stabilized; never truncated, even at the exact budget
        if len(steps) >= max_steps:
            truncated = True
            break
        for u, v in batch:
            current.add_edge(u, v)
        steps.append(batch)
        missing -= len(batch)
        near = _next_candidates(current, host, batch, missing)
        rows = enumerate(host.adj) if near is None else near

    return PercolationTrace(
        steps=steps,
        running_time=len(steps),
        percolated=current == host,
        truncated=truncated,
        final_edge_count=current.edge_count(),
    )


def replay(start: Graph, trace: PercolationTrace) -> Graph:
    """Apply a trace's batches to a copy of ``start`` and return the result."""
    g = start.copy()
    for batch in trace.steps:
        for u, v in batch:
            g.add_edge(u, v)
    return g


def run_oracle(
    start: Graph, r: int, host: Graph, max_steps: int | None = None
) -> PercolationTrace:
    """Reference engine: decide each edge by counting K_r copies from scratch.

    Exponential in n; intended for cross-checking ``run`` on small instances
    (n <= 12 or so).  Produces traces that compare equal to ``run``'s.
    """
    _check_inputs(start, r, host)
    n = start.n
    if max_steps is None:
        max_steps = n * (n - 1) // 2 + 1
    if max_steps < 0:
        raise ValueError("max_steps must be non-negative")

    edge_set = {(u, v) for u, v in start.edges()}
    host_edges = sorted(host.edges())

    def count_kr(edges: set[tuple[int, int]]) -> int:
        total = 0
        for sub in itertools.combinations(range(n), r):
            if all(p in edges for p in itertools.combinations(sub, 2)):
                total += 1
        return total

    steps: list[list[tuple[int, int]]] = []
    truncated = False
    while True:
        base = count_kr(edge_set)
        batch = []
        for e in host_edges:
            if e in edge_set:
                continue
            if count_kr(edge_set | {e}) > base:
                batch.append(e)
        if not batch:
            break  # stabilized; never truncated, even at the exact budget
        if len(steps) >= max_steps:
            truncated = True
            break
        edge_set.update(batch)
        steps.append(batch)

    return PercolationTrace(
        steps=steps,
        running_time=len(steps),
        percolated=len(edge_set) == len(host_edges),
        truncated=truncated,
        final_edge_count=len(edge_set),
    )
