"""K_r graph bootstrap process: repeatedly add every host edge whose insertion
creates a new K_r, one simultaneous batch per step, until nothing changes.

An absent edge (u, v) is eligible exactly when the common neighbourhood of u
and v in the current graph contains an (r-2)-clique: that clique plus u, v and
the new edge is a fresh K_r.  Three kernel entry points apply this rule:

- ``start_scan`` is the clique-first start scan of ``step_kr`` and of
  ``run``'s first step.  It turns the rule around: it enumerates each
  (r-2)-clique Q once with ``graphs.near_cliques`` and takes the non-adjacent
  host pairs inside the AND of Q's rows.  Its budget is the host edges still
  missing, against a deterministic count of the cliques visited and of the
  pairs each AND could give, charged before any pair is taken from it; past
  it, the scan falls back to the row scan.
- ``eligible`` is the row scan: it checks candidate rows, taken from
  ``graphs.partner_rows``: each vertex's non-adjacent host partners above it,
  cut to those with at least r-2 common neighbours when that cut is cheaper
  than the pairs it removes.  It is ``start_scan``'s fallback and ``run``'s
  bail-out full scan.
- ``eligible_after`` is the anchored step: after a batch, a newly eligible
  pair closes a K_r through some batch edge, so it searches only around the
  batch edges.  ``run`` takes it unless its estimated cost exceeds the host
  edges still missing, and then falls back to the row scan.

Every route gives the same batch.
``run_oracle`` re-decides every step by counting complete K_r subgraphs from
scratch and shares no step logic with the kernel.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Iterable

from .graphs import (
    Graph,
    OverBudget,
    has_clique_rows,
    iter_bits,
    near_cliques,
    partner_rows,
)


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
            "steps": self.steps,
        }
        return json.dumps(obj)

    @classmethod
    def from_json(cls, text: str) -> "PercolationTrace":
        """Read back what ``to_json`` writes, and only that: the flags are JSON
        booleans, the counts integers, ``running_time`` is the number of
        batches, and each batch is a non-empty ascending list of pairs u < v.
        A field of another type or shape raises ValueError or TypeError."""
        obj = json.loads(text)
        steps = [_batch(batch) for batch in obj["steps"]]
        trace = cls(steps, **{key: obj[key] for key in _SCALARS})
        for key, kind in _SCALARS.items():
            if type(getattr(trace, key)) is not kind:
                raise ValueError(f"{key} must be a JSON {kind.__name__}")
        if trace.running_time != len(steps):
            raise ValueError(f"running_time {trace.running_time} but {len(steps)} batches")
        if trace.final_edge_count < 0:
            raise ValueError("final_edge_count must be non-negative")
        return trace


# the trace fields besides ``steps``, with their JSON types
_SCALARS = {"running_time": int, "percolated": bool, "truncated": bool, "final_edge_count": int}


def _batch(pairs: list) -> list[tuple[int, int]]:
    """One batch of a trace file as ``run`` writes it, or ValueError."""
    out: list[tuple[int, int]] = []
    last = (-1, -1)
    for u, v in pairs:
        if type(u) is not int or type(v) is not int or not 0 <= u < v:
            raise ValueError(f"pair {[u, v]} is not two integers 0 <= u < v")
        if (u, v) <= last:
            raise ValueError(f"pair {[u, v]} breaks its batch's ascending order")
        last = (u, v)
        out.append(last)
    if not out:
        raise ValueError("empty batch")
    return out


def _check_inputs(current: Graph, r: int, host: Graph) -> None:
    if r < 3:
        raise ValueError(f"process order r must be at least 3, got {r}")
    if current.n != host.n:
        raise ValueError("current and host must share the vertex set")
    if not current.is_subgraph_of(host):
        raise ValueError("current graph has an edge outside the host")


def step_kr(current: Graph, r: int, host: Graph) -> list[tuple[int, int]]:
    """One synchronous step: all host edges whose insertion creates a new K_r.

    This is ``start_scan`` with the host edges still missing as its budget."""
    _check_inputs(current, r, host)
    missing = host.edge_count() - current.edge_count()
    return start_scan(current.adj, host.adj, r, missing)


def start_scan(
    adj: list[int], host_adj: list[int], r: int, budget: int
) -> list[tuple[int, int]]:
    """The clique-first start scan: the host pairs eligible in ``adj``, sorted.

    It enumerates each (r-2)-clique Q once (``graphs.near_cliques``) and
    collects the non-adjacent host pairs inside the AND of Q's rows.  Two
    work counts run against ``budget``: the partial and whole cliques the
    enumeration visits, and for each clique, before any pair is taken from
    it, c + C(c, 2) for an AND of c vertices, which bounds the pairs it can
    give.  Once either passes ``budget``, the scan is abandoned for the row
    scan, ``eligible`` over ``graphs.partner_rows``, so a dense start falls
    back at its first large AND; both paths give the same batch.
    """
    try:
        return _clique_pairs(adj, host_adj, r - 2, budget)
    except OverBudget:
        pass
    # outside the except clause, so the abandoned pairs are freed first
    return eligible(adj, r, partner_rows(adj, host_adj, r - 2))


def _clique_pairs(
    adj: list[int], host_adj: list[int], k: int, budget: int
) -> list[tuple[int, int]]:
    """``start_scan``'s clique-first path; raises ``OverBudget``."""
    found: set[tuple[int, int]] = set()
    work = 0
    for _, common in near_cliques(adj, k, budget=budget):
        c = common.bit_count()
        work += c + c * (c - 1) // 2
        if work > budget:
            raise OverBudget
        for a in iter_bits(common):
            partners = (common & host_adj[a] & ~adj[a]) >> (a + 1)
            for b in iter_bits(partners):
                found.add((a, a + 1 + b))
    return sorted(found)


def eligible(
    adj: list[int], r: int, rows: Iterable[tuple[int, int]]
) -> list[tuple[int, int]]:
    """The row scan: pairs (u, v) from ``rows`` whose edge closes a K_r.

    ``rows`` yields ``(u, mask of candidate partners)`` in ascending u, from
    ``graphs.partner_rows`` (``start_scan``'s fallback and ``run``'s bail-out
    scans) or from a host's own rows, ``enumerate(host.adj)``, which are a
    full scan.  Partners v <= u and pairs already in ``adj`` are
    dropped here, and each pair needs r-2 common neighbours, so a mask may
    hold more than the eligible partners but must hold all of them.  The
    batch comes out sorted.
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
            if common.bit_count() >= k and has_clique_rows(adj, common, k):
                batch.append((u, v))
    return batch


def eligible_after(
    adj: list[int], host_adj: list[int], r: int, batch: list[tuple[int, int]]
) -> list[tuple[int, int]]:
    """The anchored step: the host pairs eligible once ``batch`` is in ``adj``.

    ``batch`` must be the whole step just applied, so no pair outside it was
    eligible before it, and a K_r that a pair closes now contains some batch
    edge (u, v).  Let C = N(u) & N(v).  Either (only for r >= 4) the pair
    (a, b) lies inside C and needs an (r-4)-clique in C & N(a) & N(b), or it
    is (x, w) with
    {x, y} = {u, v} and w in N(y) - N(x), and needs an (r-3)-clique in
    C & N(w).  Returns the pairs sorted, each once.
    """
    found: set[tuple[int, int]] = set()
    for u, v in batch:
        c = adj[u] & adj[v]
        if r >= 4:
            k = r - 4
            for a in iter_bits(c):
                rest = c & adj[a]
                for b in iter_bits((c & host_adj[a] & ~adj[a]) >> (a + 1)):
                    b += a + 1
                    if (a, b) in found:
                        continue
                    common = rest & adj[b]
                    if common.bit_count() >= k and has_clique_rows(adj, common, k):
                        found.add((a, b))
        k = r - 3
        for x, y in ((u, v), (v, u)):
            for w in iter_bits(adj[y] & host_adj[x] & ~adj[x] & ~(1 << x)):
                e = (x, w) if x < w else (w, x)
                if e in found:
                    continue
                common = c & adj[w]
                if common.bit_count() >= k and has_clique_rows(adj, common, k):
                    found.add(e)
    return sorted(found)


def _anchored_is_cheaper(
    adj: list[int], batch: list[tuple[int, int]], missing: int
) -> bool:
    """Cost gate for ``eligible_after``: its pair count, quadratic in the
    common-neighbourhood sizes, against ``missing``, the host edges not yet in
    the graph, which bounds a full scan's work."""
    est = 0
    for u, v in batch:
        c = (adj[u] & adj[v]).bit_count()
        est += c * (c - 1) // 2 + adj[u].bit_count() + adj[v].bit_count()
        if est > 2 * missing:
            return False
    return True


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
    adj = current.adj
    missing = host.edge_count() - start.edge_count()
    steps: list[list[tuple[int, int]]] = []
    batch = start_scan(adj, host.adj, r, missing)
    truncated = False
    # an empty batch means stabilized; never truncated, even at the exact budget
    while batch:
        if len(steps) >= max_steps:
            truncated = True
            break
        # kernel pairs are host pairs with u < v, and the start lies in the host
        for u, v in batch:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        steps.append(batch)
        missing -= len(batch)
        if _anchored_is_cheaper(adj, batch, missing):
            batch = eligible_after(adj, host.adj, r, batch)
        else:
            batch = eligible(adj, r, partner_rows(adj, host.adj, r - 2))

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
