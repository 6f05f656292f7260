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
- ``eligible`` is the row scan: for each vertex u it builds the row of u's
  non-adjacent host partners above it, cuts it to those with at least r-2
  common neighbours when that cut is cheaper than the pairs it removes, and
  probes each pair left.  It is the fallback of both clique-first scans.
- ``eligible_after`` is the anchored step of ``run``'s later steps: after a
  batch, a newly eligible pair closes a K_r through some batch edge (u, v),
  so it is clique-first too.  It enumerates the small cliques of
  N(u) & N(v) with ``graphs.near_cliques`` and takes the pairs their ANDs
  close, without probing any pair.  Like ``start_scan`` it counts its work
  against the host edges still missing and past them falls back to the
  row scan.

Both clique-first scans charge and collect each clique's AND through
``_collect_pairs``.  Every route gives the same batch.

Every clique and bit walk runs from the highest vertex down, as
``graphs.near_cliques`` and ``graphs.iter_bits`` do: a vertex is taken as
the top bit of what is left and cleared, and is extended or paired only
with the candidates left below it, so no operand of the walk is wider than
that vertex.  A walk from the bottom would touch the whole row for every
bit it takes (``mask & -mask``, or a shift past the vertex), and rows are
as wide as the graph.  The pair collector takes (a, b) with a from the AND
below b, and the row scan reverses each row's hits, so batches stay sorted.

The kernel keeps the current graph inside the host: ``_check_inputs``
refuses a start with an edge outside it, and every pair the kernel adds is a
host pair.  So ``adj[x]`` is a subset of ``host_adj[x]`` at every kernel
call, and x's non-adjacent host partners are ``host_adj[x] ^ adj[x]``,
which is one operation where ``host_adj[x] & ~adj[x]`` is two.

``run_oracle`` re-decides every step by counting complete K_r subgraphs from
scratch and shares no step logic with the kernel.
"""
from __future__ import annotations

import bisect
import functools
import itertools
import json
import operator
import re
import struct
from array import array
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from typing import Iterable

from .graphs import Graph, OverBudget, has_clique_rows, iter_bits, near_cliques


class Batches(Sequence):
    """A trace's batches, stored flat and read-only.

    ``ends`` (``array('i')``) holds every pair's endpoints in order, u0, v0,
    u1, v1, ...; ``offsets`` (``array('q')``) holds the batch boundaries
    counted in pairs, so batch t is pairs ``offsets[t]`` up to
    ``offsets[t + 1]``, and ``offsets[0]`` is 0.  A one-pair step costs 16
    bytes, where a list of tuples costs about 189.  Reading batch t builds it
    as a list of (u, v) tuples, so a batch reads, prints and compares as a
    list does; the whole sequence compares equal to another trace's batches
    and to a list of such lists.  Every batch holds at least one pair.
    """

    __slots__ = ("ends", "offsets")

    def __init__(self, batches: Iterable[list[tuple[int, int]]] = ()):
        self.ends = array("i")
        self.offsets = array("q", [0])
        for batch in batches:
            self._add(batch)

    def _add(self, batch: list[tuple[int, int]]) -> None:
        """Append one batch.  Only a trace's builders call this (``run``,
        ``from_json`` and ``__init__``); a built trace is not changed."""
        k = len(batch)
        if k == 1:  # a scaffold's replay step: extend is 2x faster than the pack
            self.ends.extend(batch[0])
        elif not k:  # a step adds an edge; the trace file has no empty batch
            raise ValueError("empty batch")
        else:
            self.ends.frombytes(struct.pack(f"{2 * k}i", *itertools.chain.from_iterable(batch)))
        self.offsets.append(self.offsets[-1] + k)

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, t):
        if isinstance(t, slice):
            return Batches(self[i] for i in range(len(self))[t])
        t = range(len(self))[t]  # negative indexes, and IndexError past the end
        return self._pairs(self.offsets[t], self.offsets[t + 1])

    def __iter__(self):
        offsets = self.offsets
        for a, b in zip(offsets, itertools.islice(offsets, 1, None)):
            yield self._pairs(a, b)

    def _pairs(self, a: int, b: int) -> list[tuple[int, int]]:
        it = iter(self.ends[2 * a : 2 * b])
        return list(zip(it, it))

    def __eq__(self, other):
        if isinstance(other, Batches):
            return self.offsets == other.offsets and self.ends == other.ends
        if isinstance(other, list):
            return len(self) == len(other) and all(a == b for a, b in zip(self, other))
        return NotImplemented

    def __repr__(self) -> str:
        return f"Batches({list(self)!r})"


@dataclass
class PercolationTrace:
    """Full record of one bootstrap run.

    ``steps[t]`` is the batch of edges added at step t+1, each batch sorted by
    (u, v).  ``steps`` is a read-only ``Batches``; a list of batches given to
    the constructor is converted to one.  ``running_time`` equals the number
    of non-empty batches; when ``truncated`` is True the run hit ``max_steps``
    first and the true running time is at least that value.  ``percolated``
    means the final graph equals the host.
    """

    steps: Batches = field(default_factory=Batches)
    running_time: int = 0
    percolated: bool = False
    truncated: bool = False
    final_edge_count: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.steps, Batches):
            self.steps = Batches(self.steps)

    def to_json(self) -> str:
        """One JSON object: the scalars, then ``steps`` as a list of batches of
        [u, v] pairs.  The bytes are those of ``json.dumps`` on the nested
        lists; they are ``json_pieces`` joined."""
        return "".join(self.json_pieces())

    def json_pieces(self) -> Iterator[str]:
        """The text of ``to_json`` in pieces: the scalars and the opening of
        ``steps``, then at most ``_CHUNK`` pairs a piece, then the closing.
        Each piece of pairs is one ``%`` over its slice of ``ends``, with a
        template cached by the piece's shape, so a run of one-pair batches
        costs one ``%`` per piece."""
        head = json.dumps({key: getattr(self, key) for key in _SCALARS})
        yield f'{head[:-1]}, "steps": ['
        ends, offsets = self.steps.ends, self.steps.offsets
        total, a, t = offsets[-1], 0, 1  # offsets[t - 1] <= a < offsets[t]
        while a < total:
            b = min(a + _CHUNK, total)
            u = bisect.bisect_left(offsets, b, t)  # offsets[t:u]: batch ends inside (a, b)
            if u - t == b - a - 1:
                cuts = None  # every pair but the last ends its batch
            else:
                cuts = tuple(map(operator.sub, offsets[t:u], itertools.repeat(a)))
            closes = offsets[u] == b
            template = _template(a == 0, offsets[t - 1] == a, closes, b - a, cuts)
            yield template % tuple(ends[2 * a : 2 * b])
            a, t = b, u + closes
        yield "]}"

    @classmethod
    def from_json(cls, text: str) -> "PercolationTrace":
        """Read back what ``to_json`` writes, and only that: the flags are JSON
        booleans, the counts integers, ``running_time`` is the number of
        batches, and each batch is a non-empty ascending list of pairs
        0 <= u < v < 2**31.  A field of another type or shape raises
        ValueError or TypeError.

        ``to_json``'s own layout is read in one pass straight into the flat
        arrays (``_read_canonical``).  Any other JSON layout, and any text
        that pass refuses, goes through ``json.loads`` with the same checks,
        which alone give the reason for a refusal."""
        read = _read_canonical(text)
        if read is not None:
            steps, scalars = read
            return cls(steps, **scalars)
        obj = json.loads(text)
        loaded = obj["steps"]
        if type(loaded) is not list:
            raise ValueError("steps must be a JSON array")
        steps = Batches()
        for t, batch in enumerate(loaded):
            loaded[t] = None  # each loaded batch goes once it is stored
            try:
                steps._add(_batch(batch))
            except (OverflowError, struct.error):
                raise ValueError(f"batch {t} has a vertex past 2**31 - 1") from None
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

# pairs per piece of trace text: ``json_pieces`` formats at most this many
# with one ``%``, and ``_read_canonical`` parses about as many at a time
_CHUNK = 4096

# ``to_json``'s layout: a JSON integer as ``json.dumps`` writes a
# non-negative one, the fixed head up to the opening of ``steps``, and a run
# of pairs, cut by ", " inside a batch and by "], [" between batches.  They
# are compiled at the first read, not at import, which they would slow by
# about 1 ms.
_INT = "(?:0|[1-9][0-9]*)"
_HEAD = (
    rf'\{{"running_time": ({_INT}), "percolated": (true|false), '
    rf'"truncated": (true|false), "final_edge_count": ({_INT}), "steps": \['
)
_PAIR = rf"\[{_INT}, {_INT}\]"
_PAIRS = rf"{_PAIR}(?:(?:, |\], \[){_PAIR})*"
_UNBRACKET = str.maketrans("[]", "  ")


@functools.lru_cache(maxsize=8)
def _template(first: bool, opens: bool, closes: bool, k: int, cuts: tuple | None) -> str:
    """The ``%`` template of ``k`` pairs of ``steps`` text: after the
    previous piece's ", " unless ``first``, opening a batch if ``opens`` and
    closing one if ``closes``, and with a batch ending after the first c
    pairs for each c in ``cuts`` (None: after every pair but the last)."""
    seps = [", "] * k  # seps[i] comes before pair i
    for c in range(1, k) if cuts is None else cuts:
        seps[c] = "], ["
    seps[0] = ("" if first else ", ") + ("[" if opens else "")
    return "[%d, %d]".join(seps) + "[%d, %d]" + ("]" if closes else "")


def _read_canonical(text: str) -> tuple[Batches, dict] | None:
    """The steps and scalars of a trace in ``to_json``'s layout, read in one
    pass, or None for any text that is not in it or fails a check.

    It walks the pairs in chunks of about ``_CHUNK`` pairs, cut after a
    pair.  Each chunk is matched whole against ``_PAIRS`` and its integers
    go into ``ends``; its batch ends come from its "]], [[" cuts.  The
    pairs are then checked over the new slice as ``_batch`` checks them:
    u < v (u >= 0 is the grammar's), and ascending order inside each batch,
    across chunk edges too.
    """
    head = re.match(_HEAD, text)
    end = len(text)
    while end and text[end - 1] in " \t\n\r":  # JSON's trailing whitespace
        end -= 1
    if head is None or not text.startswith("]}", end - 2):
        return None
    steps = Batches()
    ends, offsets = steps.ends, steps.offsets
    a, z = head.end(), end - 2  # the batches are text[a:z]
    if a < z:
        if text[a] != "[" or text[z - 1] != "]":
            return None
        a, z = a + 1, z - 1  # from the first pair's "[" to past the last pair's "]"
        total, last = 0, None  # pairs read, and the last one while its batch runs on
        grammar = re.compile(_PAIRS)  # from re's cache after the first read
        while True:
            cut = text.find("], [", a + 16 * _CHUNK, z)  # a pair's "]", or its batch's
            closes = cut < 0 or text[cut - 1] == "]"  # the chunk ends a batch
            b = z if cut < 0 else cut if closes else cut + 1  # past the chunk's last pair
            if grammar.fullmatch(text, a, b) is None:
                return None
            chunk = text[a:b]
            try:  # a flat JSON list of the chunk's integers, in C
                new = array("i", json.loads(f"[{chunk.translate(_UNBRACKET)}]"))
            except (OverflowError, ValueError):  # past 2**31 - 1, or too many digits
                return None
            k = len(new) // 2
            if not all(map(operator.lt, new[::2], new[1::2])):
                return None
            if last is not None and (new[0], new[1]) <= last:
                return None
            sizes = [s.count("], [") + 1 for s in chunk.split("]], [[")]
            starts = list(itertools.accumulate(sizes[:-1]))  # of every batch but the first
            it = iter(new)
            pairs = list(zip(it, it))
            descents = itertools.compress(
                itertools.count(1), map(operator.ge, pairs, itertools.islice(pairs, 1, None))
            )
            if not set(starts).issuperset(descents):
                return None
            offsets.extend(map(operator.add, starts, itertools.repeat(total)))
            ends += new
            total += k
            if closes:
                offsets.append(total)
            last = None if closes else (new[-2], new[-1])
            if cut < 0:
                break
            a = cut + 4 if closes else cut + 3  # the next pair's "["
    running_time, percolated, truncated, final_edge_count = head.groups()
    if running_time != str(len(steps)) or len(final_edge_count) > 4300:  # int()'s digit limit
        return None
    return steps, {
        "running_time": len(steps),
        "percolated": percolated == "true",
        "truncated": truncated == "true",
        "final_edge_count": int(final_edge_count),
    }


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


def _check_inputs(current: Graph, r: int, host: Graph, max_steps: int | None = None) -> int:
    """Refuse a bad instance; return ``max_steps``, by default C(n, 2) + 1,
    which no process can exhaust."""
    if r < 3:
        raise ValueError(f"process order r must be at least 3, got {r}")
    if current.n != host.n:
        raise ValueError("current and host must share the vertex set")
    if not current.is_subgraph_of(host):
        raise ValueError("current graph has an edge outside the host")
    if max_steps is None:
        max_steps = current.n * (current.n - 1) // 2 + 1
    if max_steps < 0:
        raise ValueError("max_steps must be non-negative")
    return max_steps


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
    enumeration visits, and ``_collect_pairs``'s charge of 1 + c + C(c, 2)
    for each clique whose AND has c vertices, taken before any pair is.
    Once either passes ``budget``, the scan is abandoned for the row scan,
    ``eligible``, so a dense start falls back at its first large AND; both
    paths give the same batch.
    """
    found: set[tuple[int, int]] = set()
    try:
        _collect_pairs(found, adj, host_adj, near_cliques(adj, r - 2, budget=budget), -1, budget)
    except OverBudget:
        found.clear()  # the abandoned pairs go before the row scan runs
        return eligible(adj, host_adj, r)
    return sorted(found)


def _collect_pairs(
    found: set[tuple[int, int]],
    adj: list[int],
    host_adj: list[int],
    cliques: Iterable[tuple[tuple[int, ...], int]],
    within: int,
    budget: int,
) -> int:
    """Add to ``found`` the host pairs (a, b), a < b, not yet edges of ``adj``,
    inside each AND that ``cliques`` (a ``graphs.near_cliques`` iterator)
    yields, cut to ``within`` (-1 keeps every vertex).  Return the work spent.

    Each AND of c vertices, once cut, costs 1 + c + C(c, 2) units, which
    bounds the pairs it can give; the cost is charged before any pair is
    taken from it, and past ``budget`` the call raises ``OverBudget``.
    """
    spent = 0
    for _, common in cliques:
        common &= within
        c = common.bit_count()
        spent += 1 + c + c * (c - 1) // 2
        if spent > budget:
            raise OverBudget
        for b in iter_bits(common):
            common ^= 1 << b  # the vertices of the AND below b
            for a in iter_bits(common & (host_adj[b] ^ adj[b])):
                found.add((a, b))
    return spent


def eligible(adj: list[int], host_adj: list[int], r: int) -> list[tuple[int, int]]:
    """The row scan: the host pairs (u, v), u < v, not in ``adj`` whose edge
    closes a K_r, sorted.

    It walks u in ascending order and builds u's row of partners: the
    non-adjacent host vertices v > u.  Such a pair needs r-2 common
    neighbours, so when u's r-2 neighbour rows cost less than its partners
    (``deg(u) * (r-2) < |row|``), the row is cut to the vertices that share
    at least r-2 neighbours with u, counted in r-2 bit-sliced saturating
    levels: ``levels[j]`` holds the vertices seen in more than j of u's
    neighbour rows.  Each pair left is probed with ``has_clique_rows`` on
    its common neighbourhood, from the row's top down, and the row's hits
    go into the batch reversed.
    """
    k = r - 2
    batch: list[tuple[int, int]] = []
    for u, au in enumerate(adj):
        base = u + 1
        cand = (host_adj[u] ^ au) >> base
        if au.bit_count() * k < cand.bit_count():
            levels = [0] * k
            for w in iter_bits(au):
                aw = adj[w]
                for j in range(k - 1, 0, -1):
                    levels[j] |= levels[j - 1] & aw
                levels[0] |= aw
            cand &= levels[-1] >> base
        hits = []
        while cand:
            b = cand.bit_length() - 1
            cand ^= 1 << b
            v = base + b
            common = au & adj[v]
            if common.bit_count() >= k and has_clique_rows(adj, common, k):
                hits.append((u, v))
        batch += reversed(hits)  # the row is walked from the top
    return batch


def eligible_after(
    adj: list[int], host_adj: list[int], r: int, batch: list[tuple[int, int]], budget: int
) -> list[tuple[int, int]]:
    """The anchored step: the host pairs eligible once ``batch`` is in ``adj``.

    ``batch`` must be the whole step just applied, so no pair outside it was
    eligible before it, and a K_r that a pair closes now contains some batch
    edge (u, v).  Let C = N(u) & N(v).  The step enumerates cliques of C
    with ``graphs.near_cliques`` instead of probing pairs.  Either (only for
    r >= 4) the pair lies inside the AND of an (r-4)-clique Q of C, among
    the vertices of C that have a non-adjacent host partner in C, or it is
    (x, w) with {x, y} = {u, v}, w in N(y) - N(x), and w adjacent to all of
    some (r-3)-clique of C.  The first enumeration is skipped when fewer
    than two vertices of C have such a partner; the second runs only over
    C's vertices adjacent to some such w, and stops once every w is reached.

    Like ``start_scan`` it counts its work against ``budget``.  Before any
    clique, from bit counts alone, it charges each batch edge |C| and
    |N(u) ^ N(v)|, which holds every candidate w, so a batch too large for
    the step costs no enumeration at all.  Then it charges each clique the
    enumerations give, the first case's through ``_collect_pairs`` (1 + c +
    C(c, 2) for an AND cut to c vertices, before any pair is taken from it);
    each enumeration also stops once its own visits pass what is left.  Past
    ``budget`` the step is abandoned for the row scan, ``eligible``; both
    paths give the same batch, sorted.
    """
    found: set[tuple[int, int]] = set()
    work = 0
    try:
        for u, v in batch:
            work += (adj[u] & adj[v]).bit_count() + (adj[u] ^ adj[v]).bit_count()
            if work > budget:
                raise OverBudget
        for u, v in batch:
            c = adj[u] & adj[v]
            # case 2's candidates w, for x = u and for x = v
            wu = adj[v] & (host_adj[u] ^ adj[u])
            wv = adj[u] & (host_adj[v] ^ adj[v])
            wuv = wu | wv
            # C's vertices with a non-adjacent host partner in C (case 1's
            # pairs lie among them), and those adjacent to some w
            inner = near = 0
            if r >= 4:
                for a in iter_bits(c):
                    if c & (host_adj[a] ^ adj[a]):
                        inner |= 1 << a
                    if adj[a] & wuv:
                        near |= 1 << a
            if inner & (inner - 1):
                cliques = near_cliques(adj, r - 4, c, budget - work)
                work += _collect_pairs(found, adj, host_adj, cliques, inner, budget - work)
            # the w adjacent to all of some (r-3)-clique of C
            reach = 0
            for q, _ in near_cliques(adj, r - 3, near, budget - work):
                work += 1
                if work > budget:
                    raise OverBudget
                row = wuv
                for a in q:
                    row &= adj[a]
                reach |= row
                if reach == wuv:
                    break
            for x, ws in ((u, wu), (v, wv)):
                for w in iter_bits(ws & reach):
                    found.add((x, w) if x < w else (w, x))
    except OverBudget:
        found.clear()  # the abandoned pairs go before the row scan runs
        return eligible(adj, host_adj, r)
    return sorted(found)


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
    max_steps = _check_inputs(start, r, host, max_steps)

    adj = start.adj.copy()
    host_edges = host.edge_count()
    missing = host_edges - start.edge_count()
    steps = Batches()
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
        steps._add(batch)
        missing -= len(batch)
        batch = eligible_after(adj, host.adj, r, batch, missing)

    # the graph stays inside the host, so ``missing`` is all that it lacks
    return PercolationTrace(
        steps=steps,
        running_time=len(steps),
        percolated=missing == 0,
        truncated=truncated,
        final_edge_count=host_edges - missing,
    )


def replay(start: Graph, trace: PercolationTrace) -> Graph:
    """Apply a trace's batches to a copy of ``start`` and return the result."""
    g = start.copy()
    it = iter(trace.steps.ends)
    for u, v in zip(it, it):
        g.add_edge(u, v)
    return g


def run_oracle(
    start: Graph, r: int, host: Graph, max_steps: int | None = None
) -> PercolationTrace:
    """Reference engine: decide each edge by counting K_r copies from scratch.

    Exponential in n; intended for cross-checking ``run`` on small instances
    (n <= 12 or so).  Produces traces that compare equal to ``run``'s.
    """
    max_steps = _check_inputs(start, r, host, max_steps)
    n = start.n

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
