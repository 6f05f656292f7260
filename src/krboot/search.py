"""Longest-running start graphs inside a complete host, by exhaustion or sampling.

A start graph is a mask over K_n's lexicographic edge list.  Both searches
walk many starts at once, bit-sliced: the state holds one big int per edge of
K_n, whose bit s says whether the edge is present in start s's current graph.
A pair (u, v) closes a K_r through each (r-2)-set Q of the other vertices, so
one step ORs into each pair's int the starts in which every edge from u and v
to Q and inside Q is present (``_walk``).  Every start steps under the same
rule, so the starts changed at step t are exactly those that run for t steps
or more: the slowest running time T is the number of non-empty changed sets,
and the starts that take T steps are the bits of the last one.

The exhaustive search walks the 2^C(n,2) starts in binary-counter order, in
blocks of 2^20 starts: in a block the low 20 edges carry the counter's
periodic bit patterns, built by doubling, and the higher edges are constant.
The sampled search walks blocks of up to 2^15 samples, and of at most 2^23
drawn bits, and draws each block with one ``getrandbits(32 * words * size)``,
``words`` being the 32-bit words in C(n,2) bits.  It gets the same samples as
a plain loop of ``getrandbits(C(n,2))`` calls: both take ``words`` words of
the generator per sample and place them least significant first, and the
plain call shifts its last word right by 32 - C(n,2) % 32 (when that is not
32), keeping its high bits.  So sample i is chunk i of the block draw, W =
32 * words bits wide, with the edges of its last word read that many bits
higher.  The draw is turned into edge columns by transposing each tile of 8
chunks by 8 bits in place, all tiles at once, with three masked delta swaps
(Hacker's Delight, 7-3).  Byte k of a tile's row b then holds bit 8k + b of
each of the tile's 8 chunks, so an edge's column is one strided slice of the
little-endian bytes.

Both searches only check their arguments and produce their blocks; one
block loop, ``_slowest``, walks them and builds the result.  Within a block
the lowest bit of the last changed set is its first slowest start, and a
block replaces the leader only if it is strictly slower, so ties go to the
first slowest start in binary-counter order or to the first slowest start
drawn.  The slowest starts are counted over the blocks as they run.  The
reported maximum is re-run through ``engine.run`` as a confirmation before
being returned.
"""
from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations
from typing import Callable, Iterable, NamedTuple

from . import engine
from .graphs import Graph

_MAX_EXHAUSTIVE_N = 8  # 2^28 starts: 256 blocks
_BLOCK_BITS = 20  # 2^20 exhaustive starts per block
_SAMPLE_BLOCK = 1 << 15  # samples transposed and walked at once, at most
_SAMPLE_BITS = 1 << 23  # and bits drawn per sampled block, at most

Rule = list[tuple[list[tuple[int, int]], list[tuple[int, tuple[int, ...]]]]]
Block = tuple[list[int], int, Callable[[int], int]]  # columns, size, start_of


class MaxTimeResult(NamedTuple):
    """``kernel_scans`` is the sum of running time + 1 over the starts
    examined: one step per edge batch, plus the step that finds none.
    ``slowest_starts`` counts the starts examined that take ``max_time``
    steps; a start drawn twice counts twice."""

    n: int
    r: int
    max_time: int
    witness_start: Graph
    graphs_examined: int
    exhaustive: bool
    kernel_scans: int
    slowest_starts: int


def _edge_list(n: int) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


@lru_cache(maxsize=8)
def _rule(n: int, r: int) -> Rule:
    """For each pair (u, v) of K_n, in edge-list order: its legs (uw, vw), one
    for each other vertex w, and its closers, one for each (r-2)-set Q of
    those w.  A closer is flat, ``(first, rest)``, over the pair's operand
    list: the legs' ANDs, one per w, followed by the state, one per edge.
    ``first`` is Q's first leg and ``rest`` indexes Q's other legs and then
    the edges inside Q, shifted past the legs; for r = 3 it is the empty
    tuple.  Edges are edge-list indices.  The rule is cached and shared, and
    its closers are tuples, so callers only read it."""
    edges = _edge_list(n)
    index = {}
    for i, (u, v) in enumerate(edges):
        index[u, v] = index[v, u] = i
    rule = []
    for u, v in edges:
        others = [w for w in range(n) if w != u and w != v]
        legs = [(index[u, w], index[v, w]) for w in others]
        off = len(legs)
        closers = [
            (q[0], (*q[1:], *(off + index[others[a], others[b]] for a, b in combinations(q, 2))))
            for q in combinations(range(off), r - 2)
        ]
        rule.append((legs, closers))
    return rule


def _walk(state: list[int], starts: int, rule: Rule) -> tuple[int, int, int]:
    """Step the bit-sliced ``state`` of ``starts`` starts to stabilization.

    Returns the slowest running time T, the bits of the starts that take T
    steps (every start when T is 0), and the sum of running time + 1 over all
    starts.  Only the starts changed by the last step can change again, so
    each pair is decided for those of them that still miss it.
    """
    active = last = (1 << starts) - 1
    t, scans = 0, starts
    while True:
        new = state[:]
        changed = 0
        for e, (legs, closers) in enumerate(rule):
            need = active ^ (active & state[e])  # active & ~state[e], with no negative int
            if not need:
                continue
            ops = [need & state[uw] & state[vw] for uw, vw in legs]
            ops += state
            add = 0
            for first, rest in closers:
                a = ops[first]
                for i in rest:
                    a &= ops[i]
                add |= a
            if add:
                new[e] |= add
                changed |= add
        if not changed:
            return t, last, scans
        state = new
        active = last = changed
        t += 1
        scans += changed.bit_count()


def _slowest(
    n: int, r: int, blocks: Iterable[Block], examined: int, exhaustive: bool
) -> MaxTimeResult:
    """Walk each ``(columns, size, start_of)`` block of starts and keep the
    slowest; ``start_of(i)`` is the edge mask of the block's start i.  The
    witness is replayed through ``engine.run``, which shares no code with the
    bit-sliced walk."""
    rule = _rule(n, r)
    best_time, best_mask, slowest, scans = -1, 0, 0, 0
    for columns, size, start_of in blocks:
        t, last, s = _walk(columns, size, rule)
        scans += s
        if t > best_time:
            best_time, best_mask, slowest = t, start_of((last & -last).bit_length() - 1), 0
        if t == best_time:
            slowest += last.bit_count()
        del columns, start_of  # free this block's columns and draw before the next is made
    witness = Graph.from_edges(n, (e for i, e in enumerate(_edge_list(n)) if best_mask >> i & 1))
    trace = engine.run(witness, r, Graph.complete(n))
    if trace.truncated or trace.running_time != best_time:
        raise AssertionError(f"engine replay got {trace.running_time}, search said {best_time}")
    return MaxTimeResult(n, r, best_time, witness, examined, exhaustive, scans, slowest)


def max_running_time(n: int, r: int) -> MaxTimeResult:
    """Exact maximum running time over all 2^C(n,2) start graphs; n <= 8."""
    if not 1 <= n <= _MAX_EXHAUSTIVE_N:
        raise ValueError(f"exhaustive search is limited to 1 <= n <= {_MAX_EXHAUSTIVE_N}")
    if r < 3:
        raise ValueError("need r >= 3")
    pairs = n * (n - 1) // 2
    low = min(pairs, _BLOCK_BITS)
    size = 1 << low
    counter = []  # bit s of column i is bit i of s
    for i in range(low):
        col, period = ((1 << (1 << i)) - 1) << (1 << i), 2 << i
        while period < size:
            col |= col << period
            period <<= 1
        counter.append(col)
    full = (1 << size) - 1

    def blocks():
        for block in range(1 << (pairs - low)):
            high = [full if block >> i & 1 else 0 for i in range(pairs - low)]
            yield counter + high, size, lambda i, block=block: block << low | i

    return _slowest(n, r, blocks(), 1 << pairs, exhaustive=True)


@lru_cache(maxsize=4)
def _tile_masks(words: int, rows: int) -> tuple[int, int, int]:
    """The delta-swap masks for j = 4, 2, 1 over ``rows`` chunks of ``words``
    32-bit words: bit p of chunk i is set where i & j == 0 and p & j != 0.
    The pattern repeats every 8 chunks, and p & j depends only on p % 8, so
    a chunk's mask is one byte repeated.  The masks are cached and shared, so
    callers only read them."""
    width = 4 * words  # bytes per chunk
    masks = []
    for j, byte in ((4, b"\xf0"), (2, b"\xcc"), (1, b"\xaa")):
        tile = b"".join(bytes(width) if i & j else byte * width for i in range(8))
        masks.append(int.from_bytes(tile * (rows // 8), "little"))
    return tuple(masks)


def _columns(draw: int, words: int, size: int, pos: list[int]) -> list[int]:
    """Bit i of column e is bit ``pos[e]`` of chunk i of ``draw``, ``size``
    chunks of ``words`` 32-bit words each, least significant first."""
    if not words:
        return []
    width = 4 * words  # bytes per chunk
    rows = (size + 7) & -8  # whole 8-chunk tiles
    x = draw
    # swap bit p of chunk i with bit p - j of chunk i + j, for i & j == 0 and
    # p & j != 0: the two sit (32 * words - 1) * j bits apart
    for j, mask in zip((4, 2, 1), _tile_masks(words, rows)):
        d = (32 * words - 1) * j
        t = (x ^ (x >> d)) & mask
        x ^= t ^ (t << d)
    # bit a of byte k in tile row b is now bit 8k + b of the tile's chunk a
    data = x.to_bytes(width * rows, "little")
    return [int.from_bytes(data[width * (p & 7) + (p >> 3) :: 8 * width], "little") for p in pos]


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
    words = (pairs + 31) // 32  # 32-bit words per sample
    bits = 32 * words  # chunk width W
    # getrandbits(pairs) keeps the high pairs % 32 bits of its last word, so
    # the edges in that word sit ``drop`` bits higher in a sample's chunk
    drop = bits - pairs
    pos = [e if e < pairs + drop - 32 else e + drop for e in range(pairs)]
    block = min(_SAMPLE_BLOCK, _SAMPLE_BITS // max(bits, 1))

    def blocks():
        for lo in range(0, samples, block):
            size = min(block, samples - lo)
            draw = rng.getrandbits(bits * size)

            def start_of(i: int, draw: int = draw) -> int:
                chunk = draw >> (bits * i) & ((1 << bits) - 1)
                return sum(1 << e for e, p in enumerate(pos) if chunk >> p & 1)

            yield _columns(draw, words, size, pos), size, start_of

    return _slowest(n, r, blocks(), samples, exhaustive=False)
