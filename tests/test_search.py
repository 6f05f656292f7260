from __future__ import annotations

import copy
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krboot import search
from krboot.engine import run
from krboot.graphs import Graph, cone
from krboot.search import (
    _edge_list,
    _rule,
    _walk,
    max_running_time,
    max_running_time_sampled,
)

# rows of the first slowest starts: in binary-counter order for n=6 and 7, in
# each seed's RNG order for the K_8 samples
WITNESS_N6 = {
    3: [40, 20, 10, 5, 2, 1],
    4: [58, 45, 26, 7, 5, 3],
    5: [62, 61, 43, 23, 11, 7],
}
WITNESS_N7 = {
    3: [40, 20, 10, 5, 2, 1, 0],
    4: [120, 92, 58, 7, 7, 5, 3],
    5: [126, 117, 91, 53, 15, 11, 7],
}
SLOWEST_STARTS = {(6, 4): 1800, (6, 5): 360, (7, 4): 59220, (7, 5): 26460, (7, 6): 1050}
WITNESS_SAMPLED_K8_R4 = [  # max_running_time_sampled(8, 4, 2000, seed), seeds 0..15
    [232, 24, 208, 147, 46, 145, 5, 45],
    [58, 9, 104, 199, 193, 69, 60, 24],
    [140, 176, 113, 193, 134, 134, 12, 59],
    [162, 85, 106, 116, 10, 13, 142, 65],
    [138, 121, 208, 67, 38, 18, 142, 69],
    [210, 49, 40, 100, 131, 142, 137, 113],
    [200, 248, 112, 19, 46, 22, 7, 3],
    [88, 164, 242, 161, 133, 14, 5, 30],
    [76, 24, 129, 163, 226, 216, 49, 60],
    [184, 180, 26, 69, 7, 195, 40, 35],
    [108, 84, 27, 21, 142, 193, 35, 48],
    [142, 193, 49, 209, 76, 132, 26, 43],
    [96, 196, 146, 176, 108, 25, 147, 78],
    [76, 20, 83, 113, 142, 136, 141, 112],
    [94, 33, 137, 197, 129, 194, 41, 60],
    [138, 33, 88, 149, 108, 210, 52, 41],
]


def test_exhaustive_known_values_r3():
    # slowest-start times over all graphs on n vertices, r=3
    assert max_running_time(3, 3).max_time == 1
    assert max_running_time(4, 3).max_time == 2
    assert max_running_time(5, 3).max_time == 2
    assert max_running_time(6, 3).max_time == 3


def test_exhaustive_known_values_r4():
    assert max_running_time(4, 4).max_time == 1
    assert max_running_time(5, 4).max_time == 2
    assert max_running_time(6, 4).max_time == 3


def test_exhaustive_examines_every_start():
    res = max_running_time(4, 3)
    assert res.exhaustive
    assert res.graphs_examined == 2 ** 6
    assert res.n == 4 and res.r == 3


def test_witness_actually_attains_the_maximum():
    # the maximum is over all starts; the witness need not percolate
    for n, r in ((4, 3), (5, 3), (5, 4)):
        res = max_running_time(n, r)
        host = Graph.complete(n)
        trace = run(res.witness_start, r, host)
        assert trace.running_time == res.max_time


def test_witnesses_keep_the_first_slowest_start():
    # ties go to the first start met: binary-counter order, or the RNG's order
    assert max_running_time(5, 3).witness_start.adj == [10, 5, 2, 1, 0]
    assert max_running_time(5, 4).witness_start.adj == [30, 21, 11, 5, 3]
    res = max_running_time_sampled(6, 4, 200, seed=7)
    assert res.witness_start.adj == [28, 24, 57, 39, 7, 12]
    for r, rows in WITNESS_N6.items():
        assert max_running_time(6, r).witness_start.adj == rows
    for seed, rows in enumerate(WITNESS_SAMPLED_K8_R4):
        res = max_running_time_sampled(8, 4, 2000, seed)
        assert res.max_time == 5
        assert res.witness_start.adj == rows


def start_of(n: int, mask: int) -> Graph:
    return Graph.from_edges(n, [e for i, e in enumerate(_edge_list(n)) if mask >> i & 1])


def engine_times(n: int, r: int, masks) -> list[int]:
    host = Graph.complete(n)
    return [run(start_of(n, mask), r, host).running_time for mask in masks]


def sliced(n: int, r: int, masks: list[int]) -> tuple[int, int, int]:
    """``_walk`` over ``masks`` together: bit s of column e is edge e of masks[s]."""
    cols = [sum((m >> e & 1) << s for s, m in enumerate(masks)) for e in range(len(_edge_list(n)))]
    return _walk(cols, len(masks), _rule(n, r))


def test_search_kernel_matches_engine_on_every_start():
    for n in range(1, 6):
        masks = list(range(1 << len(_edge_list(n))))
        for r in (3, 4, 5):
            times = engine_times(n, r, masks)
            for mask, t in zip(masks, times):
                assert sliced(n, r, [mask]) == (t, 1, t + 1)
            slowest = max(times)
            last = sum(1 << s for s, t in enumerate(times) if t == slowest)
            assert sliced(n, r, masks) == (slowest, last, sum(times) + len(times))
            assert max_running_time(n, r).slowest_starts == times.count(slowest)


def test_search_kernel_matches_engine_on_random_starts_at_r6():
    # r = 6 closers join four legs and six inner edges
    rng = random.Random(6)
    for n in (6, 7):
        masks = [rng.getrandbits(len(_edge_list(n))) for _ in range(300)]
        times = engine_times(n, 6, masks)
        slowest = max(times)
        last = sum(1 << s for s, t in enumerate(times) if t == slowest)
        assert sliced(n, 6, masks) == (slowest, last, sum(times) + len(times))


def test_exhaustive_counts_the_slowest_starts():
    # n <= 5 is checked against engine.run over every start above
    for (n, r), want in SLOWEST_STARTS.items():
        assert max_running_time(n, r).slowest_starts == want


def test_exhaustive_results_do_not_depend_on_the_block_size(monkeypatch):
    def result(n, r):
        res = max_running_time(n, r)
        return res.max_time, res.witness_start, res.kernel_scans, res.slowest_starts

    cases = [(6, 4), (6, 5), (7, 4), (7, 6)]
    want = [result(n, r) for n, r in cases]
    monkeypatch.setattr(search, "_BLOCK_BITS", 12)  # 8 blocks at n=6, 512 at n=7
    assert [result(n, r) for n, r in cases] == want


def test_exhaustive_kernel_scans_count_every_step_and_the_last_scan():
    for n, r in ((4, 3), (5, 4), (5, 5)):
        masks = range(1 << len(_edge_list(n)))
        res = max_running_time(n, r)
        assert res.kernel_scans == sum(engine_times(n, r, masks)) + len(masks)


def test_exhaustive_n7_witnesses_are_the_first_slowest_starts():
    for (r, rows), want in zip(WITNESS_N7.items(), (3, 4, 3)):
        res = max_running_time(7, r)
        assert res.max_time == want
        assert res.witness_start.adj == rows


@pytest.mark.slow
def test_exhaustive_n8_matches_the_theorems():
    # M_3(n) = ceil(log2(n - 1)) and M_4(n) = n - 3
    assert max_running_time(8, 3).max_time == 3
    assert max_running_time(8, 4).max_time == 5


def plain_sampled_loop(n: int, r: int, samples: int, seed: int) -> tuple[int, Graph, int, int]:
    """The first slowest of ``samples`` draws, one ``engine.run`` each, the
    sum of running time + 1 over the draws, and how many draws are slowest."""
    rng = random.Random(seed)
    pairs = len(_edge_list(n))
    best_time, best, scans, slowest = -1, None, 0, 0
    for _ in range(samples):
        start = start_of(n, rng.getrandbits(pairs))
        t = run(start, r, Graph.complete(n)).running_time
        scans += t + 1
        if t > best_time:
            best_time, best, slowest = t, start, 0
        slowest += t == best_time
    return best_time, best, scans, slowest


def sampled(n: int, r: int, samples: int, seed: int) -> tuple[int, Graph, int, int]:
    res = max_running_time_sampled(n, r, samples, seed)
    return res.max_time, res.witness_start, res.kernel_scans, res.slowest_starts


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 7),
    st.integers(3, 6),
    st.integers(1, 64),
    st.integers(-(2**64), 2**64),
)
def test_sampled_search_equals_a_plain_loop(n, r, samples, seed):
    assert sampled(n, r, samples, seed) == plain_sampled_loop(n, r, samples, seed)


def test_sampled_search_matches_a_plain_loop_across_bytes(monkeypatch):
    # a block's samples come from one getrandbits call in 32-bit words, and
    # getrandbits(C(n,2)) keeps the high C(n,2) % 32 bits of a sample's last
    # word: n=8 keeps 28 bits of one word, n=9 36 bits of two (28 dropped),
    # n=12 and n=22 end inside their last word, n=64 fills 63 words with
    # nothing dropped, and a block and 76 samples make two blocks; a small
    # block keeps the plain loop short
    monkeypatch.setattr(search, "_SAMPLE_BLOCK", 4096)
    two_blocks = search._SAMPLE_BLOCK + 76
    for n, r, samples in (
        (8, 4, two_blocks),
        (9, 4, 200),
        (9, 5, 100),
        (12, 3, 60),
        (12, 5, 40),
        (22, 3, 30),
        (64, 3, 4),
    ):
        assert sampled(n, r, samples, n + r) == plain_sampled_loop(n, r, samples, n + r)


# the transposition the sampled search used before its delta swaps, kept as
# the oracle: a strided slice of each column's bytes from the last chunk down,
# mapped to b"0" or b"1" by the byte's bit and parsed by int(..., 2)
DIGITS = [(b"0" * (1 << j) + b"1" * (1 << j)) * (128 >> j) for j in range(8)]


def text_columns(draw: int, words: int, size: int, pos: list[int]) -> list[int]:
    width = 4 * words
    data = draw.to_bytes(width * size, "little")
    end = width * (size - 1)
    return [int(data[end + (p >> 3) :: -width].translate(DIGITS[p & 7]), 2) for p in pos]


def chunk_positions(n: int) -> tuple[int, list[int]]:
    """Words per sample, and each edge's bit in a sample's chunk."""
    pairs = len(_edge_list(n))
    words = (pairs + 31) // 32
    drop = 32 * words - pairs
    return words, [e if e < pairs + drop - 32 else e + drop for e in range(pairs)]


def test_delta_swap_columns_equal_the_text_transposition():
    # words = 1, 1, 1, 2, 3, 8, 63 with drop = 31, 29, 4, 28, 30, 25, 0, and
    # blocks that end inside, on and past an 8-chunk tile
    rng = random.Random(23)
    for n in (2, 3, 8, 9, 12, 22, 64):
        words, pos = chunk_positions(n)
        for size in (1, 7, 8, 9, 1000):
            draw = rng.getrandbits(32 * words * size)
            assert search._columns(draw, words, size, pos) == text_columns(draw, words, size, pos)


def test_sampled_search_on_one_vertex_and_one_edge():
    for n, samples, seed in ((1, 5, 0), (1, 1, 3), (2, 9, 0), (2, 40, 4)):
        res = max_running_time_sampled(n, 3, samples, seed)
        assert (res.max_time, res.kernel_scans, res.slowest_starts) == (0, samples, samples)
        # every start ties at 0 steps, so the witness is the first draw
        assert res.witness_start == start_of(n, random.Random(seed).getrandbits(n - 1))
        assert sampled(n, 3, samples, seed) == plain_sampled_loop(n, 3, samples, seed)


def test_the_cached_tile_masks_are_shared_and_left_unchanged():
    assert search._tile_masks(1, 5000) is search._tile_masks(1, 5000)
    before = search._tile_masks(1, 5000)
    max_running_time_sampled(8, 4, 5000, 1)
    assert search._tile_masks(1, 5000) is before
    assert before == search._tile_masks.__wrapped__(1, 5000)


def test_a_patched_block_size_never_reuses_masks_of_another(monkeypatch):
    cached, seen = search._tile_masks, []

    def spy(words, rows):
        seen.append(rows)
        masks = cached(words, rows)
        assert masks == cached.__wrapped__(words, rows)
        return masks

    monkeypatch.setattr(search, "_tile_masks", spy)
    want = plain_sampled_loop(9, 4, 300, 2)
    for block, rows in ((1, [8] * 300), (64, [64] * 4 + [48]), (100, [104] * 3), (1000, [304])):
        monkeypatch.setattr(search, "_SAMPLE_BLOCK", block)
        seen.clear()
        assert sampled(9, 4, 300, 2) == want
        assert seen == rows


def test_a_sampled_block_draws_at_most_2_to_the_23_bits(monkeypatch):
    # 2^15 samples up to n = 23 (8 words each), fewer past it
    sizes = []

    def spy(n, r, blocks, examined, exhaustive):  # draws every block, walks none
        sizes.extend(size for _, size, _ in blocks)

    monkeypatch.setattr(search, "_slowest", spy)
    for n, block in ((23, 1 << 15), (24, 29127), (64, 4161)):
        sizes.clear()
        max_running_time_sampled(n, 3, 2 * block + 1, 0)
        assert sizes == [block, block, 1]


def test_sampled_results_do_not_depend_on_the_block_size(monkeypatch):
    def results():
        return [sampled(8, 4, 20000, seed) for seed in range(4)]

    monkeypatch.setattr(search, "_SAMPLE_BLOCK", 1000)  # 20 blocks
    want = results()
    for block in (4096, 1 << 15):  # 5 blocks, and one
        monkeypatch.setattr(search, "_SAMPLE_BLOCK", block)
        assert results() == want


def test_the_cached_rule_is_shared_and_left_unchanged():
    assert _rule(6, 4) is _rule(6, 4)
    assert _rule(8, 4) is _rule(8, 4)
    before = copy.deepcopy(_rule(6, 4)), copy.deepcopy(_rule(8, 4))
    max_running_time(6, 4)
    max_running_time_sampled(8, 4, 5000, 1)
    assert (_rule(6, 4), _rule(8, 4)) == before


@pytest.mark.parametrize("n, r", [(3, 3), (6, 3), (6, 4), (7, 5), (8, 6)])
def test_the_cached_rule_holds_its_closers_in_tuples(n, r):
    rests = [rest for _, closers in _rule(n, r) for _, rest in closers]
    assert all(type(rest) is tuple for rest in rests)
    if r == 3:
        assert all(rest == () for rest in rests)


def test_sampled_kernel_scans_count_every_step_and_the_last_scan():
    n, r, samples, seed = 7, 4, 300, 5
    rng = random.Random(seed)
    host = Graph.complete(n)
    edges = _edge_list(n)
    want = 0
    for _ in range(samples):
        mask = rng.getrandbits(len(edges))
        start = Graph.from_edges(n, [e for i, e in enumerate(edges) if mask >> i & 1])
        want += run(start, r, host).running_time + 1
    res = max_running_time_sampled(n, r, samples, seed)
    assert res.kernel_scans == want
    assert res.kernel_scans > samples


def test_exhaustive_bounds():
    with pytest.raises(ValueError):
        max_running_time(9, 3)
    with pytest.raises(ValueError):
        max_running_time(0, 3)
    with pytest.raises(ValueError):
        max_running_time(4, 2)
    with pytest.raises(ValueError, match="n >= 1"):
        max_running_time_sampled(0, 3, 1, 0)
    with pytest.raises(ValueError, match="r >= 3"):
        max_running_time_sampled(4, 2, 1, 0)


def test_sampled_is_a_lower_bound_and_deterministic():
    a = max_running_time_sampled(5, 4, samples=1024, seed=0)
    b = max_running_time_sampled(5, 4, samples=1024, seed=0)
    assert a.max_time == 2  # matches the exhaustive optimum for this size
    assert b.max_time == a.max_time
    assert a.witness_start == b.witness_start
    assert not a.exhaustive
    assert a.graphs_examined == 1024
    assert a.max_time <= max_running_time(5, 4).max_time


def test_sampled_seed_changes_the_walk():
    a = max_running_time_sampled(6, 3, samples=32, seed=1)
    b = max_running_time_sampled(6, 3, samples=32, seed=2)
    # both are valid lower bounds regardless of what they find
    exact = max_running_time(6, 3).max_time
    assert 0 <= a.max_time <= exact
    assert 0 <= b.max_time <= exact


def test_sampled_witness_replays():
    res = max_running_time_sampled(6, 4, samples=200, seed=7)
    trace = run(res.witness_start, 4, Graph.complete(6))
    assert trace.running_time == res.max_time


def test_sampled_requires_positive_samples():
    with pytest.raises(ValueError):
        max_running_time_sampled(5, 3, samples=0, seed=0)


def test_coning_does_not_shrink_running_time():
    # lifting the slowest witness into r+1 preserves its schedule
    for n, r in ((4, 3), (5, 3), (5, 4)):
        res = max_running_time(n, r)
        lifted = cone(res.witness_start)
        trace = run(lifted, r + 1, Graph.complete(n + 1))
        assert trace.running_time >= res.max_time
