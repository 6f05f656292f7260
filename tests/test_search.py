from __future__ import annotations

import random

import pytest

from krboot.engine import run
from krboot.graphs import Graph, cone
from krboot.search import (
    _edge_list,
    _row_builder,
    _running_time_complete_host,
    _time_table,
    max_running_time,
    max_running_time_sampled,
)

# rows of the first slowest starts: in binary-counter order for n=6, in each
# seed's RNG order for the K_8 samples
WITNESS_N6 = {
    3: [40, 20, 10, 5, 2, 1],
    4: [58, 45, 26, 7, 5, 3],
    5: [62, 61, 43, 23, 11, 7],
}
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


def test_search_kernel_matches_engine_on_every_start():
    n = 5
    edges = _edge_list(n)
    host = Graph.complete(n)
    rows_of = _row_builder(n)
    for r in (3, 4):
        for mask in range(1 << len(edges)):
            start = Graph.from_edges(n, [e for i, e in enumerate(edges) if mask >> i & 1])
            adj = rows_of(mask)
            assert adj == start.adj
            t = _running_time_complete_host(adj, list(enumerate(host.adj)), r)
            assert t == run(start, r, host).running_time


def test_row_builder_matches_the_edge_list_across_bytes():
    # n=8 has 28 edges, four table lookups; n=21 has 27 lookups, n=1 has none;
    # n=22 is past the tables and builds its rows edge by edge
    rng = random.Random(3)
    for n in (1, 2, 4, 7, 8, 21, 22):
        edges = _edge_list(n)
        rows_of = _row_builder(n)
        masks = [0, (1 << len(edges)) - 1] + [rng.getrandbits(len(edges)) for _ in range(200)]
        for mask in masks:
            start = Graph.from_edges(n, [e for i, e in enumerate(edges) if mask >> i & 1])
            assert rows_of(mask) == start.adj


def test_time_table_equals_the_walk_on_every_start():
    for n in range(1, 6):
        rows_of = _row_builder(n)
        host_rows = list(enumerate(Graph.complete(n).adj))
        for r in (3, 4, 5):
            times, _ = _time_table(n, r)
            assert len(times) == 1 << len(_edge_list(n))
            for mask, t in enumerate(times):
                assert t == _running_time_complete_host(rows_of(mask), host_rows, r)


def test_exhaustive_makes_one_kernel_scan_per_start():
    for n, r in ((4, 3), (5, 4), (6, 5)):
        res = max_running_time(n, r)
        assert res.kernel_scans == res.graphs_examined == 2 ** (n * (n - 1) // 2)


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
        max_running_time(8, 3)
    with pytest.raises(ValueError):
        max_running_time(0, 3)
    with pytest.raises(ValueError):
        max_running_time(4, 2)


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
