from __future__ import annotations

import pytest

from krboot.engine import run
from krboot.graphs import Graph, cone
from krboot.search import (
    _adj_from_mask,
    _edge_list,
    _running_time_complete_host,
    max_running_time,
    max_running_time_sampled,
)


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


def test_search_kernel_matches_engine_on_every_start():
    n = 5
    edges = _edge_list(n)
    host = Graph.complete(n)
    for r in (3, 4):
        for mask in range(1 << len(edges)):
            start = Graph.from_edges(n, [e for i, e in enumerate(edges) if mask >> i & 1])
            adj = _adj_from_mask(mask, edges, n)
            t = _running_time_complete_host(adj, list(enumerate(host.adj)), r)
            assert t == run(start, r, host).running_time


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
