from __future__ import annotations

import hashlib
import itertools
import json
import random
import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krboot import engine
from krboot.apsets import ApSet, ap_digits3
from krboot.constructions import build_chain, build_h6, build_hprime, minimal_percolating
from krboot.engine import (
    Batches,
    PercolationTrace,
    eligible,
    eligible_after,
    replay,
    run,
    run_oracle,
    start_scan,
    step_kr,
)
from krboot.graphs import Graph, cone, near_cliques


def random_instance(rng: random.Random):
    n = rng.randint(2, 8)
    r = rng.choice([3, 4, 5])
    g = Graph(n)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.5:
                g.add_edge(u, v)
    return g, r, Graph.complete(n)


def test_step_on_path_adds_both_triangle_closers():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert step_kr(g, 3, Graph.complete(4)) == [(0, 2), (1, 3)]


def test_step_fills_clique_hole_at_once():
    g = Graph.complete(6)
    for u in range(4):
        for v in range(u + 1, 4):
            g.remove_edge(u, v)
    batch = step_kr(g, 4, Graph.complete(6))
    assert batch == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def test_step_on_sparse_graph_is_empty():
    g = Graph.from_edges(5, [(0, 1)])
    assert step_kr(g, 3, Graph.complete(5)) == []


def test_step_respects_host():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    host = g.copy()
    host.add_edge(0, 2)  # (1, 3) completes a triangle but is not a host edge
    assert step_kr(g, 3, host) == [(0, 2)]


def test_engine_input_validation():
    g = Graph.from_edges(3, [(0, 1)])
    with pytest.raises(ValueError):
        step_kr(g, 2, Graph.complete(3))
    with pytest.raises(ValueError):
        step_kr(g, 3, Graph.complete(4))
    with pytest.raises(ValueError):
        run(Graph.complete(3), 3, g)  # start not inside host
    with pytest.raises(ValueError):
        run(g, 3, Graph.complete(3), max_steps=-1)


def test_run_path_trace():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    t = run(g, 3, Graph.complete(4))
    assert t.steps == [[(0, 2), (1, 3)], [(0, 3)]]
    assert t.running_time == 2
    assert t.percolated and not t.truncated
    assert t.final_edge_count == 6


def test_run_stable_start_takes_zero_steps():
    host = Graph.complete(5)
    t = run(host, 3, host)
    assert t.running_time == 0 and t.percolated and t.steps == []
    empty = run(Graph(5), 4, host)
    assert empty.running_time == 0 and not empty.percolated


def test_run_truncation_flag():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    t = run(g, 3, Graph.complete(4), max_steps=1)
    assert t.truncated and t.running_time == 1
    assert t.steps == [[(0, 2), (1, 3)]]
    t0 = run(g, 3, Graph.complete(4), max_steps=0)
    assert t0.truncated and t0.steps == []
    # a stabilized run is never marked truncated, even at the exact budget
    t2 = run(g, 3, Graph.complete(4), max_steps=2)
    assert not t2.truncated and t2.percolated


def test_minimal_percolating_fills_in_one_step():
    for n, r in [(6, 4), (7, 4), (7, 5), (8, 5)]:
        t = run(minimal_percolating(n, r), r, Graph.complete(n))
        assert t.running_time == 1 and t.percolated


def test_oracle_on_near_complete_graph():
    g = Graph.complete(4)
    g.remove_edge(1, 2)
    t = run_oracle(g, 4, Graph.complete(4))
    assert t.steps == [[(1, 2)]] and t.percolated


def test_oracle_matches_run_on_cycle():
    c5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    host = Graph.complete(5)
    assert run(c5, 3, host).to_json() == run_oracle(c5, 3, host).to_json()


def test_oracle_respects_max_steps():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    t = run_oracle(g, 3, Graph.complete(4), max_steps=1)
    assert t.truncated and t.steps == [[(0, 2), (1, 3)]]


def test_run_equals_oracle_on_random_instances():
    rng = random.Random(2024)
    for _ in range(150):
        g, r, host = random_instance(rng)
        assert run(g, r, host).to_json() == run_oracle(g, r, host).to_json()


def closing_pairs(g: Graph, r: int, host: Graph) -> list[tuple[int, int]]:
    """The rule stated pair by pair, through the clique enumerator rather
    than the row scan's ``has_clique_rows``: the host pairs (u, v), u < v,
    missing from ``g`` whose common neighbourhood holds an (r-2)-clique."""
    adj = g.adj
    return [
        (u, v)
        for u, v in itertools.combinations(range(g.n), 2)
        if host.has_edge(u, v) and not g.has_edge(u, v)
        and next(near_cliques(adj, r - 2, adj[u] & adj[v]), None) is not None
    ]


def full_scan_steps(g: Graph, r: int, host: Graph) -> list[list[tuple[int, int]]]:
    """Batches from a scan of every host pair at every step, no pruning at all."""
    g = g.copy()
    steps = []
    while batch := closing_pairs(g, r, host):
        for u, v in batch:
            g.add_edge(u, v)
        steps.append(batch)
    return steps


def sparse_instance(rng: random.Random):
    """Start and host where two-hop pruning drops pairs: isolated vertices,
    several components, or an empty start, inside a random non-complete host."""
    n = rng.randint(3, 12)
    r = rng.choice([3, 3, 4, 5])
    host = Graph(n)
    p_host = rng.choice([0.6, 0.8, 1.0])
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p_host:
                host.add_edge(u, v)
    g = Graph(n)
    kind = rng.choice(["isolated", "isolated", "components", "components", "empty"])
    if kind == "empty":
        return g, r, host
    if kind == "isolated":
        blocks = [[v for v in range(n) if rng.random() < 0.6]]
    else:
        cut = sorted(rng.sample(range(1, n), min(n - 1, rng.randint(1, 3))))
        blocks = [list(range(a, b)) for a, b in zip([0] + cut, cut + [n])]
    for block in blocks:
        for i, u in enumerate(block):
            for v in block[i + 1 :]:
                if host.has_edge(u, v) and rng.random() < 0.6:
                    g.add_edge(u, v)
    return g, r, host


def test_incremental_equals_full_scan():
    rng = random.Random(77)
    for _ in range(150):
        g, r, host = random_instance(rng)
        assert run(g, r, host).steps == full_scan_steps(g, r, host)
    c = build_chain(5)
    host = Graph.complete(c.hypergraph.n)
    assert run(c.start, 5, host).steps == full_scan_steps(c.start, 5, host)
    # step 2 needs (2, 7): 7 is a batch endpoint of (1, 7), 2 a neighbour of 1
    g = Graph.from_edges(8, [(0, 4), (0, 6), (1, 2), (1, 4), (1, 5), (1, 6), (2, 4),
                             (3, 6), (3, 7), (4, 7), (5, 6), (5, 7), (6, 7)])
    assert run(g, 4, Graph.complete(8)).steps == full_scan_steps(g, 4, Graph.complete(8))


def test_two_hop_first_step_equals_full_scan_on_sparse_starts():
    rng = random.Random(2718)
    for _ in range(400):
        g, r, host = sparse_instance(rng)
        expected = full_scan_steps(g, r, host)
        assert step_kr(g, r, host) == (expected[0] if expected else [])
        assert run(g, r, host).steps == expected
    # two triangles joined by one edge; (0, 4) has a common neighbour only after step 1
    g = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)])
    assert run(g, 3, Graph.complete(6)).steps == full_scan_steps(g, 3, Graph.complete(6))


@st.composite
def partner_instances(draw):
    """A graph on 1..40 vertices from sparse to nearly complete, a host
    holding the graph, and k in 1..4."""
    n = draw(st.integers(1, 40))
    k = draw(st.integers(1, 4))
    p = draw(st.sampled_from([0.03, 0.1, 0.3, 0.6, 0.9, 0.98]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))  # cheaper than st.randoms
    g, host = Graph(n), Graph(n)
    for u, v in itertools.combinations(range(n), 2):
        if rng.random() < p:
            g.add_edge(u, v)
        if g.has_edge(u, v) or rng.random() < 0.8:
            host.add_edge(u, v)
    return g, host, k


@settings(max_examples=300, deadline=None)
@given(partner_instances())
def test_row_scan_cut_keeps_every_closing_pair(instance):
    # sparse rows of low degree have their partners cut to the vertices with
    # k common neighbours; no pair that closes a K_{k+2} may be cut away
    g, host, k = instance
    assert eligible(g.adj, host.adj, k + 2) == closing_pairs(g, k + 2, host)


@st.composite
def hosted_starts(draw):
    """A random host on 3..10 vertices, a start inside it and r in 3..7."""
    n = draw(st.integers(3, 10))
    r = draw(st.integers(3, 7))
    p_host = draw(st.sampled_from([0.7, 0.9, 1.0]))
    p_start = draw(st.sampled_from([0.3, 0.5, 0.7]))
    rng = draw(st.randoms(use_true_random=False))
    host = Graph(n)
    start = Graph(n)
    for u, v in itertools.combinations(range(n), 2):
        if rng.random() < p_host:
            host.add_edge(u, v)
            if rng.random() < p_start:
                start.add_edge(u, v)
    return start, r, host


@settings(max_examples=200, deadline=None)
@given(hosted_starts())
def test_row_scan_batch_is_strictly_ascending(instance):
    # each row's partners are probed from the top, and its hits reversed
    start, r, host = instance
    batch = eligible(start.adj, host.adj, r)
    assert all(p < q for p, q in zip(batch, batch[1:]))
    assert batch == closing_pairs(start, r, host)


def assert_anchored_step(g, host, r, batch):
    """``eligible_after`` on both its paths equals the rule checked pair by
    pair; returns it."""
    expected = closing_pairs(g, r, host)
    # budget 0 gives the clique-first path up at its first unit of work
    assert eligible_after(g.adj, host.adj, r, batch, 0) == expected
    # no budget the step can reach: clique-first to the end, no row scan
    assert row_scans(eligible_after, g.adj, host.adj, r, batch, 2**64) == (expected, 0)
    return expected


@settings(max_examples=300, deadline=None)
@given(hosted_starts())
def test_anchored_step_equals_full_scan_after_every_batch(instance):
    start, r, host = instance
    g = start.copy()
    while batch := closing_pairs(g, r, host):
        for u, v in batch:
            g.add_edge(u, v)
        assert_anchored_step(g, host, r, batch)
    assert run(start, r, host).to_json() == run_oracle(start, r, host).to_json()


def test_anchored_step_equals_full_scan_on_seeded_slow_starts():
    # near-complete hosts on 8..12 vertices with half-filled starts run for
    # a few steps at r = 5..7, where the anchored step enumerates vertices,
    # edges and triangles of each common neighbourhood; hosted_starts'
    # smaller graphs reach such steps only now and then
    for seed in range(600):
        rng = random.Random(seed)
        n, r, p = rng.randint(8, 12), rng.choice([5, 6, 7]), rng.choice([0.4, 0.5, 0.6])
        host, g = Graph(n), Graph(n)
        for u, v in itertools.combinations(range(n), 2):
            if rng.random() < 0.95:
                host.add_edge(u, v)
                if rng.random() < p:
                    g.add_edge(u, v)
        while batch := closing_pairs(g, r, host):
            for u, v in batch:
                g.add_edge(u, v)
            assert_anchored_step(g, host, r, batch)


@st.composite
def scan_instances(draw):
    """A graph on 0..30 vertices from sparse to nearly complete, a host
    holding it, and r in 3..6."""
    n = draw(st.integers(0, 30))
    r = draw(st.integers(3, 6))
    p = draw(st.sampled_from([0.05, 0.2, 0.4, 0.7, 0.9, 1.0]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    g, host = Graph(n), Graph(n)
    for u, v in itertools.combinations(range(n), 2):
        if rng.random() < p:
            g.add_edge(u, v)
        if g.has_edge(u, v) or rng.random() < 0.8:
            host.add_edge(u, v)
    return g, r, host


def row_scans(fn, *args):
    """``fn(*args)`` and how many row scans (``engine.eligible`` calls) it made."""
    with mock.patch.object(engine, "eligible", wraps=engine.eligible) as spy:
        out = fn(*args)
    return out, spy.call_count


@settings(max_examples=300, deadline=None)
@given(scan_instances())
def test_start_scan_equals_row_scan_on_both_paths(instance):
    g, r, host = instance
    expected = closing_pairs(g, r, host)
    # budget 0: the first clique visited is over it, so the row scan runs
    assert row_scans(start_scan, g.adj, host.adj, r, 0) == (expected, min(g.n, 1))
    # no budget the scan can reach: clique-first to the end
    assert row_scans(start_scan, g.adj, host.adj, r, 2**64) == (expected, 0)


def test_step_kr_on_complete_graph_falls_back_at_once():
    # no host edge is missing, so the budget is 0
    for n, r in ((1, 3), (12, 3), (60, 4), (30, 6)):
        k = Graph.complete(n)
        assert row_scans(step_kr, k, r, k) == ([], 1)


def test_step_kr_falls_back_on_a_dense_start():
    # the dense start mirrored (v -> 39 - v), so that the first clique walked
    # from the top, {38, 39}, has the 38-vertex hole as its AND, which is
    # charged 1 + 38 + C(38, 2) units against a budget of the C(38, 2)
    # missing pairs before any pair is taken from it
    g = Graph.from_edges(40, [(39 - v, 39 - u) for u, v in minimal_percolating(40, 4).edges()])
    batch = [e for e in itertools.combinations(range(40), 2) if not g.has_edge(*e)]
    taken = []  # bit iterations begun when each row scan starts

    def row_scan(*args):
        taken.append(collect.call_count)
        return eligible(*args)

    with mock.patch.object(engine, "iter_bits", wraps=engine.iter_bits) as collect:
        with mock.patch.object(engine, "eligible", side_effect=row_scan):
            assert step_kr(g, 4, Graph.complete(40)) == batch
    assert taken == [0]


def test_step_kr_takes_the_cliques_on_a_scaffold_start():
    c = build_chain(20)
    host = Graph.complete(c.hypergraph.n)
    assert row_scans(step_kr, c.start, 5, host) == ([c.f_pairs[0]], 0)


def anchored_after(edges, n, r, batch):
    """``eligible_after`` in K_n once ``batch`` is added to ``edges``."""
    g = Graph.from_edges(n, list(edges) + list(batch))
    host = Graph.complete(n)
    return assert_anchored_step(g, host, r, batch)


def test_anchored_step_pair_inside_the_common_neighbourhood():
    # K_5 on 0..4 without 01 and 23; 0, 1, 5, 6, 7 give the batch edge 01.
    # Then 2 and 3 both lie in N(0) & N(1) and need the 1-clique {4}.
    edges = [e for e in itertools.combinations(range(5), 2) if e not in ((0, 1), (2, 3))]
    edges += [e for e in itertools.combinations((0, 1, 5, 6, 7), 2) if e != (0, 1)]
    assert step_kr(Graph.from_edges(8, edges), 5, Graph.complete(8)) == [(0, 1)]
    assert anchored_after(edges, 8, 5, [(0, 1)]) == [(2, 3)]


def test_anchored_step_pair_through_a_batch_endpoint():
    # 34 in N(0) & N(1) gives the batch edge 01.  Then 5, a neighbour of 1
    # but not of 0, needs the 1-clique {2} in N(0) & N(1) & N(5).
    edges = [(0, 2), (1, 2), (2, 5), (1, 5), (0, 3), (1, 3), (0, 4), (1, 4), (3, 4)]
    assert step_kr(Graph.from_edges(6, edges), 4, Graph.complete(6)) == [(0, 1)]
    assert anchored_after(edges, 6, 4, [(0, 1)]) == [(0, 5), (2, 3), (2, 4)]


def test_anchored_step_for_triangles():
    # r = 3: no pair fits inside one common neighbourhood, every new edge
    # runs from a batch endpoint along the other endpoint's edges
    path = [(0, 1), (1, 2), (2, 3)]
    assert anchored_after(path, 4, 3, [(0, 2), (1, 3)]) == [(0, 3)]


def test_anchored_step_skips_a_dense_common_neighbourhood_with_nothing_to_close():
    # S = K_30, u and v joined to all of S, w joined to v alone.  After uv,
    # C = S has no missing pair and none of its vertices is adjacent to w,
    # the one candidate w, so the step charges C's 30 vertices and the 3 of
    # N(u) ^ N(v) = {u, v, w} and enumerates none of the C(30, 2) edges,
    # C(30, 3) triangles or C(30, 4) 4-cliques of C
    s = 30
    u, v, w = s, s + 1, s + 2
    edges = list(itertools.combinations(range(s), 2)) + [(u, v), (v, w)]
    edges += [(a, x) for a in range(s) for x in (u, v)]
    g = Graph.from_edges(s + 3, edges)
    host = Graph.complete(s + 3)
    for r in (5, 6, 7):
        assert closing_pairs(g, r, host) == []
        assert row_scans(eligible_after, g.adj, host.adj, r, [(u, v)], s + 3) == ([], 0)
    # one unit less, and the bit counts alone send the step to the row scan
    with mock.patch.object(engine, "near_cliques", wraps=engine.near_cliques) as enum:
        assert row_scans(eligible_after, g.adj, host.adj, 7, [(u, v)], s + 2) == ([], 1)
    assert enum.call_count == 0


def test_run_does_not_recount_edges_per_step(monkeypatch):
    calls = 0
    count = Graph.edge_count

    def counting(self):
        nonlocal calls
        calls += 1
        return count(self)

    monkeypatch.setattr(Graph, "edge_count", counting)
    c = build_chain(30)
    t = run(c.start, 5, Graph.complete(c.hypergraph.n))
    assert t.running_time >= 30
    assert calls <= 3  # host and start once, the final graph once


@settings(max_examples=200, deadline=None)
@given(hosted_starts())
def test_batches_are_new_disjoint_edges(instance):
    start, r, host = instance
    t = run(start, r, host)
    seen = set(start.edges())
    for batch in t.steps:
        assert batch == sorted(batch)
        for e in batch:
            assert e not in seen  # neither present nor in an earlier batch
            seen.add(e)
    assert len(seen) == t.final_edge_count


@settings(max_examples=200, deadline=None)
@given(hosted_starts())
def test_replay_reconstructs_final_graph(instance):
    start, r, host = instance
    t = run(start, r, host)
    final = replay(start, t)
    assert final.edge_count() == t.final_edge_count
    assert (final == host) == t.percolated
    assert step_kr(final, r, host) == []


@settings(max_examples=200, deadline=None)
@given(hosted_starts())
def test_cone_lifts_process_batch_for_batch(instance):
    # the apex lies in every common neighbourhood, so an (r-2)-clique there
    # is an (r-1)-clique with the apex: the same batches, the same running time
    start, r, host = instance
    base = run(start, r, host)
    lifted = run(cone(start), r + 1, cone(host))
    assert lifted.steps == base.steps


def test_trace_json_bytes_are_pinned():
    t = PercolationTrace(
        steps=[[(0, 2), (1, 3)], [(0, 3)]],
        running_time=2,
        percolated=True,
        truncated=False,
        final_edge_count=6,
    )
    assert t.to_json() == (
        '{"running_time": 2, "percolated": true, "truncated": false, '
        '"final_edge_count": 6, "steps": [[[0, 2], [1, 3]], [[0, 3]]]}'
    )


def test_trace_json_round_trip():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    t = run(g, 3, Graph.complete(4))
    again = PercolationTrace.from_json(t.to_json())
    assert again == t
    assert again.to_json() == t.to_json()


def test_batches_read_as_a_list_of_tuple_lists():
    lists = [[(0, 2), (1, 3)], [(0, 3)], [(4, 9), (5, 7), (6, 8)]]
    steps = Batches(lists)
    assert len(steps) == 3 and len(Batches()) == 0
    assert steps[0] == [(0, 2), (1, 3)] and steps[-1] == lists[-1] and steps[-3] == lists[0]
    with pytest.raises(IndexError):
        steps[3]
    with pytest.raises(IndexError):
        steps[-4]
    assert list(steps) == lists
    assert [type(b) for b in steps] == [list] * 3
    assert repr(steps[1]) == "[(0, 3)]"
    assert steps[1:] == lists[1:] and steps[::2] == lists[::2] and steps[5:] == []
    assert isinstance(steps[:2], Batches)
    assert list(steps.ends) == [0, 2, 1, 3, 0, 3, 4, 9, 5, 7, 6, 8]
    assert list(steps.offsets) == [0, 2, 3, 6]


def test_batches_compare_both_ways():
    lists = [[(0, 2), (1, 3)], [(0, 3)]]
    steps = Batches(lists)
    assert steps == lists and lists == steps
    assert steps == Batches(lists) and not steps != Batches(lists)
    for other in ([[(0, 2), (1, 3)]], [[(0, 2)], [(1, 3), (0, 3)]], [[(0, 2), (1, 3)], [(0, 4)]]):
        assert steps != other and other != steps
        assert steps != Batches(other)
    # a batch reads as tuples, as a list trace's did; other sequences are not traces
    assert steps != [[[0, 2], [1, 3]], [[0, 3]]] and steps != tuple(lists) and steps != "steps"
    # the same pairs cut into other batches are another trace
    assert Batches([[(0, 2)], [(1, 3)]]) != Batches([[(0, 2), (1, 3)]])


def test_trace_steps_are_read_only_batches():
    t = PercolationTrace(steps=[[(0, 1)]], running_time=1)
    assert isinstance(t.steps, Batches) and isinstance(PercolationTrace().steps, Batches)
    with pytest.raises(TypeError):
        t.steps[0] = [(0, 2)]
    assert PercolationTrace(steps=t.steps, running_time=1) == t


def test_a_trace_has_no_empty_batch():
    # the writer would have no text for it, and the reader refuses "[]"
    for steps in ([[]], [[(0, 1)], []], [[], [(0, 1)]]):
        with pytest.raises(ValueError, match="empty batch"):
            PercolationTrace(steps=steps, running_time=len(steps))
        with pytest.raises(ValueError, match="empty batch"):
            Batches(steps)


def test_trace_json_is_json_dumps_of_the_nested_lists():
    big = [[(u, v) for u in range(100) for v in range(1000, 1100)]]  # one 10^4-pair batch
    for steps in ([], [[(0, 1)]], big, [[(0, 1)], *big, [(2, 2**31 - 1)]]):
        t = PercolationTrace(steps=steps, running_time=len(steps), truncated=True)
        fields = {"running_time": len(steps), "percolated": False, "truncated": True,
                  "final_edge_count": 0, "steps": steps}
        assert t.to_json() == json.dumps(fields)
        assert PercolationTrace.from_json(t.to_json()) == t


# one-pair runs, batches larger than a small chunk, and the two mixed
CHUNK_EDGE_STEPS = [
    [],
    [[(0, 1)]],
    [[(0, 1)], [(0, 2)], [(1, 2)], [(3, 9)], [(0, 9)]],
    [[(0, 5), (1, 5), (2, 5), (3, 5), (4, 5), (4, 6), (4, 7)]],
    [[(0, 1)], [(0, 2)], [(0, 3), (1, 3), (2, 3), (2, 4)], [(5, 6)], [(5, 7), (6, 7)],
     [(8, 9)], [(7, 9)], [(0, 9), (1, 9), (2, 9), (3, 9), (4, 9), (5, 9), (6, 9)], [(10, 11)]],
    [[(0, 1), (2, 2**31 - 1)], [(2**31 - 2, 2**31 - 1)]],
]


@pytest.mark.parametrize("chunk", [1, 2, 3, engine._CHUNK])
@pytest.mark.parametrize("steps", CHUNK_EDGE_STEPS, ids=range(len(CHUNK_EDGE_STEPS)))
def test_trace_json_across_chunk_edges(monkeypatch, chunk, steps):
    monkeypatch.setattr(engine, "_CHUNK", chunk)
    t = PercolationTrace(steps=steps, running_time=len(steps), final_edge_count=7)
    fields = {"running_time": len(steps), "percolated": False, "truncated": False,
              "final_edge_count": 7, "steps": steps}
    pieces = list(t.json_pieces())
    assert "".join(pieces) == t.to_json() == json.dumps(fields)
    pairs = [len(re.findall(r"\[\d+, \d+\]", piece)) for piece in pieces[1:-1]]
    assert sum(pairs) == len(t.steps.ends) // 2 and all(0 < k <= chunk for k in pairs)
    assert engine._read_canonical(t.to_json()) == (t.steps, {
        key: fields[key] for key in ("running_time", "percolated", "truncated", "final_edge_count")
    })
    assert PercolationTrace.from_json(t.to_json()) == t


def test_run_holds_its_trace_in_two_flat_arrays():
    c = build_h6(200)
    t = run(c.start, 6, Graph.complete(c.hypergraph.n))
    assert t.running_time == len(c.f_pairs) == 400
    held = sum(a.buffer_info()[1] * a.itemsize for a in (t.steps.ends, t.steps.offsets))
    assert held <= 24 * t.running_time


def pinned_instance(name: str):
    if name == "hprime-400":  # the sweep's slopes: digits3 on [1, 10], scaled by 10
        reduced = ap_digits3(10)
        c = build_hprime(400, ApSet(10 * reduced.n, tuple(10 * b for b in reduced.elements)))
        return c.start, 5, Graph.complete(c.hypergraph.n)
    if name == "h6-200":
        c = build_h6(200)
        return c.start, 6, Graph.complete(c.hypergraph.n)
    # a seeded host with 95 % of K_40's pairs and a start with 30 % of the
    # host's: ten steps at r = 6 that mix row scans with clique-first ones
    rng = random.Random(12)
    host, g = Graph(40), Graph(40)
    for u, v in itertools.combinations(range(40), 2):
        if rng.random() < 0.95:
            host.add_edge(u, v)
            if rng.random() < 0.3:
                g.add_edge(u, v)
    return g, 6, host


@pytest.mark.parametrize(
    "name, digest",
    [
        ("hprime-400", "0fc2969bb020c7156f158d3fb86565c08dccccbf0e2a4ec2425310a3e1da1d0b"),
        ("h6-200", "4b0ba214c40d3c4fc6801915007944b17488e87c63274e4a14848d2914b9d5da"),
        ("near-complete-r6", "13ebbbb4ed68413c58206f44aa2a6bb9cfb9c4bd807f6a05ffe7c6de8295954a"),
    ],
)
def test_trace_bytes_are_pinned_on_scaffolds_and_a_dense_start(name, digest):
    # a kernel change must leave every trace byte-identical
    trace = run(*pinned_instance(name))
    assert hashlib.sha256(trace.to_json().encode()).hexdigest() == digest


@pytest.mark.slow
@pytest.mark.parametrize("family, n", [("hprime", 1600), ("h6", 1000)])
def test_large_scaffolds_replay_one_pair_per_step(family, n):
    # the sizes where the start scan used to be most of the replay
    if family == "h6":
        c, r = build_h6(n), 6
    else:  # the sweep's slopes: digits3 on n // 40, scaled by 10
        reduced = ap_digits3(n // 40)
        slopes = ApSet(10 * reduced.n, tuple(10 * b for b in reduced.elements))
        c, r = build_hprime(n, slopes), 5
    trace = run(c.start, r, Graph.complete(c.hypergraph.n))
    assert trace.steps == [[f] for f in c.f_pairs]
