from __future__ import annotations

import itertools
import random

import pytest

from krboot.graphs import (
    Graph,
    OverBudget,
    UniformHypergraph,
    cone,
    has_clique_rows,
    iter_bits,
    near_cliques,
    two_skeleton,
)


def random_graph(rng: random.Random, n: int) -> Graph:
    g = Graph(n)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.5:
                g.add_edge(u, v)
    return g


def test_graph_basics():
    g = Graph(4)
    assert g.edge_count() == 0
    g.add_edge(2, 0)
    assert g.has_edge(0, 2) and g.has_edge(2, 0)
    assert [row.bit_count() for row in g.adj] == [1, 0, 1, 0]
    g.add_edge(0, 2)  # re-adding is a no-op
    assert g.edge_count() == 1
    g.remove_edge(0, 2)
    assert g.edge_count() == 0
    with pytest.raises(ValueError):
        g.remove_edge(0, 2)
    with pytest.raises(ValueError):
        g.add_edge(1, 1)
    with pytest.raises(ValueError):
        g.add_edge(0, 4)
    with pytest.raises(ValueError, match="non-negative"):
        Graph(-1)


def test_graph_edges_sorted_and_copy_independent():
    g = Graph.from_edges(5, [(3, 4), (0, 2), (1, 2), (0, 1)])
    assert list(g.edges()) == [(0, 1), (0, 2), (1, 2), (3, 4)]
    h = g.copy()
    h.add_edge(2, 3)
    assert g != h and not g.has_edge(2, 3)
    assert g == Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (3, 4)])


def test_iter_bits_yields_positions_descending():
    assert list(iter_bits(0)) == []
    assert list(iter_bits(0b101101)) == [5, 3, 2, 0]
    rng = random.Random(7)
    for _ in range(50):
        mask = rng.getrandbits(rng.randint(1, 300))
        bits = [i for i in range(mask.bit_length()) if mask >> i & 1]
        assert list(iter_bits(mask)) == bits[::-1]


def test_complete_graph():
    k5 = Graph.complete(5)
    assert k5.edge_count() == 10
    assert all(row.bit_count() == 4 for row in k5.adj)
    assert Graph.complete(0).edge_count() == 0
    assert Graph.complete(1).edge_count() == 0


def test_adjacency_stays_symmetric_and_loopless():
    rng = random.Random(11)
    for _ in range(25):
        g = random_graph(rng, rng.randint(1, 12))
        for u in range(g.n):
            assert not (g.adj[u] >> u) & 1
            for v in range(g.n):
                assert ((g.adj[u] >> v) & 1) == ((g.adj[v] >> u) & 1)


def test_subgraph_check():
    g = Graph.from_edges(4, [(0, 1), (1, 2)])
    assert g.is_subgraph_of(Graph.complete(4))
    assert not Graph.complete(4).is_subgraph_of(g)
    assert not g.is_subgraph_of(Graph.complete(5))


# ---------------------------------------------------------------- hypergraph


def test_hypergraph_stores_sorted_edges_in_order():
    h = UniformHypergraph(6, 3, [(5, 0, 2), (1, 3, 2)])
    assert h.edges == [(0, 2, 5), (1, 2, 3)]
    assert h.edge_count() == 2


def test_hypergraph_rejects_bad_edges():
    with pytest.raises(ValueError):
        UniformHypergraph(5, 3, [(0, 1)])
    with pytest.raises(ValueError):
        UniformHypergraph(5, 3, [(0, 1, 1)])
    with pytest.raises(ValueError):
        UniformHypergraph(5, 3, [(0, 1, 5)])
    with pytest.raises(ValueError):
        UniformHypergraph(5, 1, [])
    with pytest.raises(ValueError):
        UniformHypergraph(5, 3, [(0, 1, 2)], labels={7: ("X", 0)})
    with pytest.raises(ValueError, match="vertex count must be non-negative"):
        UniformHypergraph(-1, 3, [])


def test_two_skeleton_single_edge_is_clique():
    h = UniformHypergraph(5, 5, [(0, 1, 2, 3, 4)])
    g = two_skeleton(h)
    assert g.edge_count() == 10
    assert g == Graph.complete(5)


def test_two_skeleton_overlap_counts_shared_pair_once():
    h = UniformHypergraph(8, 5, [(0, 1, 2, 3, 4), (3, 4, 5, 6, 7)])
    assert two_skeleton(h).edge_count() == 19


def test_two_skeleton_matches_pairwise_reference():
    # overlapping and repeated edges at r = 2..6; the reference adds each
    # pair of each edge on its own
    rng = random.Random(31)
    for _ in range(200):
        r = rng.randint(2, 6)
        n = rng.randint(r, 12)
        drawn = [rng.sample(range(n), r) for _ in range(rng.randint(0, 5))]
        repeats = rng.choices(drawn, k=rng.randint(0, 3)) if drawn else []
        h = UniformHypergraph(n, r, drawn + repeats)
        ref = Graph(n)
        for e in drawn:
            for u, v in itertools.combinations(e, 2):
                ref.add_edge(u, v)
        assert two_skeleton(h) == ref


def test_cone_examples():
    assert cone(Graph.complete(3)) == Graph.complete(4)
    single = cone(Graph(0))
    assert single.n == 1 and single.edge_count() == 0
    path = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert sorted(cone(path).edges()) == [(0, 1), (0, 3), (1, 2), (1, 3), (2, 3)]


def test_cone_adds_exactly_n_edges():
    rng = random.Random(5)
    for _ in range(10):
        g = random_graph(rng, rng.randint(0, 9))
        c = cone(g)
        assert c.n == g.n + 1
        assert c.edge_count() == g.edge_count() + g.n
        assert c.adj[g.n].bit_count() == g.n


# ---------------------------------------------------------------- cliques


def cliques(g: Graph, mask: int, k: int) -> list[tuple[int, ...]]:
    return [q for q, _ in near_cliques(g.adj, k, mask)]


def test_cliques_k4():
    k4 = Graph.complete(4)
    # largest vertex first: decreasing colex order
    assert cliques(k4, 0b1111, 3) == [
        (1, 2, 3),
        (0, 2, 3),
        (0, 1, 3),
        (0, 1, 2),
    ]
    assert cliques(k4, 0b1111, 0) == [()]


def test_cliques_respect_candidate_mask():
    k4 = Graph.complete(4)
    assert cliques(k4, 0b0111, 3) == [(0, 1, 2)]
    assert cliques(k4, 0b0101, 2) == [(0, 2)]


def test_cliques_on_path():
    path = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert cliques(path, 0b111, 2) == [(1, 2), (0, 1)]
    assert cliques(path, 0b111, 3) == []


def brute_cliques(g: Graph, candidates: int, k: int) -> list[tuple[int, ...]]:
    """The k-cliques inside ``candidates``, in decreasing colex order."""
    verts = [v for v in range(g.n) if (candidates >> v) & 1]
    found = [
        sub
        for sub in itertools.combinations(verts, k)
        if all(g.has_edge(a, b) for a, b in itertools.combinations(sub, 2))
    ]
    return sorted(found, key=lambda q: q[::-1], reverse=True)


def test_cliques_match_brute_force_on_random_graphs():
    rng = random.Random(99)
    for _ in range(40):
        n = rng.randint(1, 9)
        g = random_graph(rng, n)
        mask = rng.getrandbits(n)
        for k in range(0, 5):
            expect = brute_cliques(g, mask, k)
            assert cliques(g, mask, k) == expect
            assert has_clique_rows(g.adj, mask, k) == bool(expect or k == 0)
            for q, common in near_cliques(g.adj, k, mask):
                # the vertices of mask adjacent to all of q
                assert common == sum(
                    1 << v for v in range(n) if mask >> v & 1 and all(g.has_edge(u, v) for u in q)
                )


def test_near_cliques_stop_past_their_budget():
    # K_4's triangles visit 3, 23, 123, 023, 13, 013, 03, then 2, 12, 012,
    # 02, then 1 and 0: 13 partial and whole cliques, the 10th being 012
    k4 = Graph.complete(4)
    assert len(list(near_cliques(k4.adj, 3, budget=13))) == 4
    with pytest.raises(OverBudget):
        list(near_cliques(k4.adj, 3, budget=12))
    gen = near_cliques(k4.adj, 3, budget=9)
    assert [q for q, _ in itertools.islice(gen, 3)] == [(1, 2, 3), (0, 2, 3), (0, 1, 3)]
    with pytest.raises(OverBudget):
        next(gen)
    with pytest.raises(OverBudget):
        next(near_cliques(k4.adj, 1, budget=0))
    with pytest.raises(ValueError):
        next(near_cliques(k4.adj, -1))
