from __future__ import annotations

import pytest

from krboot.apsets import ApSet
from krboot.constructions import (
    FAMILIES,
    IntegrityError,
    _minus_pairs,
    build,
    build_chain,
    build_h6,
    build_hB,
    build_hprime,
    minimal_percolating,
)
from krboot.graphs import Graph, two_skeleton


def label_id(h, cls: str, idx: int) -> int:
    hits = [v for v, tag in h.labels.items() if tag == (cls, idx)]
    assert len(hits) == 1, f"label ({cls}, {idx}) not unique"
    return hits[0]


# ---------------------------------------------------------------- h6


def test_h6_rejects_small_n():
    with pytest.raises(ValueError):
        build_h6(9)


def test_h6_smallest_instance():
    c = build_h6(10)
    h = c.hypergraph
    assert h.n == 80 and h.r == 6 and len(h.edges) == 1
    x0, x1 = label_id(h, "X", 0), label_id(h, "X", 1)
    y1 = label_id(h, "Y", 1)
    z0, z1 = label_id(h, "Z", 0), label_id(h, "Z", 1)
    w1 = label_id(h, "W", 1)
    assert h.edges[0] == tuple(sorted((x0, x1, y1, z0, z1, w1)))
    assert c.f_pairs == [(min(x1, z1), max(x1, z1))]
    # start is that clique missing exactly the designated pair
    assert two_skeleton(h).edge_count() == 15
    assert c.start.edge_count() == 14
    assert not c.start.has_edge(x1, z1)


def test_h6_vertex_block_order():
    n = 20
    c = build_h6(n)
    h = c.hypergraph
    ell = n + 20
    assert h.n == 4 * n + 40
    for i in range(n):
        assert h.labels[i] == ("X", i)
        assert h.labels[n + ell + i] == ("Y", i)
    for i in range(ell):
        assert h.labels[n + i] == ("Z", i)
        assert h.labels[n + ell + n + i] == ("W", i)


def test_h6_edge_count_and_ring_walk():
    c = build_h6(50)
    h = c.hypergraph
    assert len(h.edges) == 50 * 50 // 100 == 25
    # edge t uses ring positions t and t+1 on both index rings
    for t, e in enumerate(h.edges):
        tags = sorted(h.labels[v] for v in e)
        assert tags == sorted(
            [
                ("X", t % 50),
                ("X", (t + 1) % 50),
                ("Y", (t + 1) % 50),
                ("Z", t % 70),
                ("Z", (t + 1) % 70),
                ("W", (t + 1) % 70),
            ]
        )
    for t, (u, v) in enumerate(c.f_pairs):
        assert {h.labels[u], h.labels[v]} == {("X", (t + 1) % 50), ("Z", (t + 1) % 70)}


def test_h6_pairs_live_in_their_own_and_next_edge():
    c = build_h6(40)
    edges = [set(e) for e in c.hypergraph.edges]
    m = len(edges)
    for i, f in enumerate(c.f_pairs):
        assert set(f) <= edges[i]
        if i < m - 1:
            assert set(f) <= edges[i + 1]


# ---------------------------------------------------------------- chain


def test_chain_rejects_zero_length():
    with pytest.raises(ValueError):
        build_chain(0)


def test_chain_single_edge():
    c = build_chain(1)
    assert c.hypergraph.n == 5
    assert c.hypergraph.edges == [(0, 1, 2, 3, 4)]
    assert c.f_pairs == [(3, 4)]
    assert two_skeleton(c.hypergraph) == Graph.complete(5)
    assert c.start.edge_count() == 9


def test_chain_three_edges():
    c = build_chain(3)
    assert c.hypergraph.n == 11
    assert c.hypergraph.edges == [
        (0, 1, 2, 3, 4),
        (3, 4, 5, 6, 7),
        (6, 7, 8, 9, 10),
    ]
    assert c.f_pairs == [(3, 4), (6, 7), (9, 10)]


def test_chain_overlap_pattern():
    for m in (2, 4, 6):
        edges = [set(e) for e in build_chain(m).hypergraph.edges]
        for i in range(m):
            for j in range(i + 1, m):
                assert len(edges[i] & edges[j]) == (2 if j == i + 1 else 0)


# ---------------------------------------------------------------- hb / hB


def one_slope(n: int, b: int):
    """hB with the one slope b: the paper's H_b."""
    return build_hB(n, ApSet(b, (b,)))


def paper_hb_edges(h, b: int) -> list[tuple[int, ...]]:
    """H_b's edges by the paper's definition, i = 0 .. n - 2b - 1, as ids of ``h``."""
    ids = {tag: v for v, tag in h.labels.items()}
    n = h.n // 3 - 1
    tags = [("X", 0), ("X", 1), ("Y", b), ("Z", 2 * b), ("Z", 2 * b + 1)]
    return [
        tuple(sorted(ids[cls, i + off] for cls, off in tags)) for i in range(n - 2 * b)
    ]


def test_hb_first_and_last_edges():
    h = one_slope(100, 10)
    assert h.n == 303 and len(h.edges) == 80
    ids = {(cls, i): v for v, (cls, i) in [(v, h.labels[v]) for v in h.labels]}
    first = (ids["X", 0], ids["X", 1], ids["Y", 10], ids["Z", 20], ids["Z", 21])
    assert h.edges[0] == tuple(sorted(first))
    last = (ids["X", 79], ids["X", 80], ids["Y", 89], ids["Z", 99], ids["Z", 100])
    assert h.edges[-1] == tuple(sorted(last))


def test_hb_consecutive_edges_share_designated_pair():
    h = one_slope(60, 7)
    sets = [set(e) for e in h.edges]
    for i in range(len(sets) - 1):
        shared = sets[i] & sets[i + 1]
        tags = {h.labels[v][0] for v in shared}
        assert len(shared) == 2 and tags == {"X", "Z"}


def test_hb_bounds():
    with pytest.raises(ValueError):
        one_slope(10, 0)
    with pytest.raises(ValueError):
        one_slope(10, 5)  # n - 2b - 1 < 0
    assert len(one_slope(11, 5).edges) == 1


def test_hB_single_slope_matches_hb():
    h = build_hB(100, ApSet(10, (10,)))
    assert h.edges == paper_hb_edges(h, 10)


def test_hB_unions_slopes_in_ascending_groups():
    h = build_hB(100, ApSet(20, (10, 20)))
    assert len(h.edges) == 80 + 60
    assert h.edges[:80] == one_slope(100, 10).edges
    assert h.edges[80:] == one_slope(100, 20).edges
    assert len(set(h.edges)) == 140


def test_hB_rejects_out_of_range_slope():
    with pytest.raises(ValueError, match=r"slope 50 outside \[1, 49\]"):
        build_hB(100, ApSet(50, (50,)))  # beyond (n - 1) / 2


@pytest.mark.parametrize("n", [8, 9, 20, 21])
def test_hb_and_hB_accept_the_same_slopes(n):
    # H_b exists when its steepest edge (x0, x0+1, y0+b, z0+2b, z0+2b+1) fits,
    # that is when n - 2b >= 1, for odd and even n alike; hB accepts exactly
    # those slopes and builds H_b from them
    accepted = []
    for b in range(1, n + 1):
        try:
            h = build_hB(n, ApSet(b, (b,)))
        except ValueError as exc:
            assert str(exc).startswith(f"slope {b} outside")
            continue
        assert h.edges == paper_hb_edges(h, b)
        accepted.append(b)
    assert accepted == [b for b in range(1, n + 1) if n - 2 * b >= 1]


# ---------------------------------------------------------------- hprime


def test_hprime_worked_example():
    c = build_hprime(100, ApSet(20, (10, 20)))
    assert c.meta["chains"] == [
        {"b": 10, "s": 0, "l": 80},
        {"b": 20, "s": 1, "l": 59},
    ]
    assert len(c.hypergraph.edges) == 80 + 3 + 58 == 141
    assert c.hypergraph.n == 3 * 100 + 3 + 7


def test_hprime_single_slope_is_whole_chain_plus_far_handoff():
    c = build_hprime(80, ApSet(10, (10,)))
    assert c.hypergraph.edges == one_slope(80, 10).edges
    h = c.hypergraph
    last = c.f_pairs[-1]
    assert {h.labels[v] for v in last} == {("X", 60), ("Z", 80)}


def test_hprime_connector_uses_seven_fresh_vertices():
    c = build_hprime(100, ApSet(20, (10, 20)))
    h = c.hypergraph
    gadget = h.edges[80:83]
    upool = {v for e in gadget for v in e if h.labels[v][0] == "U1"}
    assert len(upool) == 7
    # connector touches the old blocks only at the two handoff pairs
    boundary = {v for e in gadget for v in e if h.labels[v][0] != "U1"}
    assert {h.labels[v] for v in boundary} == {
        ("X", 80),
        ("Z", 100),
        ("X", 1),
        ("Z", 41),
    }


WALKS = {
    "h6": lambda: build_h6(200),  # both index rings wrap
    "chain": lambda: build_chain(5),
    "hprime": lambda: build_hprime(200, ApSet(20, (10, 20))),
}


@pytest.mark.parametrize("family", list(WALKS))
def test_consecutive_edges_share_exactly_a_pair(family):
    c = WALKS[family]()
    edges = [set(e) for e in c.hypergraph.edges]
    for i, f in enumerate(c.f_pairs[:-1]):
        assert set(f) == edges[i] & edges[i + 1]


@pytest.mark.parametrize("family", ["h6", "hprime"])
def test_each_vertex_is_one_int_object(family):
    # ids come from the block lists, not computed per edge, so the edges and
    # pairs hold at most one object per vertex, also past the small-int cache
    c = WALKS[family]()
    h = c.hypergraph
    assert h.n > 256
    assert len({id(v) for e in [*h.edges, *c.f_pairs] for v in e}) <= h.n


def test_hprime_edge_floor():
    for n, slopes in [(100, (10,)), (200, (10, 20)), (400, (10, 20, 40, 50))]:
        c = build_hprime(n, ApSet(max(slopes), slopes))
        k = len(slopes)
        assert len(c.hypergraph.edges) >= n * k / 2 - 8 * k * k
        assert c.hypergraph.n <= 3 * n + 3 + 7 * (k - 1)


def test_hprime_input_validation():
    with pytest.raises(ValueError):
        build_hprime(100, ApSet(15, (15,)))  # not a multiple of 10
    with pytest.raises(ValueError):
        build_hprime(100, ApSet(30, (30,)))  # beyond n/4
    with pytest.raises(ValueError):
        build_hprime(400, ApSet(30, (10, 20, 30)))  # B/10 = {1,2,3} has an AP
    with pytest.raises(ValueError):
        build_hprime(100, ApSet(10, ()))


def test_star_import_resolves_every_exported_name():
    import krboot

    namespace: dict = {}
    exec("from krboot import *", namespace)
    assert set(krboot.__all__) <= namespace.keys()
    assert "build_hb" not in krboot.__all__


def test_families_that_read_slopes_check_them():
    for fam in FAMILIES.values():
        assert (fam.check_slopes is not None) == ("B" in fam.params)


# ---------------------------------------------------------------- assembly


def test_start_is_the_skeleton_minus_the_designated_pairs():
    for c in (build_chain(4), build_h6(20), build_hprime(100, ApSet(10, (10,)))):
        skel = two_skeleton(c.hypergraph)
        assert set(c.start.edges()) == set(skel.edges()) - set(c.f_pairs)
        assert c.start.edge_count() == skel.edge_count() - len(c.f_pairs)


def test_minus_pairs_rejects_foreign_pair():
    c = build_chain(2)
    with pytest.raises(IntegrityError):
        _minus_pairs(two_skeleton(c.hypergraph), [(0, 1), (0, 7)])


def test_minus_pairs_rejects_duplicate_pair():
    c = build_chain(2)
    with pytest.raises(IntegrityError):
        _minus_pairs(two_skeleton(c.hypergraph), [(3, 4), (3, 4)])


def test_assemble_builds_the_skeleton_once(monkeypatch):
    import krboot.constructions as constructions

    calls = []

    def counting(h):
        calls.append(h)
        return two_skeleton(h)

    monkeypatch.setattr(constructions, "two_skeleton", counting)
    c = build_chain(5)
    assert len(calls) == 1
    assert c.start == _minus_pairs(two_skeleton(c.hypergraph), c.f_pairs)


def test_minus_pairs_cuts_the_graph_it_is_handed():
    c = build_chain(3)
    skel = two_skeleton(c.hypergraph)
    cut = _minus_pairs(skel, c.f_pairs)
    assert cut is skel
    assert set(cut.edges()) == set(two_skeleton(c.hypergraph).edges()) - set(c.f_pairs)


# ---------------------------------------------------------------- minimal


def test_minimal_percolating_edge_counts():
    g = minimal_percolating(7, 4)
    assert g.edge_count() == 21 - 10 == 11
    # n = r leaves a single missing edge
    g2 = minimal_percolating(5, 5)
    assert g2.edge_count() == 9
    missing = [
        (u, v)
        for u in range(5)
        for v in range(u + 1, 5)
        if not g2.has_edge(u, v)
    ]
    assert missing == [(3, 4)]


def test_minimal_percolating_bounds():
    with pytest.raises(ValueError):
        minimal_percolating(5, 6)
    with pytest.raises(ValueError):
        minimal_percolating(5, 2)


# the least-size parameters each family can be built from
SMALLEST = {
    "h6": {},
    "chain": {},
    "hB": {"B": ApSet(1, (1,))},
    "hprime": {"B": ApSet(10, (10,))},
    "minimal": {"r": 3},
}


@pytest.mark.parametrize("family", list(FAMILIES))
def test_min_size_is_the_builders_floor(family):
    size = FAMILIES[family].min_size
    if family not in SMALLEST:  # built from an input file, at its order
        assert size is None and "input" in FAMILIES[family].params
        return
    build(family, n=size, **SMALLEST[family])
    with pytest.raises(ValueError):
        build(family, n=size - 1, **SMALLEST[family])
