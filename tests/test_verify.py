from __future__ import annotations

import hashlib
import itertools
import random

import pytest

from krboot import verify
from krboot.apsets import ApSet, ap_digits3
from krboot.constructions import (
    ConstructionOutput,
    build_chain,
    build_h6,
    build_hB,
    build_hprime,
)
from krboot.graphs import UniformHypergraph, near_cliques, two_skeleton
from krboot.verify import (
    check_ap_free,
    check_induced_free,
    check_pair_condition,
    check_residue_lemma,
    verify_construction,
)


def naive_offenders(h: UniformHypergraph, r: int) -> set[tuple[int, ...]]:
    """Reference: every r-set spanning >= C(r,2) - 1 skeleton edges must be an edge."""
    skel = two_skeleton(h)
    edges = set(h.edges)
    bad = set()
    for sub in itertools.combinations(range(h.n), r):
        spanned = sum(skel.has_edge(a, b) for a, b in itertools.combinations(sub, 2))
        if spanned >= r * (r - 1) // 2 - 1 and sub not in edges:
            bad.add(sub)
    return bad


def all_pairs_sweep(h: UniformHypergraph, r: int, verbose: bool):
    """Reference cond (i) sweep over every pair, no two-hop pruning.

    Returns (passed, witness, failures, candidates, pairs swept).
    """
    skel = two_skeleton(h)
    edges = set(h.edges)
    pairs = candidates = 0
    failures = []
    for u, v in itertools.combinations(range(h.n), 2):
        pairs += 1
        # cond (i)'s sweep order: each pair's cliques in lexicographic order
        for clique, _ in sorted(near_cliques(skel.adj, r - 2, skel.adj[u] & skel.adj[v])):
            candidates += 1
            cand = tuple(sorted((u, v) + clique))
            if cand not in edges:
                if not verbose:
                    return False, cand, [cand], candidates, pairs
                if cand not in failures:
                    failures.append(cand)
    witness = failures[0] if failures else None
    return not failures, witness, failures, candidates, pairs


def clique_count(h: UniformHypergraph, k: int) -> int:
    """Reference: number of k-cliques of the 2-skeleton, by brute force over
    the (k-1)-subsets of each vertex's higher neighbours."""
    skel = two_skeleton(h)
    return sum(
        all(skel.has_edge(a, b) for a, b in itertools.combinations(sub, 2))
        for x in range(h.n)
        for sub in itertools.combinations(
            [y for y in range(x + 1, h.n) if skel.has_edge(x, y)], k - 1
        )
    )


def random_hypergraphs(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(5, 9)
        m = rng.randint(1, 4)
        edges = set()
        while len(edges) < m:
            edges.add(tuple(sorted(rng.sample(range(n), 4))))
        yield UniformHypergraph(n, 4, sorted(edges))


def random_hypergraphs_with_repeats(seed: int, count: int):
    """(h, r) at r = 3..5 whose edge list names some hyperedges more than once."""
    rng = random.Random(seed)
    for _ in range(count):
        r = rng.randint(3, 5)
        n = rng.randint(r + 1, 9)
        drawn = [tuple(rng.sample(range(n), r)) for _ in range(rng.randint(1, 3))]
        edges = drawn + rng.choices(drawn, k=rng.randint(1, 3))
        rng.shuffle(edges)
        yield UniformHypergraph(n, r, edges), r


OVERLAP3 = UniformHypergraph(7, 5, [(0, 1, 2, 3, 4), (2, 3, 4, 5, 6)])


def test_induced_free_passes_on_chain_and_h6():
    assert check_induced_free(build_chain(3).hypergraph, 5).passed
    rep = check_induced_free(build_h6(20).hypergraph, 6)
    assert rep.passed and rep.witness is None
    assert rep.stats["pairs"] == 120 * 119 // 2


def test_induced_free_rejects_uniformity_mismatch():
    with pytest.raises(ValueError):
        check_induced_free(build_chain(2).hypergraph, 6)
    # uniformity and order agree, but the order is below 3
    with pytest.raises(ValueError, match="r >= 3"):
        check_induced_free(UniformHypergraph(3, 2, [(0, 1)]), 2)


def test_induced_free_fails_on_triple_overlap():
    rep = check_induced_free(OVERLAP3, 5)
    assert not rep.passed
    assert rep.witness_kind == "near-clique"
    # witness re-check straight from the definition
    skel = two_skeleton(OVERLAP3)
    spanned = sum(
        skel.has_edge(a, b) for a, b in itertools.combinations(rep.witness, 2)
    )
    assert spanned >= 9
    assert rep.witness not in set(OVERLAP3.edges)
    assert rep.witness in naive_offenders(OVERLAP3, 5)


def test_induced_free_verbose_lists_every_offender():
    rep = check_induced_free(OVERLAP3, 5, verbose=True)
    assert set(rep.failures) == naive_offenders(OVERLAP3, 5)
    assert (1, 2, 3, 4, 5) in rep.failures  # near-clique missing only the 1-6 pair
    assert rep.witness == rep.failures[0]


def test_induced_free_matches_naive_on_random_hypergraphs():
    for h in random_hypergraphs(420, 60):
        rep = check_induced_free(h, 4)
        bad = naive_offenders(h, 4)
        assert rep.passed == (not bad)
        if bad:
            assert rep.witness in bad


def test_induced_free_equals_all_pairs_sweep():
    cases = [(h, 4) for h in random_hypergraphs(420, 60)]
    cases += [(build_h6(20).hypergraph, 6), (OVERLAP3, 5)]
    failing = 0
    for h, r in cases:
        _, _, _, candidates, pairs = all_pairs_sweep(h, r, True)
        stats = {"pairs": pairs, "cliques": clique_count(h, r - 2), "candidates": candidates}
        for verbose in (False, True):
            rep = check_induced_free(h, r, verbose)
            passed, witness, failures, _, _ = all_pairs_sweep(h, r, verbose)
            assert (rep.passed, rep.witness, rep.failures) == (passed, witness, failures)
            # failing or not, verbose or not: the whole enumeration is counted
            assert rep.stats == stats
        failing += not rep.passed
    assert failing >= 10


def test_induced_free_stats_count_the_whole_enumeration():
    rep = check_induced_free(OVERLAP3, 5)
    assert rep.witness == (0, 2, 3, 4, 5)
    full = check_induced_free(OVERLAP3, 5, verbose=True)
    assert rep.stats == full.stats
    # all C(7, 2) pairs; the triangle 234 has common neighbourhood 0156
    # (6 pairs), and each of the other 18 triangles lies in one K_5 and has
    # two common neighbours (1 pair)
    assert full.stats["pairs"] == 21
    assert full.stats["candidates"] == 18 + 6 == all_pairs_sweep(OVERLAP3, 5, True)[3]
    # two K_5 sharing the triangle 234 hold 10 + 10 - 1 triangles
    assert full.stats["cliques"] == 19 == clique_count(OVERLAP3, 3)
    # isolated vertex 7 adds 7 pairs to the sweep but no clique
    iso = check_induced_free(UniformHypergraph(8, 5, OVERLAP3.edges), 5, verbose=True)
    assert iso.stats["pairs"] == 28 and iso.stats["cliques"] == full.stats["cliques"]


def test_induced_free_report_is_pinned_on_a_scaffold():
    # hprime n=400 with the sweep's digits3 slopes 10*{1,2,4,5}: every
    # (r-2)-clique has exactly one pair in its common neighbourhood
    reduced = ap_digits3(10)
    slopes = ApSet(10 * reduced.n, tuple(10 * b for b in reduced.elements))
    rep = check_induced_free(build_hprime(400, slopes).hypergraph, 5)
    assert (rep.passed, rep.witness, rep.failures) == (True, None, [])
    assert rep.stats == {"pairs": 748476, "cliques": 13570, "candidates": 13570}


def test_induced_free_failing_report_is_pinned():
    # the slopes {1, 2, 3} form a progression, so the chains' skeletons meet
    rep = check_induced_free(build_hB(10, ApSet(3, (1, 2, 3))), 5, verbose=True)
    assert not rep.passed and rep.witness_kind == "near-clique"
    assert rep.witness == (0, 1, 13, 25, 26) == rep.failures[0]
    assert rep.failures[1:4] == [(0, 1, 14, 26, 27), (0, 1, 14, 27, 28), (0, 1, 2, 13, 25)]
    assert len(rep.failures) == 328
    digest = hashlib.sha256(repr(rep.failures).encode()).hexdigest()
    assert digest == "62033c4996c1f5f9571270164dcf65f8f2b5e49bef85bb0b78df48e5b5702c5a"
    assert rep.stats == {"pairs": 528, "cliques": 202, "candidates": 760}


def test_induced_free_counts_a_repeated_hyperedge_once():
    # a pass is decided by the count C(r, 2) per distinct hyperedge, so a
    # repeated edge must not raise the count that a pass needs
    chain = build_chain(3).hypergraph
    cases = [(UniformHypergraph(chain.n, 5, chain.edges + [chain.edges[1]]), 5)]
    cases += random_hypergraphs_with_repeats(1729, 80)
    passing = 0
    for h, r in cases:
        assert len(set(h.edges)) < len(h.edges)
        candidates = all_pairs_sweep(h, r, True)[3]
        for verbose in (False, True):
            rep = check_induced_free(h, r, verbose)
            passed, witness, failures, _, _ = all_pairs_sweep(h, r, verbose)
            assert (rep.passed, rep.witness, rep.failures) == (passed, witness, failures)
            assert rep.stats["candidates"] == candidates
        assert rep.passed == (not naive_offenders(h, r))
        passing += rep.passed
    assert 10 <= passing < len(cases)


def test_induced_free_passes_exactly_when_the_count_is_met():
    reduced = ap_digits3(10)
    cases = [(h, 4) for h in random_hypergraphs(420, 60)]
    cases += random_hypergraphs_with_repeats(1729, 80)
    cases += [
        (OVERLAP3, 5),
        (build_chain(3).hypergraph, 5),
        (build_h6(20).hypergraph, 6),
        (build_hprime(400, ApSet(10 * reduced.n, tuple(10 * b for b in reduced.elements))).hypergraph, 5),
        (build_hB(10, ApSet(3, (1, 2, 3))), 5),
    ]
    for h, r in cases:
        rep = check_induced_free(h, r)
        assert rep.passed == (rep.stats["candidates"] == len(set(h.edges)) * r * (r - 1) // 2)


def test_pair_condition_passes_on_builders():
    for c in (build_chain(1), build_chain(4), build_h6(50)):
        assert check_pair_condition(c.hypergraph, c.f_pairs).passed


def test_pair_condition_catches_tampering():
    c = build_chain(3)
    pairs = list(c.f_pairs)
    pairs[0] = (0, 1)  # inside edge 0 only, so containment in edge 1 is missing
    rep = check_pair_condition(c.hypergraph, pairs)
    assert not rep.passed and rep.witness == (0, 1)
    assert rep.witness_kind == "pair-containment"


def test_pair_condition_catches_extra_containment():
    # duplicate edge: the pair of edge 0 now also sits inside edge 2
    h = UniformHypergraph(8, 5, [(0, 1, 2, 3, 4), (3, 4, 5, 6, 7), (0, 1, 2, 3, 4)])
    pairs = [(3, 4), (6, 7), (0, 1)]
    rep = check_pair_condition(h, pairs)
    assert not rep.passed and rep.witness == (0, 2)


def test_pair_condition_last_pair_must_be_private():
    c = build_chain(2)
    pairs = [c.f_pairs[0], c.f_pairs[0]]  # final pair also lives in edge 0
    rep = check_pair_condition(c.hypergraph, pairs)
    assert not rep.passed and rep.witness[0] == 1


def test_pair_condition_rejects_degenerate_pair():
    # vertex 3 lies in exactly edges 0 and 1, so (3, 3) would otherwise pass
    c = build_chain(4)
    pairs = [(3, 3)] + list(c.f_pairs[1:])
    with pytest.raises(ValueError, match="degenerate"):
        check_pair_condition(c.hypergraph, pairs)


def walk_or_error(check, h, pairs):
    """``check(h, pairs)``'s report fields, or the message it raises."""
    try:
        rep = check(h, pairs)
    except ValueError as err:
        return str(err)
    return rep.passed, rep.witness, rep.witness_kind, rep.stats


def pair_condition_reference(h, f_pairs):
    """Cond (ii) from its definition, pair by pair: the first pair whose
    containment set is not {i, i+1} ({i} for the last) fails, and a
    degenerate pair reached on the way raises."""
    m = len(h.edges)
    stats = {"pairs": m, "containments": 0}
    for i, (u, v) in enumerate(f_pairs):
        if u == v:
            raise ValueError(f"pair {i} is degenerate: ({u}, {v})")
        containing = {j for j, e in enumerate(h.edges) if u in e and v in e}
        stats["containments"] += len(containing)
        expected = {i} if i == m - 1 else {i, i + 1}
        if containing != expected:
            witness = (i, min(containing ^ expected))
            return verify.VerificationReport(False, witness, "pair-containment", stats, [])
    return verify.VerificationReport(True, None, None, stats, [])


def test_pair_condition_lookup_matches_the_walk():
    # the lookup must read every case as the definition reads it: swapped,
    # repeated, degenerate and moved pairs, out-of-range ones, and ones
    # whose key u * n + v is a real pair's, one or two at a time.  ``extra``
    # passes but for pair 1, which also lies in edge 4; ``dup`` names an
    # edge twice; in ``early`` pair 1 lies in edges 0 and 1, not in 1 and 2.
    rng = random.Random(5)
    extra = UniformHypergraph(6, 3, [(0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 5), (2, 3, 5)])
    dup = UniformHypergraph(8, 5, [(0, 1, 2, 3, 4), (3, 4, 5, 6, 7), (0, 1, 2, 3, 4)])
    early = UniformHypergraph(9, 4, [(0, 1, 2, 3), (1, 2, 3, 4), (5, 6, 7, 8)])
    cases = [(c.hypergraph, c.f_pairs) for c in (build_chain(1), build_chain(6), build_h6(20))]
    cases += [
        (extra, [(1, 2), (2, 3), (3, 4), (3, 5), (2, 5)]),
        (dup, [(3, 4), (6, 7), (0, 1)]),
        (early, [(1, 2), (1, 3), (5, 6)]),
        (UniformHypergraph(3, 2, []), []),
    ]
    assert walk_or_error(check_pair_condition, *cases[3]) == (
        False, (1, 4), "pair-containment", {"pairs": 5, "containments": 5}
    )
    for h, f_pairs in cases:
        assert walk_or_error(check_pair_condition, h, f_pairs) == walk_or_error(
            pair_condition_reference, h, f_pairs
        )
        for _ in range(80 if f_pairs else 0):
            pairs = list(f_pairs)
            for _ in range(rng.randint(1, 2)):
                i = rng.randrange(len(pairs))
                u, v = pairs[i]
                pairs[i] = rng.choice([
                    (v, u),
                    pairs[rng.randrange(len(pairs))],
                    (u, u),
                    (v, v),
                    (u, -1),
                    (h.n, v),
                    (u - 1, v + h.n),
                    (u + 1, v - h.n),
                    tuple(rng.sample(range(h.n), 2)),
                ])
            got = walk_or_error(check_pair_condition, h, pairs)
            assert got == walk_or_error(pair_condition_reference, h, pairs)


def test_pair_condition_length_mismatch_rejected():
    c = build_chain(2)
    with pytest.raises(ValueError):
        check_pair_condition(c.hypergraph, c.f_pairs[:1])


def test_ap_free_checker():
    assert check_ap_free(ApSet(5, (1, 2, 4, 5))).passed
    assert check_ap_free(ApSet(9, ())).passed
    assert check_ap_free(ApSet(9, (7,))).passed
    rep = check_ap_free(ApSet(5, (1, 3, 5)))
    assert not rep.passed and rep.witness == (1, 3, 5)
    a, b, c = rep.witness
    assert a + c == 2 * b
    rep2 = check_ap_free(ApSet(10, (2, 3, 4, 9)))
    assert rep2.witness == (2, 3, 4)


def test_residue_lemma_small_range():
    for n in (10, 20, 30, 50):
        rep = check_residue_lemma(n)
        assert rep.passed and rep.stats["combinations"] > 0
    with pytest.raises(ValueError):
        check_residue_lemma(9)


def test_verify_construction_merges_both_checks():
    rep = verify_construction(build_chain(3), 5)
    assert rep.passed
    assert rep.stats["cond_i"] == 1 and rep.stats["cond_ii"] == 1
    assert rep.stats["cond_i_pairs"] > 0 and rep.stats["cond_ii_pairs"] == 3
    assert 0 < rep.stats["cond_i_cliques"]


def test_verify_construction_reports_first_failing_condition():
    good = build_chain(2)
    bad = ConstructionOutput(OVERLAP3, [(2, 3), (3, 4)], good.start, {})
    rep = verify_construction(bad, 5)
    assert not rep.passed and rep.witness_kind == "near-clique"
    assert rep.stats["cond_i"] == 0


def test_verify_construction_on_heavier_builders():
    assert verify_construction(build_h6(30), 6).passed
    assert verify_construction(build_hprime(120, ApSet(20, (10, 20))), 5).passed
