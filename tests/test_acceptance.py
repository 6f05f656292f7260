"""Release gate: one test per numbered shipping requirement.

Each test prints a single ``ACCEPTANCE <k> <name>: PASS/FAIL`` line (visible
with ``pytest -rA`` or ``-s``) in addition to the usual pytest verdict, so the
checklist can be read off the log.  Requirement 1 has an optional long variant
behind ``-m slow``.
"""
from __future__ import annotations

import contextlib
import functools
import itertools
import random
import time

import pytest

from krboot.apsets import ApSet, ap_digits3, ap_max_exhaustive
from krboot.constructions import (
    build_chain,
    build_h6,
    build_hprime,
    minimal_percolating,
)
from krboot.engine import run, run_oracle
from krboot.graphs import Graph, UniformHypergraph, cone, two_skeleton
from krboot.verify import (
    check_ap_free,
    check_induced_free,
    check_pair_condition,
    check_residue_lemma,
    verify_construction,
)


@contextlib.contextmanager
def gate(num: int, name: str):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {num} {name}: PASS ({time.perf_counter() - t0:.1f}s)")


@functools.lru_cache(maxsize=None)
def h6_run(n: int):
    """Build and simulate once; requirements 2 and 3 share the result."""
    c = build_h6(n)
    trace = run(c.start, 6, Graph.complete(c.hypergraph.n))
    return c, trace


def test_criterion_1_exact_small_maxtime():
    from krboot.search import max_running_time

    with gate(1, "exact-small-maxtime"):
        for n in (3, 4, 5, 6):
            assert max_running_time(n, 3).max_time == (n - 2).bit_length()
        for n in (4, 5, 6):
            assert max_running_time(n, 4).max_time == n - 3


@pytest.mark.slow
def test_criterion_1_slow_n7():
    from krboot.search import max_running_time

    with gate(1, "exact-small-maxtime-n7"):
        assert max_running_time(7, 3).max_time == 3
        assert max_running_time(7, 4).max_time == 4


def test_criterion_2_order6_pipeline():
    with gate(2, "order-6-pipeline"):
        for n in (10, 20, 30, 40, 50):
            c, trace = h6_run(n)
            assert verify_construction(c, 6).passed
            m = len(c.hypergraph.edges)
            assert m == n * n // 100
            # each designated pair comes back alone, in construction order
            assert trace.steps[:m] == [[f] for f in c.f_pairs]
            assert trace.running_time >= m


def test_criterion_3_cone_reduction():
    with gate(3, "cone-reduction"):
        for n in (10, 20):
            c, trace6 = h6_run(n)
            lifted = cone(c.start)
            host = Graph.complete(c.hypergraph.n + 1)
            trace7 = run(lifted, 7, host)
            assert trace7.steps == trace6.steps
            assert trace7.running_time == trace6.running_time


def test_criterion_4_order5_pipeline():
    with gate(4, "order-5-pipeline"):
        reduced = ap_digits3(10)
        assert reduced.elements == (1, 2, 4, 5)
        slopes = ApSet(100, tuple(10 * b for b in reduced.elements))
        c = build_hprime(400, slopes)
        assert verify_construction(c, 5).passed
        m = len(c.hypergraph.edges)
        assert m >= 400 * 40 // 20 - 8 * 16  # = 672
        trace = run(c.start, 5, Graph.complete(c.hypergraph.n), max_steps=m)
        assert trace.steps == [[f] for f in c.f_pairs]


def test_criterion_5_minimal_percolating():
    with gate(5, "minimal-percolating"):
        for n, r in ((6, 4), (7, 4), (7, 5), (8, 5)):
            g = minimal_percolating(n, r)
            host = Graph.complete(n)
            trace = run(g, r, host)
            assert trace.percolated and trace.running_time == 1
            # single-edge-removal probe: recorded, not asserted
            still = 0
            for u, v in list(g.edges()):
                probe = g.copy()
                probe.remove_edge(u, v)
                if run(probe, r, host).percolated:
                    still += 1
            print(f"  ({n},{r}): {still}/{g.edge_count()} single removals still percolate")


def test_criterion_6_engine_equivalence():
    with gate(6, "engine-equivalence"):
        rng = random.Random(20240917)
        for _ in range(1000):
            n = rng.randint(2, 8)
            r = rng.choice((3, 4, 5))
            start = Graph(n)
            for u in range(n):
                for v in range(u + 1, n):
                    if rng.random() < 0.5:
                        start.add_edge(u, v)
            host = Graph.complete(n)
            assert run(start, r, host).to_json() == run_oracle(start, r, host).to_json()


def brute_max_ap_free_size(n: int) -> int:
    best = 0
    for mask in range(1 << n):
        elems = [i + 1 for i in range(n) if mask >> i & 1]
        have = set(elems)
        if any(
            2 * b == a + c
            for a, b, c in itertools.combinations(elems, 3)
            if b in have
        ):
            continue
        best = max(best, len(elems))
    return best


def test_criterion_7_progression_free_machinery():
    with gate(7, "progression-free-machinery"):
        for n in range(1, 13):
            assert len(ap_max_exhaustive(n).elements) == brute_max_ap_free_size(n)
        for n in (9, 100, 6561):
            assert check_ap_free(ap_digits3(n)).passed
        assert len(ap_digits3(6561).elements) >= 256
        for n in (10, 20, 30, 50):
            assert check_residue_lemma(n).passed


def test_criterion_8_negative_controls():
    with gate(8, "negative-controls"):
        # two 5-edges sharing three vertices: not induced-free
        h = UniformHypergraph(7, 5, [(0, 1, 2, 3, 4), (2, 3, 4, 5, 6)])
        rep = check_induced_free(h, 5)
        assert not rep.passed
        skel = two_skeleton(h)
        spanned = sum(
            skel.has_edge(a, b) for a, b in itertools.combinations(rep.witness, 2)
        )
        assert spanned >= 5 * 4 // 2 - 1
        assert rep.witness not in set(h.edges)
        # the hand-derived offender is among the full enumeration
        assert (1, 2, 3, 4, 5) in check_induced_free(h, 5, verbose=True).failures

        # tampered chain: first pair pushed inside its own edge only
        c = build_chain(3)
        pairs = list(c.f_pairs)
        pairs[0] = (0, 1)
        rep = check_pair_condition(c.hypergraph, pairs)
        assert not rep.passed
        i, j = rep.witness
        m = len(pairs)
        contained = set(pairs[i]) <= set(c.hypergraph.edges[j])
        allowed = (i == m - 1 and j == m - 1) or (i < m - 1 and j in (i, i + 1))
        assert contained != allowed

        # arithmetic progression slips through nothing
        rep = check_ap_free(ApSet(5, (1, 3, 5)))
        assert not rep.passed
        a, b, cc = rep.witness
        assert 2 * b == a + cc and {a, b, cc} <= {1, 3, 5}
