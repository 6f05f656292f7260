"""Structural checkers for the scaffolds: each returns a report whose witness,
on failure, can be re-confirmed directly from the definitions.

A scaffold supports the step-per-pair lower bound iff (i) every r-set of
skeleton vertices spanning at least C(r,2) - 1 edges is exactly a hyperedge,
and (ii) each designated pair lies in precisely its own hyperedge and the next
one (the final pair only in its own).
"""
from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .graphs import UniformHypergraph, iter_bits, near_cliques, two_skeleton

if TYPE_CHECKING:  # pragma: no cover
    from .apsets import ApSet
    from .constructions import ConstructionOutput


class VerificationReport(NamedTuple):
    """``failures`` lists a failing cond (i) check's candidates (all of them
    in verbose mode); it is empty in every other report.  Each report is
    given its own ``stats`` and ``failures``: a tuple's defaults would be
    shared."""

    passed: bool
    witness: tuple | None
    witness_kind: str | None
    stats: dict[str, int]
    failures: list[tuple]


def check_induced_free(
    h: UniformHypergraph, r: int, verbose: bool = False
) -> VerificationReport:
    """Does every near-complete r-set of the 2-skeleton sit inside a hyperedge?

    An r-set spanning at least C(r,2) - 1 skeleton edges is an (r-2)-clique Q
    plus a pair {u, v} from Q's common neighbourhood, with {u, v} the one
    possibly-missing pair.  So the check enumerates each (r-2)-clique Q once,
    with ``graphs.near_cliques``, and counts the pairs u < v of the AND of
    Q's rows: each (u, v, Q) triple is a candidate Q + {u, v}, and a pass
    means every candidate is some hyperedge's vertex set.

    A pass is decided by that count alone.  A K_r gives C(r,2) triples, one
    for each of its pairs; an r-set missing one edge {a, b} gives exactly
    one, with Q the rest of it; and every hyperedge is a K_r of its
    skeleton.  So the triples number at least C(r,2) per distinct
    hyperedge, with equality iff no other r-set is near-complete, which is
    the pass.

    Only a count above that builds the set of hyperedges (a pass needs only
    their number) and runs the triple walk, and its failing triples
    are sorted into the sweep's order: over vertex pairs in ascending order,
    each pair's common-neighbourhood cliques in lexicographic order.  The
    witness is the candidate of the least failing triple, and ``verbose``
    lists every failing candidate once, in the order of its least triple.

    ``stats["cliques"]`` counts the (r-2)-cliques of the skeleton,
    ``stats["candidates"]`` the triples and ``stats["pairs"]`` the C(n, 2)
    vertex pairs; all three are the same with or without ``verbose``, and
    whether or not the walk runs.
    """
    if h.r != r:
        raise ValueError(f"hypergraph is {h.r}-uniform, expected {r}")
    if r < 3:
        raise ValueError("need r >= 3")
    n = h.n
    distinct = len(set(h.edges))
    skel = two_skeleton(h)
    cliques = candidates = 0
    for _, common in near_cliques(skel.adj, r - 2):
        cliques += 1
        c = common.bit_count()
        candidates += c * (c - 1) // 2
    stats = {"pairs": n * (n - 1) // 2, "cliques": cliques, "candidates": candidates}
    if candidates == distinct * (r * (r - 1) // 2):
        return VerificationReport(True, None, None, stats, [])
    edge_sets = set(h.edges)
    bad: list[tuple[int, int, tuple[int, ...]]] = []
    for clique, common in near_cliques(skel.adj, r - 2):
        for v in iter_bits(common):
            common ^= 1 << v  # the vertices of the AND below v
            for u in iter_bits(common):
                if tuple(sorted(clique + (u, v))) not in edge_sets:
                    bad.append((u, v, clique))
    bad.sort()
    wu, wv, wq = bad[0]
    witness = tuple(sorted(wq + (wu, wv)))
    if verbose:
        failures = list(dict.fromkeys(tuple(sorted(q + (u, v))) for u, v, q in bad))
    else:
        failures = [witness]
    return VerificationReport(False, witness, "near-clique", stats, failures)


def check_pair_condition(
    h: UniformHypergraph, f_pairs: Sequence[tuple[int, int]]
) -> VerificationReport:
    """Is pair i contained in exactly edges {i, i+1} (last pair: just itself)?

    Witness on failure is (i, j): the lowest pair index i whose containment
    set is wrong, with j the first edge index in the symmetric difference.

    A pass is decided by lookup (``_pairs_pass``), with no incidence sets.
    Anything else goes to the incidence walk (``_pair_walk``), which gives
    the witness, the stats and the ValueError for a degenerate pair.
    """
    m = len(h.edges)
    if len(f_pairs) != m:
        raise ValueError(f"{len(f_pairs)} pairs for {m} edges")
    if _pairs_pass(h, f_pairs):
        # pairs 0 .. m-2 lie in two edges each, the last in one
        stats = {"pairs": m, "containments": max(2 * m - 1, 0)}
        return VerificationReport(True, None, None, stats, [])
    return _pair_walk(h, f_pairs)


def _pairs_pass(h: UniformHypergraph, f_pairs: Sequence[tuple[int, int]]) -> bool:
    """Does cond (ii) hold?  Each pair {u, v}, u < v, is keyed as ``u * n +
    v`` to its index, and each hyperedge's C(r, 2) pairs are looked up.
    ``seen[i]`` marks whether edge i (1), edge i + 1 (2) or another edge (4)
    holds pair i.  A degenerate pair, or one with a vertex outside [0, n)
    whose key could be another pair's, gives False at once.  A repeated
    pair keeps only its last index, so its first is never marked."""
    n, m = h.n, len(f_pairs)
    index: dict[int, int] = {}
    for i, (u, v) in enumerate(f_pairs):
        if u > v:
            u, v = v, u
        if not 0 <= u < v < n:
            return False
        index[u * n + v] = i
    seen = bytearray(m)
    get = index.get
    for j, e in enumerate(h.edges):
        for a, b in itertools.combinations(e, 2):  # a < b: edges are sorted
            i = get(a * n + b)
            if i is not None:
                seen[i] |= 1 if i == j else 2 if i + 1 == j else 4
    return not m or (seen.count(3) == m - 1 and seen[-1] == 1)


def _pair_walk(h: UniformHypergraph, f_pairs: Sequence[tuple[int, int]]) -> VerificationReport:
    """Cond (ii) by per-vertex incidence sets, pair by pair: the witness and
    stats of a failure, or ValueError at the first degenerate pair."""
    m = len(h.edges)
    incidence: dict[int, set[int]] = {}
    for j, e in enumerate(h.edges):
        for v in e:
            incidence.setdefault(v, set()).add(j)
    stats = {"pairs": m, "containments": 0}
    for i, (u, v) in enumerate(f_pairs):
        if u == v:
            raise ValueError(f"pair {i} is degenerate: ({u}, {v})")
        containing = incidence.get(u, set()) & incidence.get(v, set())
        stats["containments"] += len(containing)
        expected = {i} if i == m - 1 else {i, i + 1}
        if containing != expected:
            j = min(containing.symmetric_difference(expected))
            return VerificationReport(False, (i, j), "pair-containment", stats, [])
    return VerificationReport(True, None, None, stats, [])


def check_ap_free(s: "ApSet") -> VerificationReport:
    """No three elements a < b < c with a + c = 2b."""
    elems = s.elements
    member = set(elems)
    stats = {"pairs": 0}
    for i, a in enumerate(elems):
        for c in elems[i + 1 :]:
            stats["pairs"] += 1
            if (a + c) % 2 == 0:
                b = (a + c) // 2
                if b in member:
                    return VerificationReport(False, (a, b, c), "ap-triple", stats, [])
    return VerificationReport(True, None, None, stats, [])


def check_residue_lemma(n: int) -> VerificationReport:
    """Brute-force the index-separation fact used by the 6-uniform scaffold.

    For every |d| <= n^2/100 and |s1|, |s2| <= 2 with d = s1 (mod n) and
    d = s2 (mod n + 20), it must follow that d = s1 = s2.  Witness is a
    violating (d, s1, s2).
    """
    if n < 10:
        raise ValueError("need n >= 10")
    ell = n + 20
    dmax = n * n // 100
    stats = {"combinations": 0}
    for d in range(-dmax, dmax + 1):
        ones = [s for s in range(-2, 3) if (d - s) % n == 0]
        twos = [s for s in range(-2, 3) if (d - s) % ell == 0]
        for s1 in ones:
            for s2 in twos:
                stats["combinations"] += 1
                if not (d == s1 == s2):
                    return VerificationReport(False, (d, s1, s2), "residue", stats, [])
    return VerificationReport(True, None, None, stats, [])


def verify_construction(c: "ConstructionOutput", r: int) -> VerificationReport:
    """Both scaffold conditions together; stats are merged with prefixes."""
    rep_i = check_induced_free(c.hypergraph, r)
    rep_ii = check_pair_condition(c.hypergraph, c.f_pairs)
    stats = {"cond_i": int(rep_i.passed), "cond_ii": int(rep_ii.passed)}
    for key, val in rep_i.stats.items():
        stats[f"cond_i_{key}"] = val
    for key, val in rep_ii.stats.items():
        stats[f"cond_ii_{key}"] = val
    failed = rep_i if not rep_i.passed else rep_ii
    if not failed.passed:
        return VerificationReport(
            False, failed.witness, failed.witness_kind, stats, failed.failures
        )
    return VerificationReport(True, None, None, stats, [])
