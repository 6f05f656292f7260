from __future__ import annotations

import itertools

import pytest

from krboot.apsets import SOURCES, ApSet, ap_digits3, ap_max_exhaustive
from krboot.verify import check_ap_free


def brute_max_ap_free(n: int) -> int:
    """Reference maximiser: scan all subsets of [1, n]."""
    for k in range(n, 0, -1):
        for sub in itertools.combinations(range(1, n + 1), k):
            s = set(sub)
            if all(
                (a + c) % 2 == 1 or (a + c) // 2 not in s
                for a, c in itertools.combinations(sub, 2)
            ):
                return k
    return 0


def test_apset_validation():
    ApSet(5, (1, 3, 5))
    ApSet(5, ())
    with pytest.raises(ValueError):
        ApSet(5, (3, 1))
    with pytest.raises(ValueError):
        ApSet(5, (1, 1))
    with pytest.raises(ValueError):
        ApSet(5, (0, 2))
    with pytest.raises(ValueError):
        ApSet(5, (1, 6))


def test_digits3_examples():
    assert ap_digits3(9).elements == (1, 2, 4, 5)
    assert ap_digits3(1).elements == (1,)
    assert len(ap_digits3(27)) == 8
    with pytest.raises(ValueError):
        ap_digits3(0)


def test_digits3_members_use_binary_base3_digits():
    for n in (5, 9, 50, 243):
        s = ap_digits3(n)
        for e in s.elements:
            a = e - 1
            while a:
                assert a % 3 in (0, 1)
                a //= 3
        # size is 2^k for the largest 3^k <= n
        k = 0
        while 3 ** (k + 1) <= n:
            k += 1
        assert len(s) == 2**k


def test_digits3_is_ap_free():
    for n in (2, 9, 100, 729):
        assert check_ap_free(ap_digits3(n)).passed


def test_sources_table_names_both_generators():
    assert SOURCES == {"digits3": ap_digits3, "exhaustive": ap_max_exhaustive}


def test_exhaustive_matches_brute_force():
    for n in range(1, 13):
        assert len(ap_max_exhaustive(n)) == brute_max_ap_free(n)


def test_exhaustive_known_values():
    sizes = [len(ap_max_exhaustive(n)) for n in range(1, 13)]
    assert sizes == [1, 2, 2, 3, 4, 4, 4, 4, 5, 5, 6, 6]
    assert ap_max_exhaustive(5).elements == (1, 2, 4, 5)


def test_exhaustive_results_are_ap_free_and_monotone():
    prev = 0
    for n in range(1, 16):
        s = ap_max_exhaustive(n)
        assert check_ap_free(s).passed
        assert prev <= len(s) <= prev + 1
        prev = len(s)


def test_exhaustive_bounds():
    with pytest.raises(ValueError):
        ap_max_exhaustive(26)
    with pytest.raises(ValueError):
        ap_max_exhaustive(0)
