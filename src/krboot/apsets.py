"""Sets of integers in [1, n] containing no 3-term arithmetic progression.

Two generators at different quality/cost points: a base-3 digit set (fast,
size 2^floor(log3 n)) and an exact branch-and-bound maximiser for tiny n.
``SOURCES`` maps each generator's name to the generator; the CLI and the
sweep config both choose from it.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field


@dataclass(frozen=True)
class ApSet:
    """Ascending integers drawn from [1, n]."""

    n: int
    elements: tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("ambient bound must be non-negative")
        elems = tuple(self.elements)
        object.__setattr__(self, "elements", elems)
        for a, b in zip(elems, elems[1:]):
            if a >= b:
                raise ValueError("elements must be strictly increasing")
        if elems and (elems[0] < 1 or elems[-1] > self.n):
            raise ValueError(f"elements must lie in [1, {self.n}]")

    def __len__(self) -> int:
        return len(self.elements)


def ap_digits3(n: int) -> ApSet:
    """All a+1 where a uses only digits 0 and 1 in the top base-3 block <= n.

    Digit-wise, a + b = 2c with 0/1 digits forces a = b = c, so the set is
    3-AP-free by construction.  Size is exactly 2^k for the largest k with
    3^k <= n.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    k = 0
    while 3 ** (k + 1) <= n:
        k += 1
    powers = [3**i for i in range(k)]
    vals = sorted(sum(c) for j in range(k + 1) for c in itertools.combinations(powers, j))
    return ApSet(n, tuple(v + 1 for v in vals))


def ap_max_exhaustive(n: int) -> ApSet:
    """Exact maximum 3-AP-free subset of [1, n] by branch and bound; n <= 25."""
    if n < 1:
        raise ValueError("need n >= 1")
    if n > 25:
        raise ValueError("exhaustive maximiser is limited to n <= 25")
    best: list[int] = []
    chosen: list[int] = []
    chosen_set: set[int] = set()

    def extend(lo: int) -> None:
        nonlocal best
        if len(chosen) > len(best):
            best = chosen.copy()
        if len(chosen) + (n - lo + 1) <= len(best):
            return
        for x in range(lo, n + 1):
            # x is the largest element, so any new progression ends at x
            if any(2 * b - x in chosen_set for b in chosen):
                continue
            chosen.append(x)
            chosen_set.add(x)
            extend(x + 1)
            chosen.pop()
            chosen_set.remove(x)

    extend(1)
    return ApSet(n, tuple(best))


SOURCES = {"digits3": ap_digits3, "exhaustive": ap_max_exhaustive}
