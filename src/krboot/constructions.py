"""Builders for the slow-percolating start graphs and their hypergraph scaffolds.

Each scaffold is an ordered r-uniform hypergraph whose consecutive edges
overlap in a designated pair f_i.  Deleting those pairs from the 2-skeleton
gives a start graph that the K_r process must repair one pair per step, so the
edge count of the scaffold is a lower bound on the running time.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .apsets import ApSet
from .graphs import Graph, UniformHypergraph, cone, two_skeleton
from .verify import check_ap_free


class IntegrityError(ValueError):
    """A built object violates one of its own structural invariants."""


@dataclass
class ConstructionOutput:
    """A scaffold hypergraph with its pair sequence and start graph.

    ``f_pairs[i]`` is contained in ``hypergraph.edges[i]``; ``start`` is the
    2-skeleton with exactly those pairs deleted.  The skeleton itself is not
    kept: ``two_skeleton(hypergraph)`` rebuilds it.  Parts a family does not
    make are None: hB makes only the hypergraph, minimal and cone-of only
    the start graph.
    """

    hypergraph: UniformHypergraph | None = None
    f_pairs: list[tuple[int, int]] | None = None
    start: Graph | None = None
    meta: dict = field(default_factory=dict)

    @property
    def vertices(self) -> int:
        """Vertex count of the parts that were made."""
        return (self.hypergraph if self.hypergraph is not None else self.start).n


def _minus_pairs(g: Graph, f_pairs: list[tuple[int, int]]) -> Graph:
    """Remove ``f_pairs`` from ``g`` in place and return ``g``; every pair
    must still be an edge when its turn comes."""
    for u, v in f_pairs:
        if not g.has_edge(u, v):
            raise IntegrityError(
                f"designated pair ({u}, {v}) is not a (remaining) skeleton edge"
            )
        g.remove_edge(u, v)
    return g


def _assemble(
    h: UniformHypergraph, f_pairs: list[tuple[int, int]], meta: dict
) -> ConstructionOutput:
    if len(f_pairs) != len(h.edges):
        raise IntegrityError("need exactly one designated pair per hyperedge")
    if len(set(h.edges)) != len(h.edges):
        raise IntegrityError("hyperedges must be pairwise distinct")
    for i, ((u, v), e) in enumerate(zip(f_pairs, h.edges)):
        if u not in e or v not in e:
            raise IntegrityError(f"pair {f_pairs[i]} not inside hyperedge {i}")
    return ConstructionOutput(h, f_pairs, _minus_pairs(two_skeleton(h), f_pairs), meta)


# ---------------------------------------------------------------- 6-uniform


def build_h6(n: int) -> ConstructionOutput:
    """Quadratically long 6-uniform scaffold on 4n + 40 vertices.

    Two index rings of coprime-ish lengths n and n + 20 walk out of phase;
    floor(n^2 / 100) edges fit before any two coincide.  Vertex blocks are
    laid out X, Z, Y, W.
    """
    if n < 10:
        raise ValueError("need n >= 10")
    ell = n + 20
    x0, z0, y0, w0 = 0, n, n + ell, 2 * n + ell
    nv = 2 * n + 2 * ell
    m = n * n // 100

    labels: dict[int, tuple[str, int]] = {}
    for i in range(n):
        labels[x0 + i] = ("X", i)
        labels[y0 + i] = ("Y", i)
    for i in range(ell):
        labels[z0 + i] = ("Z", i)
        labels[w0 + i] = ("W", i)

    edges = []
    f_pairs = []
    for t in range(m):
        edges.append(
            (
                x0 + t % n,
                x0 + (t + 1) % n,
                y0 + (t + 1) % n,
                z0 + t % ell,
                z0 + (t + 1) % ell,
                w0 + (t + 1) % ell,
            )
        )
        u, v = x0 + (t + 1) % n, z0 + (t + 1) % ell
        f_pairs.append((u, v) if u < v else (v, u))

    h = UniformHypergraph(nv, 6, edges, labels)
    return _assemble(h, f_pairs, {"family": "h6", "n": n, "m": m})


# ---------------------------------------------------------------- 5-uniform


def build_chain(m: int) -> ConstructionOutput:
    """Path of m 5-edges on 3m + 2 vertices, consecutive edges sharing a pair."""
    if m < 1:
        raise ValueError("need at least one edge")
    nv = 3 * m + 2
    edges = [tuple(range(3 * i, 3 * i + 5)) for i in range(m)]
    f_pairs = [(3 * i + 3, 3 * i + 4) for i in range(m - 1)]
    f_pairs.append((3 * m, 3 * m + 1))  # last edge hands off its far end
    labels = {v: ("W", v + 1) for v in range(nv)}
    h = UniformHypergraph(nv, 5, edges, labels)
    return _assemble(h, f_pairs, {"family": "chain", "m": m})


def _xyz_ids(n: int):
    # blocks x_0..x_n, y_0..y_n, z_0..z_n
    return 0, n + 1, 2 * n + 2


def _hb_edges(n: int, b: int, s: int, l: int) -> list[tuple[int, ...]]:
    """Slope-b chain edges i = s .. l-1; the full chain is s=0, l=n-2b."""
    x0, y0, z0 = _xyz_ids(n)
    return [
        (x0 + i, x0 + i + 1, y0 + i + b, z0 + i + 2 * b, z0 + i + 2 * b + 1)
        for i in range(s, l)
    ]


def _xyz_labels(n: int) -> dict[int, tuple[str, int]]:
    x0, y0, z0 = _xyz_ids(n)
    labels = {}
    for i in range(n + 1):
        labels[x0 + i] = ("X", i)
        labels[y0 + i] = ("Y", i)
        labels[z0 + i] = ("Z", i)
    return labels


def build_hb(n: int, b: int) -> UniformHypergraph:
    """Single slope-b chain of 5-edges on the x/y/z blocks (3n + 3 vertices)."""
    if b < 1:
        raise ValueError("need b >= 1")
    return build_hB(n, ApSet(b, (b,)))


def check_hB_slopes(n: int, B: ApSet) -> None:
    """Refuse a slope b outside [1, (n - 1) // 2]: its chain would be empty."""
    for b in B.elements:
        if not 1 <= b <= (n - 1) // 2:
            raise ValueError(f"slope {b} outside [1, {(n - 1) // 2}]")


def build_hB(n: int, B: ApSet) -> UniformHypergraph:
    """Union of slope-b chains for every b in B, grouped by ascending slope."""
    check_hB_slopes(n, B)
    edges: list[tuple[int, ...]] = []
    for b in B.elements:
        edges.extend(_hb_edges(n, b, 0, n - 2 * b))
    if len(set(edges)) != len(edges):
        raise IntegrityError("slope chains must not share edges")
    return UniformHypergraph(3 * n + 3, 5, edges, _xyz_labels(n))


def check_hprime_slopes(n: int, B: ApSet) -> None:
    """Refuse B unless it is non-empty, B = 10 * B' with B' 3-AP-free, and B
    lies inside [1, n/4]."""
    if len(B.elements) < 1:
        raise ValueError("need at least one slope")
    for b in B.elements:
        if b % 10 != 0:
            raise ValueError(f"slope {b} is not a multiple of 10")
        if not 1 <= b <= n // 4:
            raise ValueError(f"slope {b} outside [1, {n // 4}]")
    reduced = tuple(b // 10 for b in B.elements)
    rep = check_ap_free(ApSet(max(reduced), reduced))
    if not rep.passed:
        raise ValueError(f"B/10 contains an arithmetic progression: {rep.witness}")


def build_hprime(n: int, B: ApSet) -> ConstructionOutput:
    """Pruned slope chains joined end to end by 3-edge connector chains.

    Requires B = 10 * B' with B' 3-AP-free and B inside [1, n/4].  Each chain
    after the first is trimmed so that its two handoff pairs {x_s, z_{s+2b}}
    and {x_l, z_{l+2b}} avoid every handoff pair used so far; a connector of
    three 5-edges on 7 fresh vertices then links consecutive chains.
    """
    check_hprime_slopes(n, B)
    x0, _, z0 = _xyz_ids(n)

    def handoff(idx: int, b: int) -> tuple[int, int]:
        return (x0 + idx, z0 + idx + 2 * b)

    used: set[int] = set()  # vertices already serving as handoff endpoints
    chains: list[tuple[int, int, int]] = []  # (b, s, l)
    for j, b in enumerate(B.elements):
        hi = n - 2 * b
        if j == 0:
            s, l = 0, hi
        else:
            s = next((i for i in range(hi + 1) if not used & set(handoff(i, b))), None)
            l = next(
                (i for i in range(hi, -1, -1) if not used & set(handoff(i, b))), None
            )
            if s is None or l is None or l - s < 1:
                warnings.warn(f"no room to place slope {b}; skipping it")
                continue
        used |= set(handoff(s, b)) | set(handoff(l, b))
        chains.append((b, s, l))

    gadgets = len(chains) - 1
    nv = 3 * n + 3 + 7 * gadgets
    labels = _xyz_labels(n)
    for g in range(gadgets):
        for i in range(7):
            labels[3 * n + 3 + 7 * g + i] = (f"U{g + 1}", i)

    edges: list[tuple[int, ...]] = []
    for idx, (b, s, l) in enumerate(chains):
        edges.extend(_hb_edges(n, b, s, l))
        if idx < gadgets:
            nb, ns, _ = chains[idx + 1]
            u_base = 3 * n + 3 + 7 * idx
            w = [
                *handoff(l, b),
                *range(u_base, u_base + 7),
                *handoff(ns, nb),
            ]
            edges.append(tuple(w[0:5]))
            edges.append(tuple(w[3:8]))
            edges.append(tuple(w[6:11]))

    # designated pairs: consecutive overlaps, then the last chain's far handoff
    f_pairs: list[tuple[int, int]] = []
    for e1, e2 in zip(edges, edges[1:]):
        shared = sorted(set(e1) & set(e2))
        if len(shared) != 2:
            raise IntegrityError(
                f"consecutive edges must share exactly a pair, got {shared}"
            )
        f_pairs.append((shared[0], shared[1]))
    fb, fs, fl = chains[-1]
    last = handoff(fl, fb)
    f_pairs.append((min(last), max(last)))

    m = len(edges)
    size = len(B.elements)
    if m < n * size / 2 - 8 * size * size:
        raise IntegrityError("edge count fell below the guaranteed floor")
    if nv > 3 * n + 3 + 7 * (size - 1):
        raise IntegrityError("too many connector blocks")

    h = UniformHypergraph(nv, 5, edges, labels)
    meta = {
        "family": "hprime",
        "n": n,
        "B": list(B.elements),
        "chains": [{"b": b, "s": s, "l": l} for b, s, l in chains],
        "m": m,
    }
    return _assemble(h, f_pairs, meta)


# ---------------------------------------------------------------- dense seed


def minimal_percolating(n: int, r: int) -> Graph:
    """Complete graph minus a clique on the last n - r + 2 vertices.

    Smallest K_r-percolating start inside K_n; every missing edge completes a
    K_r immediately, so the whole graph fills in a single step.
    """
    if not 3 <= r <= n:
        raise ValueError(f"need 3 <= r <= n, got r={r}, n={n}")
    g = Graph.complete(n)
    hole = range(r - 2, n)
    for i in hole:
        for j in range(i + 1, n):
            g.remove_edge(i, j)
    expect = n * (n - 1) // 2 - (n - r + 2) * (n - r + 1) // 2
    if g.edge_count() != expect:
        raise IntegrityError("edge count mismatch in dense seed")
    return g


# ---------------------------------------------------------------- family table


class Family(NamedTuple):
    """``builder`` takes the values of ``params`` in order; ``default_r`` is the
    process order the family is built for (None: the caller picks);
    ``min_size`` is the least size ``n`` that ``builder`` accepts with any
    other parameters (None: the family has no size); ``parts`` names the
    ``ConstructionOutput`` fields that ``builder`` fills, meta aside;
    ``check_slopes(n, B)`` raises ValueError on a slope set that ``builder``
    refuses at size ``n`` (None: the family reads no ``B``)."""

    builder: Callable
    params: tuple[str, ...]
    default_r: int | None
    min_size: int | None
    parts: tuple[str, ...] = ("hypergraph", "f_pairs", "start")
    check_slopes: Callable | None = None


def _cone_of(input: str) -> Graph:
    """The cone over the graph in file ``input``: carries an r-start to r + 1."""
    from .fileio import read_graph  # imported here to keep it off ``import krboot``

    return cone(read_graph(input))


FAMILIES: dict[str, Family] = {
    "h6": Family(build_h6, ("n",), 6, 10),
    "chain": Family(build_chain, ("n",), 5, 1),
    # one slope b is the paper's H_b
    "hB": Family(build_hB, ("n", "B"), 5, 3, ("hypergraph",), check_hB_slopes),
    "hprime": Family(build_hprime, ("n", "B"), 5, 40, check_slopes=check_hprime_slopes),
    # 3 <= r <= n
    "minimal": Family(minimal_percolating, ("n", "r"), None, 3, ("start",)),
    "cone-of": Family(_cone_of, ("input",), None, None, ("start",)),
}


def build(family: str, **params) -> ConstructionOutput:
    """Build ``family`` from the ``params`` it reads; the rest are ignored."""
    fam = FAMILIES[family]
    made = fam.builder(*(params[p] for p in fam.params))
    if isinstance(made, ConstructionOutput):
        return made
    (part,) = fam.parts
    return ConstructionOutput(**{part: made})


def read_by(param: str) -> str:
    """The families that read ``param``: 'family cone-of', 'families hB and hprime'."""
    names = [name for name, fam in FAMILIES.items() if param in fam.params]
    if len(names) == 1:
        return f"family {names[0]}"
    return f"families {', '.join(names[:-1])} and {names[-1]}"
