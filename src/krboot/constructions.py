"""Builders for the slow-percolating start graphs and their hypergraph scaffolds.

Each scaffold is an ordered r-uniform hypergraph whose consecutive edges
overlap in a designated pair f_i.  Deleting those pairs from the 2-skeleton
gives a start graph that the K_r process must repair one pair per step, so the
edge count of the scaffold is a lower bound on the running time.

Every scaffold is one or more affine walks over labelled vertex blocks: each
of a walk's slots gives hyperedge t one vertex of a block, at an index affine
in t, and hyperedge t's designated pair is two of its slots.
"""
from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple

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
    must still be an edge when its turn comes.  Each pair is checked once,
    by ``has_edge``, and its two bits are then cleared in the rows."""
    adj = g.adj
    for u, v in f_pairs:
        if not g.has_edge(u, v):
            raise IntegrityError(
                f"designated pair ({u}, {v}) is not a (remaining) skeleton edge"
            )
        adj[u] ^= 1 << v
        adj[v] ^= 1 << u
    return g


# ---------------------------------------------------------------- affine walks


Labels = dict[int, tuple[str, int]]
Slot = tuple[list[int], int, int]  # (ids, a, c)
Walk = tuple[Iterator[tuple[int, ...]], list[tuple[int, int]]]  # hyperedges, pairs


def _block(labels: Labels, cls: str, size: int, first: int = 0) -> list[int]:
    """The ids of ``size`` new vertices, numbered on from those ``labels``
    holds, which labels them (cls, first), (cls, first + 1), ..."""
    ids = list(range(len(labels), len(labels) + size))
    for i, v in enumerate(ids, first):
        labels[v] = (cls, i)
    return ids


def _affine_walk(slots: list[Slot], pair: tuple[int, int], ts: range) -> Walk:
    """The hyperedges of one affine walk, steps ``ts``, and their designated pairs.

    Slot ``(ids, a, c)`` gives hyperedge t the vertex ``ids[(a*t + c) % len(ids)]``,
    and its pair is the vertices of its two slots ``pair``, ascending.  The
    hyperedges come as an iterator in slot order, the pairs as a list.  Every
    id is taken from a block's list, so each vertex is one int object however
    many hyperedges and pairs hold it.
    """
    cols = []
    for ids, a, c in slots:
        size = len(ids)
        # the index repeats with period len(ids) in t: one period, cycled
        period = [ids[(a * t + c) % size] for t in ts[:size]]
        cols.append(list(itertools.islice(itertools.cycle(period), len(ts))))
    i, j = pair
    pairs = [(u, v) if u < v else (v, u) for u, v in zip(cols[i], cols[j])]
    # a generator, not the bare zip: once it is drained, the columns go
    return (e for e in zip(*cols)), pairs


def _chain_walk(ids: list[int], ts: range) -> Walk:
    """5-edges ids[3t : 3t + 5], each handing its last two ids to the next."""
    return _affine_walk([(ids, 3, c) for c in range(5)], (3, 4), ts)


def _slope_walk(xyz: list[list[int]], b: int, ts: range) -> Walk:
    """Slope-b 5-edges (x_i, x_{i+1}, y_{i+b}, z_{i+2b}, z_{i+2b+1}), i in ``ts``;
    consecutive ones share {x_{i+1}, z_{i+2b+1}}."""
    x, y, z = xyz
    slots = [(x, 1, 0), (x, 1, 1), (y, 1, b), (z, 1, 2 * b), (z, 1, 2 * b + 1)]
    return _affine_walk(slots, (1, 4), ts)


def _hypergraph(r: int, walks: list[Walk], labels: Labels) -> UniformHypergraph:
    """The walks' hyperedges, one walk after another, on the labelled blocks."""
    edges = itertools.chain.from_iterable(e for e, _ in walks)
    return UniformHypergraph(len(labels), r, edges, labels)


def _assemble(r: int, walks: list[Walk], labels: Labels, meta: dict) -> ConstructionOutput:
    """The walks' hypergraph, their pairs in the same order, and the start."""
    h = _hypergraph(r, walks, labels)
    f_pairs = [f for _, pairs in walks for f in pairs]
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
    labels: Labels = {}
    ell = n + 20
    blocks = (("X", n), ("Z", ell), ("Y", n), ("W", ell))
    x, z, y, w = (_block(labels, cls, size) for cls, size in blocks)
    m = n * n // 100
    slots = [(x, 1, 0), (x, 1, 1), (y, 1, 1), (z, 1, 0), (z, 1, 1), (w, 1, 1)]
    walk = _affine_walk(slots, (1, 4), range(m))
    return _assemble(6, [walk], labels, {"family": "h6", "n": n, "m": m})


# ---------------------------------------------------------------- 5-uniform


def build_chain(m: int) -> ConstructionOutput:
    """Path of m 5-edges on 3m + 2 vertices, consecutive edges sharing a pair;
    the last edge hands off its far end."""
    if m < 1:
        raise ValueError("need at least one edge")
    labels: Labels = {}
    walk = _chain_walk(_block(labels, "W", 3 * m + 2, first=1), range(m))
    return _assemble(5, [walk], labels, {"family": "chain", "m": m})


def check_hB_slopes(n: int, B: ApSet) -> None:
    """Refuse a slope b outside [1, (n - 1) // 2]: its chain would be empty."""
    for b in B.elements:
        if not 1 <= b <= (n - 1) // 2:
            raise ValueError(f"slope {b} outside [1, {(n - 1) // 2}]")


def build_hB(n: int, B: ApSet) -> UniformHypergraph:
    """Union of slope-b chains for every b in B, grouped by ascending slope."""
    check_hB_slopes(n, B)
    labels: Labels = {}
    xyz = [_block(labels, cls, n + 1) for cls in "XYZ"]  # x_0..x_n, y_0..y_n, z_0..z_n
    h = _hypergraph(5, [_slope_walk(xyz, b, range(n - 2 * b)) for b in B.elements], labels)
    if len(set(h.edges)) != len(h.edges):
        raise IntegrityError("slope chains must not share edges")
    return h


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
    three 5-edges on 7 fresh vertices then links consecutive chains.  Each
    chain's last pair is its far handoff, which is the connector's (or, for
    the last chain, the scaffold's) first pair.
    """
    check_hprime_slopes(n, B)
    labels: Labels = {}
    xyz = x, _, z = [_block(labels, cls, n + 1) for cls in "XYZ"]

    def handoff(idx: int, b: int) -> list[int]:
        return [x[idx], z[idx + 2 * b]]

    used: set[int] = set()  # vertices already serving as handoff endpoints
    chains: list[tuple[int, int, int]] = []  # (b, s, l)
    for j, b in enumerate(B.elements):
        hi = n - 2 * b
        if j == 0:
            s, l = 0, hi
        else:
            s = next((i for i in range(hi + 1) if used.isdisjoint(handoff(i, b))), None)
            l = next((i for i in range(hi, -1, -1) if used.isdisjoint(handoff(i, b))), None)
            if s is None or l is None or l - s < 1:
                warnings.warn(f"no room to place slope {b}; skipping it")
                continue
        used.update(handoff(s, b) + handoff(l, b))
        chains.append((b, s, l))

    walks: list[Walk] = []
    for g, (b, s, l) in enumerate(chains):
        walks.append(_slope_walk(xyz, b, range(s, l)))
        if g + 1 < len(chains):
            nb, ns, _ = chains[g + 1]
            u = _block(labels, f"U{g + 1}", 7)
            walks.append(_chain_walk(handoff(l, b) + u + handoff(ns, nb), range(3)))

    m = sum(len(pairs) for _, pairs in walks)
    size = len(B.elements)
    if m < n * size / 2 - 8 * size * size:
        raise IntegrityError("edge count fell below the guaranteed floor")
    if len(labels) > 3 * n + 3 + 7 * (size - 1):
        raise IntegrityError("too many connector blocks")
    meta = {
        "family": "hprime",
        "n": n,
        "B": list(B.elements),
        "chains": [{"b": b, "s": s, "l": l} for b, s, l in chains],
        "m": m,
    }
    return _assemble(5, walks, labels, meta)


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
