"""Dense graphs with bitmask adjacency rows, plus uniform hypergraphs.

Vertex ids are dense 0-based integers.  Each adjacency row is a Python int
used as a bit vector, so neighbourhood intersections are single ``&`` ops.
"""
from __future__ import annotations

from typing import Iterable, Iterator, Sequence


def pair(u: int, v: int) -> tuple[int, int]:
    """Normalize an unordered vertex pair to (min, max)."""
    if u == v:
        raise ValueError(f"pair endpoints must be distinct, got ({u}, {v})")
    return (u, v) if u < v else (v, u)


def iter_bits(mask: int) -> Iterator[int]:
    """Yield set-bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def partner_rows(adj: list[int], limit: list[int], k: int) -> Iterator[tuple[int, int]]:
    """Yield ``(u, mask)`` in ascending u: the partners v > u in ``limit[u]``
    that are not adjacent to u.  Rows with an empty mask are skipped.

    A pair whose common neighbourhood holds a k-clique has at least k common
    neighbours.  When u's k neighbour rows cost less than its partners
    (``deg(u) * k < |mask|``), the mask is cut to the vertices that share at
    least k neighbours with u, counted in k bit-sliced saturating levels:
    ``levels[j]`` holds the vertices seen in more than j of u's neighbour
    rows.  Otherwise the mask stays whole, a superset the kernel's own
    common-neighbour count still decides.
    """
    for u, au in enumerate(adj):
        base = u + 1
        mask = (limit[u] & ~au) >> base << base
        if not mask:
            continue
        if au.bit_count() * k < mask.bit_count():
            levels = [0] * k
            for w in iter_bits(au):
                aw = adj[w]
                for j in range(k - 1, 0, -1):
                    levels[j] |= levels[j - 1] & aw
                levels[0] |= aw
            mask &= levels[-1]
            if not mask:
                continue
        yield u, mask


class Graph:
    """Simple undirected graph; no loops, no multi-edges.

    ``adj[u]`` is a bitmask of the neighbours of ``u``.  The matrix is kept
    symmetric by construction and loops are rejected.
    """

    __slots__ = ("n", "adj")

    def __init__(self, n: int):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        self.n = n
        self.adj: list[int] = [0] * n

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        g = cls(n)
        for u, v in edges:
            g.add_edge(u, v)
        return g

    @classmethod
    def complete(cls, n: int) -> "Graph":
        g = cls(n)
        full = (1 << n) - 1
        for u in range(n):
            g.adj[u] = full ^ (1 << u)
        return g

    def _check_vertex(self, u: int) -> None:
        if not 0 <= u < self.n:
            raise ValueError(f"vertex {u} out of range [0, {self.n})")

    def add_edge(self, u: int, v: int) -> None:
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise ValueError(f"loop at vertex {u} rejected")
        self.adj[u] |= 1 << v
        self.adj[v] |= 1 << u

    def remove_edge(self, u: int, v: int) -> None:
        if not self.has_edge(u, v):
            raise ValueError(f"edge ({u}, {v}) not present")
        self.adj[u] &= ~(1 << v)
        self.adj[v] &= ~(1 << u)

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return (self.adj[u] >> v) & 1 == 1

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges as (u, v) with u < v, ascending lexicographic order."""
        for u in range(self.n):
            row = self.adj[u] >> (u + 1)
            while row:
                low = row & -row
                yield (u, u + low.bit_length())
                row ^= low

    def is_subgraph_of(self, other: "Graph") -> bool:
        if self.n != other.n:
            return False
        return all(self.adj[u] & ~other.adj[u] == 0 for u in range(self.n))

    def copy(self) -> "Graph":
        g = Graph(self.n)
        g.adj = self.adj.copy()
        return g

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.adj == other.adj

    __hash__ = None  # mutable; keep unhashable like list

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count()})"


class UniformHypergraph:
    """r-uniform hypergraph with a significant edge ordering.

    Edges are stored as sorted tuples of distinct vertex ids, in the order
    given at construction.  ``labels`` optionally maps a vertex id to a
    (block class, index) tag such as ("X", 3); the class must be a non-empty
    str without whitespace and the index an int, so that the tag is two
    fields of the file format.
    """

    __slots__ = ("n", "r", "edges", "labels")

    def __init__(
        self,
        n: int,
        r: int,
        edges: Iterable[Sequence[int]],
        labels: dict[int, tuple[str, int]] | None = None,
    ):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        if r < 2:
            raise ValueError("uniformity must be at least 2")
        self.n = n
        self.r = r
        self.edges: list[tuple[int, ...]] = []
        for e in edges:
            t = tuple(sorted(e))
            if len(t) != r or len(set(t)) != r:
                raise ValueError(f"edge {e!r} is not a set of {r} distinct vertices")
            if t[0] < 0 or t[-1] >= n:
                raise ValueError(f"edge {e!r} has vertex out of range [0, {n})")
            self.edges.append(t)
        self.labels: dict[int, tuple[str, int]] = dict(labels) if labels else {}
        for v, (cls, idx) in self.labels.items():
            if not 0 <= v < n:
                raise ValueError(f"label on unknown vertex {v}")
            if not isinstance(cls, str) or cls.split() != [cls]:
                raise ValueError(
                    f"label class {cls!r} must be a non-empty str without whitespace"
                )
            if type(idx) is not int:
                raise ValueError(f"label index {idx!r} must be an int")

    def edge_count(self) -> int:
        return len(self.edges)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UniformHypergraph):
            return NotImplemented
        return (
            self.n == other.n
            and self.r == other.r
            and self.edges == other.edges
            and self.labels == other.labels
        )

    def __repr__(self) -> str:
        return f"UniformHypergraph(n={self.n}, r={self.r}, m={len(self.edges)})"


def two_skeleton(h: UniformHypergraph) -> Graph:
    """Graph on the same vertex set whose edges are all pairs inside hyperedges."""
    g = Graph(h.n)
    for e in h.edges:
        for i in range(len(e)):
            for j in range(i + 1, len(e)):
                g.add_edge(e[i], e[j])
    return g


def cone(g: Graph) -> Graph:
    """Add one new vertex (id ``g.n``) adjacent to every existing vertex."""
    out = Graph(g.n + 1)
    apex_bit = 1 << g.n
    for u in range(g.n):
        out.adj[u] = g.adj[u] | apex_bit
    out.adj[g.n] = (1 << g.n) - 1
    return out


class OverBudget(Exception):
    """Raised by ``near_cliques`` once its work passes the budget it was given."""


def near_cliques(
    adj: list[int], k: int, within: int | None = None, budget: int | None = None
) -> Iterator[tuple[tuple[int, ...], int]]:
    """Each k-clique Q inside the vertex bitmask ``within`` (default: all
    vertices) of the graph whose rows are ``adj``, with ``within`` ANDed with
    Q's rows: the vertices of ``within`` adjacent to all of Q.

    Q comes out ascending and the cliques in lexicographic order; k = 0 yields
    the empty clique with ``within`` itself.  Q grows from its least vertex,
    and the AND is carried down: a partial clique's AND holds exactly the
    vertices that extend it, so its bits above Q's last vertex are the next
    candidates, and a partial clique with fewer of them than it still needs
    is dropped.  The AND never holds Q's own vertices (rows hold no loops).

    With a ``budget``, each partial or whole clique visited costs one unit,
    and the generator raises ``OverBudget`` once it has spent more.
    """
    if k < 0:
        raise ValueError("clique size must be non-negative")
    if within is None:
        within = (1 << len(adj)) - 1
    if k == 0:
        yield (), within
        return
    spent = 0
    # depth first without recursion, so no generator chain or closure cycle:
    # each entry is a partial clique, its AND and the candidates left to try
    stack = [((), within, within)]
    while stack:
        prefix, common, mask = stack.pop()
        need = k - len(prefix)
        while mask:
            low = mask & -mask
            mask ^= low
            v = low.bit_length() - 1
            c = common & adj[v]
            if budget is not None:
                spent += 1
                if spent > budget:
                    raise OverBudget
            if need == 1:
                yield prefix + (v,), c
            elif (c >> (v + 1)).bit_count() >= need - 1:
                # the rest of this entry waits under its first extension
                stack.append((prefix, common, mask))
                stack.append((prefix + (v,), c, c >> (v + 1) << (v + 1)))
                break


def has_clique_rows(adj: list[int], candidates: int, k: int) -> bool:
    """Early-exit test: does ``candidates`` hold a k-clique of the graph whose
    adjacency rows are ``adj``?"""
    if k <= 0:
        return True
    if k == 1:
        return candidates != 0
    mask = candidates
    while mask:
        low = mask & -mask
        v = low.bit_length() - 1
        mask ^= low
        rest = mask & adj[v]
        if k == 2:
            if rest:
                return True
        elif rest.bit_count() >= k - 1 and has_clique_rows(adj, rest, k - 1):
            return True
    return False
