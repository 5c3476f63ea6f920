"""Core graph types: immutable bitset graphs, orientations, product shapes.

A graph lives on vertices 0..n-1 and is stored as a tuple of n adjacency
bitmasks, so row operations (intersection, restriction, degree) are single
int ops. Everything here is a value: graphs, orientations and structures
compare and hash by content, which lets the search layers memoize on them
directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import InputError


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of mask in increasing order."""
    while mask:
        lsb = mask & -mask
        yield lsb.bit_length() - 1
        mask ^= lsb


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1, adjacency as bitmask rows."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 0 or len(self.adj) != self.n:
            raise InputError("adjacency length must equal vertex count")
        full = (1 << self.n) - 1
        for u, row in enumerate(self.adj):
            if row & ~full:
                raise InputError(f"row {u} mentions vertices outside 0..{self.n - 1}")
            if row >> u & 1:
                raise InputError(f"self-loop at {u}")
        for u in range(self.n):
            for v in bits(self.adj[u]):
                if not self.adj[v] >> u & 1:
                    raise InputError(f"adjacency not symmetric at ({u}, {v})")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise InputError(f"self-loop at {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(n, tuple(adj))

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, u: int) -> int:
        return self.adj[u].bit_count()

    def neighbors(self, u: int) -> Iterator[int]:
        return bits(self.adj[u])

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, lexicographically sorted."""
        out = []
        for u in range(self.n):
            rest = self.adj[u] >> (u + 1) << (u + 1)
            for v in bits(rest):
                out.append((u, v))
        return out

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2


def normalize_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def edge_set(edges: Iterable[tuple[int, int]]) -> frozenset[tuple[int, int]]:
    return frozenset(normalize_edge(u, v) for u, v in edges)


def induced_subgraph(g: Graph, s: Iterable[int]) -> Graph:
    """Subgraph induced on the vertex set s, relabeled to 0..|s|-1 in
    increasing order of the original ids."""
    kept = sorted(set(s))
    for v in kept:
        if not 0 <= v < g.n:
            raise InputError(f"vertex {v} not in host graph")
    smask = mask_of(kept)
    pos = {v: i for i, v in enumerate(kept)}
    adj = [0] * len(kept)
    for i, v in enumerate(kept):
        for w in bits(g.adj[v] & smask):
            adj[i] |= 1 << pos[w]
    return Graph(len(kept), tuple(adj))


# ── orientations ─────────────────────────────────────────────────────────


@dataclass(frozen=True)
class Orientation:
    """An assignment of a direction to every edge of a host graph.

    out[u] is the bitmask of heads v of arcs u -> v. Every edge of the host
    gets exactly one direction and nothing else is directed; construction
    enforces this.
    """

    host: Graph
    out: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.out) != self.host.n:
            raise InputError("out-mask length must equal vertex count")
        inn = [0] * self.host.n
        for u, row in enumerate(self.out):
            if row & ~self.host.adj[u]:
                raise InputError(f"vertex {u} directs a non-edge")
            for v in bits(row):
                inn[v] |= 1 << u
        for u in range(self.host.n):
            if self.out[u] & inn[u]:
                raise InputError(f"edge at {u} directed both ways")
            if (self.out[u] | inn[u]) != self.host.adj[u]:
                raise InputError(f"some edge at {u} left undirected")

    @classmethod
    def from_arcs(cls, host: Graph, arcs: Iterable[tuple[int, int]]) -> "Orientation":
        out = [0] * host.n
        for u, v in arcs:
            if not (0 <= u < host.n and 0 <= v < host.n) or not host.has_edge(u, v):
                raise InputError(f"arc ({u}, {v}) is not an edge of the host")
            out[u] |= 1 << v
        return cls(host, tuple(out))

    def arcs(self) -> list[tuple[int, int]]:
        """All arcs (tail, head), lexicographically sorted."""
        return [(u, v) for u in range(self.host.n) for v in bits(self.out[u])]


# ── lexicographic structure bookkeeping ──────────────────────────────────


@dataclass(frozen=True)
class LexStructure:
    """Vertex bookkeeping for a two-level lexicographic construction.

    The composed graph lives on outer_n * inner_n vertices; the flat id of
    (outer i, inner j) is i * inner_n + j, so each supervertex is the
    contiguous block supervertex(i) = range(i*inner_n, (i+1)*inner_n).
    """

    outer_n: int
    inner_n: int

    def __post_init__(self) -> None:
        if self.outer_n < 0 or self.inner_n < 0:
            raise InputError("structure sizes must be non-negative")

    @property
    def n(self) -> int:
        return self.outer_n * self.inner_n

    def flat(self, i: int, j: int) -> int:
        if not (0 <= i < self.outer_n and 0 <= j < self.inner_n):
            raise InputError(f"({i}, {j}) outside {self.outer_n} x {self.inner_n}")
        return i * self.inner_n + j

    def split(self, v: int) -> tuple[int, int]:
        if not 0 <= v < self.n:
            raise InputError(f"vertex {v} outside flat range")
        return divmod(v, self.inner_n)

    def supervertex(self, i: int) -> range:
        if not 0 <= i < self.outer_n:
            raise InputError(f"supervertex {i} out of range")
        return range(i * self.inner_n, (i + 1) * self.inner_n)


# ── small standard families ──────────────────────────────────────────────


def empty_graph(n: int) -> Graph:
    return Graph(n, (0,) * n)


def complete_graph(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << v) for v in range(n)))


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise InputError("a cycle needs at least 3 vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def wheel_graph(rim: int) -> Graph:
    """Cycle on vertices 0..rim-1 plus a hub (vertex rim) joined to all of it.

    wheel_graph(5) is the 6-vertex wheel: the smallest graph that no word
    represents.
    """
    if rim < 3:
        raise InputError("a wheel needs a rim of at least 3 vertices")
    edges = [(i, (i + 1) % rim) for i in range(rim)]
    edges += [(i, rim) for i in range(rim)]
    return Graph.from_edges(rim + 1, edges)


def extremal8() -> Graph:
    """The 8-vertex graph whose 7-vertex induced subgraphs are all
    non-word-representable while some 6-vertex one is representable.

    Its largest representable induced subgraph has 6 vertices, which makes
    it the seed for the n^0.861 upper bound on guaranteed representable
    subgraphs via lexicographic powers.
    """
    pairs_1based = [
        (1, 2), (1, 3), (1, 4), (1, 5), (1, 6),
        (2, 3), (2, 6), (2, 7),
        (3, 4), (3, 7), (3, 8),
        (4, 5), (4, 8),
        (5, 6), (5, 8),
        (6, 7), (6, 8),
        (7, 8),
    ]
    return Graph.from_edges(8, [(u - 1, v - 1) for u, v in pairs_1based])
