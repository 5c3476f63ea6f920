"""Lexicographic products, powers, maps, and orientation lifting.

The composition G1 over G2 ("substitution") replaces every vertex of the
outer graph G1 by a copy of the inner graph G2 (a supervertex); two vertices
are adjacent when their outer vertices are, or when they share a supervertex
whose inner copies are adjacent. Vertex (i, j) flattens to i*|G2| + j, so
supervertices are contiguous blocks and the ids compose associatively like
digits.

A lexicographic map takes a set of outer edges and keeps only their complete
cross joins, with nothing inside any supervertex; a special subgraph then
refills each supervertex with a comparability subgraph of the inner factor.
Orientations of an outer subgraph lift uniformly: every arc i -> j becomes
all inner_n^2 arcs between the blocks. Uniform lifts preserve both
semi-transitivity and transitivity (directed paths project to directed
paths of the outer orientation), and a lifted semi-transitive cross part
stays semi-transitive after adding transitively oriented supervertex
interiors: any shortcut would project to one outside or collapse into one
interior.

A refill is described by orientations alone: `orient_special` takes the map,
a semi-transitive orientation of its outer subgraph and one transitive
orientation per supervertex, whose hosts are the fills, and builds the
composite graph together with its orientation, checking its inputs with the
polynomial checkers only. `special_subgraph` is the entry for raw edge-list
fills: it decides the outer subgraph and the fills, then takes its graph
from `orient_special`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import InputError
from .graphs import Graph, LexStructure, Orientation, bits, edge_set
from .recognition import (
    check_semi_transitive,
    check_transitive,
    comparability_decide,
    wr_decide,
)


@dataclass(frozen=True)
class LexProduct:
    outer: Graph
    inner: Graph
    structure: LexStructure
    graph: Graph


@dataclass(frozen=True)
class LexPowerChain:
    """The k-fold composition of a graph with itself.

    Built bottom-up as power(r) = power(r-1) over base, so flat ids read as
    k base-n digits with the outermost level most significant. Because the
    composition is associative the same graph equals base over power(k-1),
    which is the view `head_structure` exposes: the base graph's vertices
    index n supervertices of size n^(k-1), each inducing the (k-1)-st power.
    """

    base: Graph
    k: int
    graph: Graph

    def head_structure(self) -> LexStructure:
        return LexStructure(self.base.n, self.base.n ** (self.k - 1))


@dataclass(frozen=True)
class LexMapGraph:
    """Cross joins of selected outer edges, empty inside supervertices."""

    product: LexProduct
    outer_edges: frozenset[tuple[int, int]]
    graph: Graph

    @property
    def structure(self) -> LexStructure:
        return self.product.structure

    def outer_subgraph(self) -> Graph:
        return Graph.from_edges(self.product.outer.n, list(self.outer_edges))


@dataclass(frozen=True)
class SpecialSubgraph:
    """A lexicographic map refilled with a comparability subgraph of the
    inner factor inside each supervertex; the union of the two layers."""

    fills: tuple[frozenset[tuple[int, int]], ...]
    graph: Graph


def lex_product(g1: Graph, g2: Graph) -> LexProduct:
    """Compose g1 over g2: |V| = n1*n2, cross joins along outer edges plus a
    copy of g2 inside each supervertex."""
    n1, n2 = g1.n, g2.n
    st = LexStructure(n1, n2)
    block = (1 << n2) - 1
    outer_rows = []
    for i in range(n1):
        row = 0
        for j in bits(g1.adj[i]):
            row |= block << (j * n2)
        outer_rows.append(row)
    adj = []
    for i in range(n1):
        for a in range(n2):
            adj.append(outer_rows[i] | (g2.adj[a] << (i * n2)))
    return LexProduct(g1, g2, st, Graph(st.n, tuple(adj)))


def lex_power(g: Graph, k: int) -> LexPowerChain:
    """The k-th composition power of g; k = 1 is g itself."""
    if k < 1:
        raise InputError("power must be at least 1")
    current = g
    for _ in range(k - 1):
        current = lex_product(current, g).graph
    return LexPowerChain(g, k, current)


def lex_map(p: LexProduct, outer_edges: Iterable[tuple[int, int]]) -> LexMapGraph:
    """Keep only the complete cross joins of the selected outer edges."""
    sel = edge_set(outer_edges)
    for u, v in sel:
        if not (0 <= u < p.outer.n and 0 <= v < p.outer.n) or not p.outer.has_edge(u, v):
            raise InputError(f"({u}, {v}) is not an edge of the outer factor")
    n2 = p.inner.n
    block = (1 << n2) - 1
    outer_rows = [0] * p.outer.n
    for u, v in sel:
        outer_rows[u] |= block << (v * n2)
        outer_rows[v] |= block << (u * n2)
    adj = tuple(outer_rows[i] for i in range(p.outer.n) for _ in range(n2))
    return LexMapGraph(p, sel, Graph(p.structure.n, adj))


def _lift(m: LexMapGraph, o: Orientation) -> Orientation:
    if o.host != m.outer_subgraph():
        raise InputError("orientation host must be the selected outer subgraph")
    n2 = m.product.inner.n
    block = (1 << n2) - 1
    out_rows = [0] * m.product.outer.n
    for i in range(m.product.outer.n):
        for j in bits(o.out[i]):
            out_rows[i] |= block << (j * n2)
    out = tuple(out_rows[i] for i in range(m.product.outer.n) for _ in range(n2))
    return Orientation(m.graph, out)


def lift_semi_transitive(m: LexMapGraph, o: Orientation) -> Orientation:
    """Uniform lift of a semi-transitive orientation of the selected outer
    subgraph; the lift is again semi-transitive."""
    if not check_semi_transitive(o):
        raise InputError("outer orientation is not semi-transitive")
    return _lift(m, o)


def special_subgraph(
    m: LexMapGraph, fills: Sequence[Iterable[tuple[int, int]]]
) -> SpecialSubgraph:
    """Add a comparability subgraph of the inner factor inside each
    supervertex of a lexicographic map.

    The selected outer subgraph must be word-representable and every fill a
    comparability subgraph of the inner factor; the composite is then
    word-representable as well.
    """
    st = m.structure
    if len(fills) != st.outer_n:
        raise InputError(f"need one fill per supervertex ({st.outer_n})")
    outer_ok, outer_cert = wr_decide(m.outer_subgraph())
    if not outer_ok:
        raise InputError("selected outer subgraph is not word-representable")
    inner = m.product.inner
    fsets, greens = [], []
    for i, fill in enumerate(fills):
        fs = edge_set(fill)
        for a, b in fs:
            if not (0 <= a < inner.n and 0 <= b < inner.n) or not inner.has_edge(a, b):
                raise InputError(
                    f"fill {i} uses ({a}, {b}), not an edge of the inner factor"
                )
        ok, cert = comparability_decide(Graph.from_edges(inner.n, list(fs)))
        if not ok:
            raise InputError(f"fill {i} is not a comparability subgraph")
        fsets.append(fs)
        greens.append(cert.payload)
    return SpecialSubgraph(tuple(fsets), orient_special(m, outer_cert.payload, greens).host)


def orient_special(
    m: LexMapGraph, red: Orientation, greens: Sequence[Orientation]
) -> Orientation:
    """Refill a lexicographic map inside every supervertex and orient the
    composite in one pass.

    red orients the selected outer subgraph and must be semi-transitive;
    green i transitively orients a subgraph of the inner factor, and its
    host is the fill of supervertex i. The combined orientation of the
    composite graph is semi-transitive, and transitive whenever red is: a
    directed path alternates interior segments and cross arcs, so
    collapsing supervertices projects it onto the outer orientation, where
    the closing arc forces all outer pairs, and inside a single supervertex
    transitivity closes everything.
    """
    st = m.structure
    inner = m.product.inner
    if len(greens) != st.outer_n:
        raise InputError(f"need one interior orientation per supervertex ({st.outer_n})")
    if not check_semi_transitive(red):
        raise InputError("cross orientation is not semi-transitive")
    adj = list(m.graph.adj)
    out = list(_lift(m, red).out)
    for i, green in enumerate(greens):
        fill = green.host
        if fill.n != inner.n:
            raise InputError(f"interior orientation {i} has {fill.n} vertices, not {inner.n}")
        if any(row & ~inner.adj[a] for a, row in enumerate(fill.adj)):
            raise InputError(f"interior orientation {i} orients a non-edge of the inner factor")
        if not check_transitive(green):
            raise InputError(f"interior orientation {i} is not transitive")
        off = i * inner.n
        for a in range(inner.n):
            adj[off + a] |= fill.adj[a] << off
            out[off + a] |= green.out[a] << off
    return Orientation(Graph(st.n, tuple(adj)), tuple(out))


# ── witnesses ────────────────────────────────────────────────────────────


def supervertex_witness(st: LexStructure, outer: Graph) -> tuple[int, ...]:
    """The supervertex of the first outer edge's lower end plus the first
    vertex of its other end's supervertex. That vertex dominates the copy
    of the inner graph, so the set induces a non-representable graph
    whenever the inner graph is not a comparability graph."""
    i, j = min(outer.edges())
    return tuple(st.supervertex(i)) + (st.flat(j, 0),)
