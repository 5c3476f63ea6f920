"""Lexicographic products, powers, maps, and orientation lifting.

The composition G1 over G2 ("substitution") replaces every vertex of the
outer graph G1 by a copy of the inner graph G2 (a supervertex); two vertices
are adjacent when their outer vertices are, or when they share a supervertex
whose inner copies are adjacent. Vertex (i, j) flattens to i*|G2| + j, so
supervertices are contiguous blocks and the ids compose associatively like
digits. A power is a product too: `lex_power` returns G^[k] as G over
G^[k-1], the form every power result is proved in.

A lexicographic map takes a set of outer edges and keeps only their complete
cross joins, with nothing inside any supervertex; a special subgraph then
refills each supervertex with a comparability subgraph of the inner factor.

Every such graph is one substitution, built by `orient_special`: a
semi-transitive orientation of a spanning subgraph of the outer factor
lifts uniformly (every arc i -> j becomes all inner_n^2 arcs between the
blocks), and supervertex i receives an oriented subgraph of the inner
factor. The composite is semi-transitive when every piece placed in a
supervertex with a cross edge is transitive and every other piece is
semi-transitive: a directed path either stays in a supervertex with no
cross edge, or projects onto a directed path of the outer orientation and
closes inside each supervertex it crosses. It is transitive when every
piece is. A lexicographic map is the substitution with empty pieces, a
vertex-disjoint union of copies is the one with an edgeless outer
orientation, and `lift_semi_transitive` and `special_subgraph` are calls
of `orient_special`; the latter decides its outer subgraph and edge-list
fills first. Only the polynomial checkers check the pieces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import InputError
from .graphs import Graph, LexStructure, Orientation, bits, complete_graph, edge_set, empty_graph
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
class LexMapGraph:
    """Cross joins of selected outer edges, empty inside supervertices."""

    product: LexProduct
    outer_edges: frozenset[tuple[int, int]]
    graph: Graph

    def outer_subgraph(self) -> Graph:
        return Graph.from_edges(self.product.outer.n, list(self.outer_edges))


@dataclass(frozen=True)
class SpecialSubgraph:
    """A lexicographic map refilled with a comparability subgraph of the
    inner factor inside each supervertex; the union of the two layers."""

    fills: tuple[frozenset[tuple[int, int]], ...]
    graph: Graph


def _lift_rows(rows: Sequence[int], n2: int) -> list[int]:
    """Uniformly lift outer rows to blocks of n2 vertices: bit j of row i
    becomes block j, and block i's n2 vertices each get that row."""
    block = (1 << n2) - 1
    lifted = []
    for row in rows:
        wide = 0
        for j in bits(row):
            wide |= block << (j * n2)
        lifted += [wide] * n2
    return lifted


def _edgeless(n: int) -> Orientation:
    return Orientation(empty_graph(n), (0,) * n)


def lex_product(g1: Graph, g2: Graph) -> LexProduct:
    """Compose g1 over g2: |V| = n1*n2, cross joins along outer edges plus a
    copy of g2 inside each supervertex."""
    n2 = g2.n
    st = LexStructure(g1.n, n2)
    adj = _lift_rows(g1.adj, n2)
    for i in range(g1.n):
        off = i * n2
        for a in range(n2):
            adj[off + a] |= g2.adj[a] << off
    return LexProduct(g1, g2, st, Graph(st.n, tuple(adj)))


def lex_power(g: Graph, k: int) -> LexProduct:
    """The k-th composition power of g, as g over its (k-1)-st power (the
    1-vertex graph when k = 1). Flat ids read as k base-n digits with the
    outermost level most significant, so each of g's n supervertices is a
    block of n^(k-1) vertices inducing the (k-1)-st power.

    Built bottom-up, power(r) = power(r-1) over g; composition is
    associative, so the last level equals g over power(k-1)."""
    if k < 1:
        raise InputError("power must be at least 1")
    inner, current = complete_graph(1), g
    for _ in range(k - 1):
        inner, current = current, lex_product(current, g).graph
    return LexProduct(g, inner, LexStructure(g.n, inner.n), current)


def lex_map(p: LexProduct, outer_edges: Iterable[tuple[int, int]]) -> LexMapGraph:
    """Keep only the complete cross joins of the selected outer edges."""
    sel = edge_set(outer_edges)
    for u, v in sel:
        if not (0 <= u < p.outer.n and 0 <= v < p.outer.n) or not p.outer.has_edge(u, v):
            raise InputError(f"({u}, {v}) is not an edge of the outer factor")
    adj = _lift_rows(Graph.from_edges(p.outer.n, sel).adj, p.inner.n)
    return LexMapGraph(p, sel, Graph(p.structure.n, tuple(adj)))


def lift_semi_transitive(m: LexMapGraph, o: Orientation) -> Orientation:
    """Uniform lift of a semi-transitive orientation of the selected outer
    subgraph; the lift is again semi-transitive."""
    if o.host != m.outer_subgraph():
        raise InputError("orientation host must be the selected outer subgraph")
    return orient_special(m.product, o, [_edgeless(m.product.inner.n)] * o.host.n)


def special_subgraph(
    m: LexMapGraph, fills: Sequence[Iterable[tuple[int, int]]]
) -> SpecialSubgraph:
    """Add a comparability subgraph of the inner factor inside each
    supervertex of a lexicographic map.

    The selected outer subgraph must be word-representable and every fill a
    comparability subgraph of the inner factor; the composite is then
    word-representable as well.
    """
    p = m.product
    if len(fills) != p.outer.n:
        raise InputError(f"need one fill per supervertex ({p.outer.n})")
    outer_ok, outer_cert = wr_decide(m.outer_subgraph())
    if not outer_ok:
        raise InputError("selected outer subgraph is not word-representable")
    fsets, greens = [], []
    for i, fill in enumerate(fills):
        fs = edge_set(fill)
        # out-of-range ends and self-loops are refused here, and fill edges
        # outside the inner factor by orient_special
        ok, cert = comparability_decide(Graph.from_edges(p.inner.n, list(fs)))
        if not ok:
            raise InputError(f"fill {i} is not a comparability subgraph")
        fsets.append(fs)
        greens.append(cert.payload)
    return SpecialSubgraph(tuple(fsets), orient_special(p, outer_cert.payload, greens).host)


def orient_special(
    p: LexProduct, red: Orientation, greens: Sequence[Orientation]
) -> Orientation:
    """Substitute oriented pieces into the supervertices of a composition
    under a lifted outer orientation, building the graph and its
    orientation in one pass.

    red orients a spanning subgraph of the outer factor and must be
    semi-transitive; its host's edges become complete cross joins, every
    arc i -> j all arcs from block i to block j. Green i orients a subgraph
    of the inner factor placed in supervertex i. It must be transitive when
    red has an edge at i and semi-transitive otherwise; each distinct green
    object is checked once, so callers may pass [fill] * n.

    The result is semi-transitive, and transitive when red and every green
    are. A supervertex without a cross edge is a union of components, so
    its paths stay inside it. Any other directed path alternates interior
    segments and cross arcs: collapsing supervertices projects it onto a
    directed path of red (red is acyclic), where a closing arc forces all
    outer pairs, and inside one supervertex the transitive green closes
    the rest.
    """
    n1, n2 = p.outer.n, p.inner.n
    cross = red.host
    if cross.n != n1:
        raise InputError(f"cross orientation has {cross.n} vertices, not {n1}")
    if any(row & ~p.outer.adj[i] for i, row in enumerate(cross.adj)):
        raise InputError("cross orientation orients a non-edge of the outer factor")
    if not check_semi_transitive(red):
        raise InputError("cross orientation is not semi-transitive")
    if len(greens) != n1:
        raise InputError(f"need one interior orientation per supervertex ({n1})")
    # per distinct green: whether some supervertex holding it has a cross edge
    crossed: dict[int, bool] = {}
    for i, green in enumerate(greens):
        crossed[id(green)] = crossed.get(id(green), False) or cross.adj[i] != 0
    adj, out = _lift_rows(cross.adj, n2), _lift_rows(red.out, n2)
    for i, green in enumerate(greens):
        fill = green.host
        if id(green) in crossed:
            if fill.n != n2:
                raise InputError(f"interior orientation {i} has {fill.n} vertices, not {n2}")
            if any(row & ~p.inner.adj[a] for a, row in enumerate(fill.adj)):
                raise InputError(
                    f"interior orientation {i} orients a non-edge of the inner factor"
                )
            if crossed.pop(id(green)):
                if not check_transitive(green):
                    raise InputError(
                        f"interior orientation {i} is not transitive, and a supervertex "
                        "holding it has a cross edge"
                    )
            elif not check_semi_transitive(green):
                raise InputError(f"interior orientation {i} is not semi-transitive")
        off = i * n2
        for a in range(n2):
            adj[off + a] |= fill.adj[a] << off
            out[off + a] |= green.out[a] << off
    return Orientation(Graph(p.structure.n, tuple(adj)), tuple(out))


# ── witnesses ────────────────────────────────────────────────────────────


def supervertex_witness(st: LexStructure, outer: Graph) -> tuple[int, ...]:
    """The supervertex of the first outer edge's lower end plus the first
    vertex of its other end's supervertex. That vertex dominates the copy
    of the inner graph, so the set induces a non-representable graph
    whenever the inner graph is not a comparability graph."""
    i, j = min(outer.edges())
    return tuple(st.supervertex(i)) + (st.flat(j, 0),)
