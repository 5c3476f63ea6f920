"""Constructive edge covers of lexicographic products and powers.

Every function here builds a `Decomposition`: an explicit cover of the host
graph's edges by parts, each carrying an orientation certificate, plus a
certified lower bound on how many parts any cover needs. Nothing returned
rests on the construction being trusted — `decomposition_diagnostics`
re-verifies all of it from the certificates alone.

Edge classes follow the two obvious layers of a composition: cross edges
between supervertices, and interior edges within them. Cross layers are
covered by lexicographic maps of the outer factor's parts (their lifted
orientations stay semi-transitive); interior layers by replicating an inner
part into every supervertex, where vertex-disjointness keeps the union's
orientation semi-transitive.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .certificates import (
    SEMI_TRANSITIVE,
    TRANSITIVE,
    Certificate,
    Decomposition,
    Part,
)
from .errors import InputError
from .graphs import (
    Graph,
    Orientation,
    edge_set,
    embed_arcs,
    induced_subgraph,
)
from .lexops import (
    LexProduct,
    lex_map,
    lex_product,
    lift_semi_transitive,
    orient_special,
    special_subgraph,
)
from .recognition import (
    check_semi_transitive,
    check_transitive,
    comparability_decide,
    is_minimal_non_wr,
    mu_exact,
    verify_decomposition,
    wr_decide,
)

__all__ = [
    "Decomposition",
    "Part",
    "as_decomposition",
    "decompose_product_two",
    "decompose_power_k",
    "decompose_power_two_comparability",
    "decompose_product_general",
    "decompose_product_tight",
    "decompose_min_nonwr_product",
    "verify_lower_bound",
    "decomposition_diagnostics",
    "decomposition_verify",
]


def as_decomposition(g: Graph, r, provenance: str = "search") -> Decomposition:
    """Wrap an exact-search cover result as a Decomposition of g. An exact
    count of two or more is carried over as a certified lower bound, with
    the whole vertex set as its inducing witness."""
    if r.value is None:
        raise InputError("cover result has no parts to wrap")
    bound, witness = 1, None
    if r.exact and r.value >= 2:
        bound, witness = r.value, tuple(range(g.n))
    return Decomposition(g, tuple(r.parts), provenance, bound, witness)


def _wr_orientation(g: Graph) -> Orientation:
    ok, cert = wr_decide(g)
    if not ok:
        raise InputError("expected a word-representable graph")
    return cert.payload


def _part_orientation(part: Part, host_n: int) -> Orientation:
    """A semi-transitive orientation of a cover part's spanning subgraph,
    reusing the part's own certificate when it already is one."""
    sub = Graph.from_edges(host_n, part.edges)
    cert = part.certificate
    if cert.kind in (SEMI_TRANSITIVE, TRANSITIVE) and cert.payload.host == sub:
        return cert.payload
    return _wr_orientation(sub)


def _replicate(
    edges: frozenset[tuple[int, int]],
    o: Orientation,
    copies: int,
    size: int,
    host_n: int,
) -> tuple[frozenset[tuple[int, int]], Orientation]:
    """One copy of an oriented subgraph per supervertex block. Copies are
    vertex-disjoint, so the combined orientation has no cross arcs and
    inherits semi-transitivity (and transitivity) from the single copy."""
    new_edges = frozenset(
        (a + i * size, b + i * size) for i in range(copies) for a, b in edges
    )
    arcs = [
        (u + i * size, v + i * size) for i in range(copies) for u, v in o.arcs()
    ]
    sub = Graph.from_edges(host_n, new_edges)
    return new_edges, Orientation.from_arcs(sub, arcs)


def _interior_edges(st, inner: Graph) -> frozenset[tuple[int, int]]:
    return frozenset(
        (st.flat(i, a), st.flat(i, b))
        for i in range(st.outer_n)
        for a, b in inner.edges()
    )


# ── the two-part cover of a product of representable factors ─────────────


def decompose_product_two(p: LexProduct) -> Decomposition:
    """Cover a composition of two representable factors with two parts: the
    cross layer as one lifted lexicographic map, the interiors as disjoint
    copies of the inner factor."""
    g1, g2 = p.outer, p.inner
    if g1.edge_count() == 0:
        raise InputError("outer factor needs at least one edge")
    if not wr_decide(g1)[0] or not wr_decide(g2)[0]:
        raise InputError("both factors must be word-representable")
    m = lex_map(p, g1.edges())
    red = lift_semi_transitive(m, _wr_orientation(g1))
    red_part = Part(edge_set(m.graph.edges()), Certificate(SEMI_TRANSITIVE, red))
    green_edges, green = _replicate(
        edge_set(g2.edges()), _wr_orientation(g2), g1.n, g2.n, p.graph.n
    )
    green_part = Part(green_edges, Certificate(SEMI_TRANSITIVE, green))
    bound, witness = 1, None
    if not comparability_decide(g2)[0]:
        i, j = min(g1.edges())
        bound, witness = 2, tuple(p.structure.supervertex(i)) + (p.structure.flat(j, 0),)
    return Decomposition(p.graph, (red_part, green_part), "product-two", bound, witness)


# ── covers of composition powers ──────────────────────────────────────────


def _power_host(g: Graph, k: int) -> list[Graph]:
    """Powers g^[1] .. g^[k], each built as g over the level below it."""
    levels = [g]
    for _ in range(k - 1):
        levels.append(lex_product(g, levels[-1]).graph)
    return levels


def _power_witness(levels: list[Graph], n: int) -> tuple[int, ...]:
    """A non-representable induced set in the top power: one innermost
    block (a copy of the base) plus one vertex joined to all of it."""
    prev = levels[-2]
    i, j = min(prev.edges())
    return tuple(range(i * n, i * n + n)) + (j * n,)


def decompose_power_k(g: Graph, k: int) -> Decomposition:
    """Cover g^[k] with k representable parts, peeling one cross layer per
    level: the top cross layer is a lifted map of g, and the interiors
    recursively carry the cover of g^[k-1] copied into every supervertex."""
    if k < 2:
        raise InputError("power covers start at k = 2")
    if not wr_decide(g)[0]:
        raise InputError("base graph must be word-representable")
    if comparability_decide(g)[0]:
        raise InputError(
            "base graph is a comparability graph; its powers are "
            "representable outright and need a single part"
        )
    o_g = _wr_orientation(g)
    levels = _power_host(g, k)
    parts: list[tuple[frozenset, Orientation]] = [(edge_set(g.edges()), o_g)]
    for t in range(2, k + 1):
        inner = levels[t - 2]
        p = lex_product(g, inner)
        m = lex_map(p, g.edges())
        red = lift_semi_transitive(m, o_g)
        new_parts = [(edge_set(m.graph.edges()), red)]
        for edges, o in parts:
            new_parts.append(_replicate(edges, o, g.n, inner.n, p.graph.n))
        parts = new_parts
    host = levels[-1]
    return Decomposition(
        host,
        tuple(Part(es, Certificate(SEMI_TRANSITIVE, o)) for es, o in parts),
        "power",
        2,
        _power_witness(levels, g.n),
    )


def decompose_power_two_comparability(
    g: Graph,
    split: tuple[Iterable[tuple[int, int]], Iterable[tuple[int, int]]],
    k: int,
) -> Decomposition:
    """Cover g^[k] with two transitively-oriented parts, given a split of
    g's edges into two comparability subgraphs.

    Each level pairs the map of one split class with copies of the previous
    level's matching part inside every supervertex; that composite is again
    a comparability graph, so two parts suffice at every power.
    """
    if k < 2:
        raise InputError("power covers start at k = 2")
    if comparability_decide(g)[0]:
        raise InputError(
            "base graph is a comparability graph; its powers are "
            "representable outright and need a single part"
        )
    halves = []
    for name, raw in zip("AB", split):
        es = edge_set(raw)
        if not es <= edge_set(g.edges()):
            raise InputError(f"split class {name} uses non-edges of the base graph")
        ok, cert = comparability_decide(Graph.from_edges(g.n, es))
        if not ok:
            raise InputError(f"split class {name} is not a comparability subgraph")
        halves.append((es, cert.payload))
    if halves[0][0] | halves[1][0] != edge_set(g.edges()):
        raise InputError("split classes must union to the base graph's edges")

    levels = _power_host(g, k)
    current = halves
    for t in range(2, k + 1):
        inner = levels[t - 2]
        p = lex_product(g, inner)
        nxt = []
        for (base_edges, base_o), (fill_edges, fill_o) in zip(halves, current):
            m = lex_map(p, base_edges)
            s = special_subgraph(m, [fill_edges] * g.n)
            comb = orient_special(s, base_o, [fill_o] * g.n)
            if not check_transitive(comb):
                raise RuntimeError("combined orientation lost transitivity")
            nxt.append((edge_set(s.graph.edges()), comb))
        current = nxt
    host = levels[-1]
    return Decomposition(
        host,
        tuple(Part(es, Certificate(TRANSITIVE, o)) for es, o in current),
        "power-comparability",
        2,
        _power_witness(levels, g.n),
    )


# ── covers of general products from factor covers ─────────────────────────


def decompose_product_general(
    p: LexProduct, d1: Decomposition, d2: Decomposition
) -> Decomposition:
    """Cover a composition with k1 + k2 parts given covers of the factors:
    each outer part becomes a lifted map, each inner part is copied into
    every supervertex."""
    g1, g2 = p.outer, p.inner
    if d1.host != g1 or d2.host != g2:
        raise InputError("factor covers must live on the product's factors")
    if verify_decomposition(g1, d1) or verify_decomposition(g2, d2):
        raise InputError("factor cover does not verify")
    parts = []
    for part in d1.parts:
        m = lex_map(p, part.edges)
        red = lift_semi_transitive(m, _part_orientation(part, g1.n))
        parts.append(Part(edge_set(m.graph.edges()), Certificate(SEMI_TRANSITIVE, red)))
    for part in d2.parts:
        es, o = _replicate(
            part.edges, _part_orientation(part, g2.n), g1.n, g2.n, p.graph.n
        )
        parts.append(Part(es, Certificate(SEMI_TRANSITIVE, o)))
    bound, witness = 1, None
    if not wr_decide(g2)[0]:
        bound, witness = 2, tuple(p.structure.supervertex(0))
    elif g1.edge_count() and not comparability_decide(g2)[0]:
        i, j = min(g1.edges())
        bound, witness = 2, tuple(p.structure.supervertex(i)) + (p.structure.flat(j, 0),)
    elif not wr_decide(g1)[0]:
        bound, witness = 2, tuple(p.structure.flat(i, 0) for i in range(g1.n))
    return Decomposition(p.graph, tuple(parts), "product-general", bound, witness)


def decompose_product_tight(
    p: LexProduct,
    d1: Decomposition,
    comp_split: Sequence[Iterable[tuple[int, int]]],
) -> Decomposition:
    """Cover a composition with exactly k1 parts when the inner factor
    splits into k1 comparability subgraphs: part i is the map of outer part
    i refilled with split class i inside every supervertex.

    When the outer factor needs k1 parts exactly, picking one vertex per
    supervertex embeds it in the host, so the count is optimal; the witness
    records that copy.
    """
    g1, g2 = p.outer, p.inner
    if d1.host != g1:
        raise InputError("outer cover must live on the outer factor")
    if verify_decomposition(g1, d1):
        raise InputError("outer cover does not verify")
    k1 = len(d1.parts)
    if len(comp_split) > k1:
        raise InputError("more inner split classes than outer parts")
    fills = []
    covered: frozenset = frozenset()
    for idx, raw in enumerate(comp_split):
        es = edge_set(raw)
        if not es <= edge_set(g2.edges()):
            raise InputError(f"split class {idx} uses non-edges of the inner factor")
        ok, cert = comparability_decide(Graph.from_edges(g2.n, es))
        if not ok:
            raise InputError(f"split class {idx} is not a comparability subgraph")
        fills.append((es, cert.payload))
        covered |= es
    if covered != edge_set(g2.edges()):
        raise InputError("split classes must union to the inner factor's edges")
    while len(fills) < k1:
        fills.append((frozenset(), Orientation(Graph.from_edges(g2.n, []), (0,) * g2.n)))

    parts = []
    for part, (fill_edges, fill_o) in zip(d1.parts, fills):
        m = lex_map(p, part.edges)
        s = special_subgraph(m, [fill_edges] * g1.n)
        comb = orient_special(s, _part_orientation(part, g1.n), [fill_o] * g1.n)
        parts.append(Part(edge_set(s.graph.edges()), Certificate(SEMI_TRANSITIVE, comb)))

    bound, witness = 1, None
    if k1 >= 2:
        copy = tuple(p.structure.flat(i, 0) for i in range(g1.n))
        if k1 == 2:
            if not wr_decide(g1)[0]:
                bound, witness = 2, copy
        else:
            r = mu_exact(g1)
            if r.status == "exact" and r.value >= 2:
                bound, witness = min(k1, r.value), copy
            elif not wr_decide(g1)[0]:
                bound, witness = 2, copy
    return Decomposition(p.graph, tuple(parts), "product-tight", bound, witness)


# ── the three-part cover for minimal non-representable factors ────────────


def decompose_min_nonwr_product(
    p: LexProduct,
    r: int = 0,
    roots: Optional[Sequence[int]] = None,
    drop: int = 0,
) -> Decomposition:
    """Cover a composition of two minimal non-representable factors with
    three pairwise edge-disjoint parts.

    Fix a supervertex block R. Part one keeps R's interior minus one vertex,
    a star at a chosen root inside every other block, and all cross edges
    avoiding R — the stars make the non-R portion a refilled map over the
    outer factor minus its R vertex. Part two takes the leftover interiors:
    the dropped vertex's star inside R and each other block minus its root.
    Part three is the map of the outer star at R's vertex, covering the
    cross edges into R. Minimality makes every proper interior piece
    representable, and the cross layers are maps of proper outer subgraphs.
    """
    g1, g2 = p.outer, p.inner
    n, m = g1.n, g2.n
    st = p.structure
    if not is_minimal_non_wr(g1) or not is_minimal_non_wr(g2):
        raise InputError("both factors must be minimal non-representable graphs")
    if not 0 <= r < n:
        raise InputError(f"supervertex index {r} out of range")
    if roots is None:
        roots = [0] * n
    if len(roots) != n or any(not 0 <= a < m for a in roots):
        raise InputError("roots must pick one inner vertex per supervertex")
    if not 0 <= drop < m:
        raise InputError(f"dropped vertex {drop} out of range")
    host = p.graph
    inner_edges = edge_set(g2.edges())

    # part one: R's interior minus `drop`, plus the rooted-star refill of
    # the map over the outer factor without r
    kept_r = [a for a in range(m) if a != drop]
    sub_r = induced_subgraph(g2, kept_r)
    arcs1 = embed_arcs(_wr_orientation(sub_r), [st.flat(r, a) for a in kept_r])
    edges1 = {
        (st.flat(r, a), st.flat(r, b))
        for a, b in inner_edges
        if a != drop and b != drop
    }
    others = [i for i in range(n) if i != r]
    g1r = induced_subgraph(g1, others)
    q = lex_product(g1r, g2)
    star_fills = []
    for i in others:
        root = roots[i]
        star_fills.append([(root, b) for b in g2.neighbors(root)])
    mq = lex_map(q, g1r.edges())
    sq = special_subgraph(mq, star_fills)
    greens = [comparability_decide(Graph.from_edges(m, fill))[1].payload for fill in star_fills]
    comb = orient_special(sq, _wr_orientation(g1r), greens)
    qmap = [st.flat(others[i], a) for i in range(len(others)) for a in range(m)]
    arcs1 += embed_arcs(comb, qmap)
    edges1 |= {
        (qmap[a], qmap[b]) if qmap[a] < qmap[b] else (qmap[b], qmap[a])
        for a, b in sq.graph.edges()
    }
    part1 = Part(
        frozenset(edges1),
        Certificate(SEMI_TRANSITIVE, Orientation.from_arcs(Graph.from_edges(host.n, edges1), arcs1)),
    )

    # part two: leftover interiors — the dropped vertex's star inside R,
    # each other block minus its root
    edges2 = set()
    arcs2 = []
    drop_star = [(drop, b) for b in g2.neighbors(drop)]
    arcs2 += embed_arcs(
        comparability_decide(Graph.from_edges(m, drop_star))[1].payload,
        [st.flat(r, a) for a in range(m)],
    )
    edges2 |= {
        (st.flat(r, a), st.flat(r, b)) if a < b else (st.flat(r, b), st.flat(r, a))
        for a, b in drop_star
    }
    for i in others:
        kept = [a for a in range(m) if a != roots[i]]
        sub = induced_subgraph(g2, kept)
        arcs2 += embed_arcs(_wr_orientation(sub), [st.flat(i, a) for a in kept])
        edges2 |= {
            (st.flat(i, a), st.flat(i, b))
            for a, b in inner_edges
            if a != roots[i] and b != roots[i]
        }
    part2 = Part(
        frozenset(edges2),
        Certificate(SEMI_TRANSITIVE, Orientation.from_arcs(Graph.from_edges(host.n, edges2), arcs2)),
    )

    # part three: the map of the outer star at r — all cross edges into R
    outer_star = [(r, j) for j in g1.neighbors(r)]
    m3 = lex_map(p, outer_star)
    red3 = lift_semi_transitive(m3, _wr_orientation(Graph.from_edges(n, outer_star)))
    part3 = Part(edge_set(m3.graph.edges()), Certificate(SEMI_TRANSITIVE, red3))

    all_parts = (part1, part2, part3)
    total = sum(len(pt.edges) for pt in all_parts)
    union = part1.edges | part2.edges | part3.edges
    if total != len(union) or union != edge_set(host.edges()):
        raise RuntimeError("the three parts must partition the host's edges")
    return Decomposition(
        host, all_parts, "min-product", 2, tuple(st.supervertex(0))
    )


# ── verification ──────────────────────────────────────────────────────────


def verify_lower_bound(d: Decomposition) -> list[str]:
    """Diagnostics for the cover's claimed lower bound; empty means it
    holds. A bound of 2 needs a witness set inducing a non-representable
    subgraph; higher bounds re-run the exact cover search on the witness's
    induced subgraph, which must be small enough for that to finish."""
    if d.lower_bound <= 1:
        return []
    if d.lower_bound_witness is None:
        return ["lower bound above 1 has no witness"]
    vs = d.lower_bound_witness
    if len(set(vs)) != len(vs) or any(not 0 <= v < d.host.n for v in vs):
        return ["witness is not a set of host vertices"]
    sub = induced_subgraph(d.host, vs)
    if d.lower_bound == 2:
        if wr_decide(sub)[0]:
            return ["witness induces a representable subgraph"]
        return []
    r = mu_exact(sub)
    if r.status != "exact":
        return ["witness subgraph's exact cover number did not resolve"]
    if r.value < d.lower_bound:
        return [f"witness subgraph needs only {r.value} parts"]
    return []


def decomposition_diagnostics(d: Decomposition) -> list[str]:
    return verify_decomposition(d.host, d) + verify_lower_bound(d)


def decomposition_verify(d: Decomposition) -> bool:
    return not decomposition_diagnostics(d)
