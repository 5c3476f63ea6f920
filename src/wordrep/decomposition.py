"""Constructive edge covers of lexicographic products and powers.

Every function here builds a `Decomposition`: an explicit cover of the host
graph's edges by parts, each carrying an orientation certificate, plus a
certified lower bound on how many parts any cover needs. Nothing returned
rests on the construction being trusted — `decomposition_diagnostics`
re-verifies all of it from the certificates alone.

A part is its orientation certificate alone: the part's edges are the
edges of the orientation's host, and `_parts` only wraps each orientation.

Every product cover is built by one rule, `orient_special`: oriented
pieces of the inner factor go into the supervertices under the lifted
orientation of a spanning subgraph of the outer factor, transitive pieces
where that subgraph has an edge and semi-transitive ones elsewhere.

* `_refilled` gives outer part i's lift with inner piece i in every
  supervertex. With transitively oriented comparability classes as the
  pieces it covers a product by k1 parts.
* `_cross_and_copies` is `_refilled` twice with edgeless orientations: the
  outer parts' lifts with empty supervertices, then the inner parts
  copied into every supervertex under an edgeless outer orientation. This
  gives k1 + k2 parts.

Powers are folds of these: g^[k] = g over g^[k-1], so each level applies
the rule once with g's cover outside and the previous level's cover
inside. The three-part cover of two minimal non-representable factors is
three more applications of the rule, with different pieces per
supervertex.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .certificates import (
    SEMI_TRANSITIVE,
    TRANSITIVE,
    WITNESS,
    Certificate,
    Decomposition,
)
from .errors import BudgetExceeded, InputError, InternalError
from .graphs import Graph, LexStructure, Orientation, edge_set, induced_subgraph
from .lexops import (
    LexProduct,
    _edgeless,
    lex_product,
    orient_special,
    supervertex_witness,
)
from .recognition import (
    _VERIFY_BUDGET,
    _Budget,
    _cover_search,
    check_transitive,
    comparability_decide,
    is_comparability,
    is_minimal_non_wr,
    is_wr,
    verify_certificate,
    verify_decomposition,
    wr_decide,
)

__all__ = [
    "Decomposition",
    "as_decomposition",
    "decompose_product_two",
    "decompose_power_k",
    "decompose_power_two_comparability",
    "decompose_product_general",
    "decompose_product_tight",
    "decompose_min_nonwr_product",
    "verify_lower_bound",
    "decomposition_diagnostics",
]

def as_decomposition(g: Graph, r) -> Decomposition:
    """Wrap a cover search result as a Decomposition of g. The parts certify
    the upper bound. A count of two or more means g is not representable,
    which certifies the lower bound 2 with `wr_decide`'s inclusion-minimal
    witness; exactness above 2 rests on the exhausted search and is not
    carried as a certificate."""
    bound, witness = 1, None
    if r.value >= 2:
        bound, witness = 2, wr_decide(g)[1].payload
    return Decomposition(g, tuple(r.parts), "search", bound, witness)


def _wr_orientation(g: Graph) -> Orientation:
    ok, cert = wr_decide(g)
    if not ok:
        raise InputError("expected a word-representable graph")
    return cert.payload


def _parts(oriented: list[Orientation], kind: str = SEMI_TRANSITIVE) -> tuple[Certificate, ...]:
    return tuple(Certificate(kind, o) for o in oriented)


def _refilled(
    p: LexProduct, outer_parts: list[Orientation], fills: list[Orientation]
) -> list[Orientation]:
    """Cover p with outer part i's lift holding fill i in every
    supervertex."""
    return [orient_special(p, o, [fill] * p.outer.n) for o, fill in zip(outer_parts, fills)]


def _cross_and_copies(
    p: LexProduct, outer_parts: list[Orientation], inner_parts: list[Orientation]
) -> list[Orientation]:
    """Cover p with one lift per outer part, then one set of supervertex
    copies per inner part."""
    lifts = _refilled(p, outer_parts, [_edgeless(p.inner.n)] * len(outer_parts))
    return lifts + _refilled(p, [_edgeless(p.outer.n)] * len(inner_parts), inner_parts)


def _comparability_split(
    g: Graph, classes: Iterable[Iterable[tuple[int, int]]], names: Iterable, what: str
) -> list[Orientation]:
    """Check that the named edge classes are comparability subgraphs of g
    whose union is g's edges, and orient each transitively."""
    edges = edge_set(g.edges())
    split, covered = [], frozenset()
    for name, raw in zip(names, classes):
        es = edge_set(raw)
        if not es <= edges:
            raise InputError(f"split class {name} uses non-edges of the {what}")
        ok, cert = comparability_decide(Graph.from_edges(g.n, es))
        if not ok:
            raise InputError(f"split class {name} is not a comparability subgraph")
        split.append(cert.payload)
        covered |= es
    if covered != edges:
        raise InputError(f"split classes must union to the {what}'s edges")
    return split


# ── the two-part cover of a product of representable factors ─────────────


def decompose_product_two(p: LexProduct) -> Decomposition:
    """Cover a composition of two representable factors with two parts: the
    cross layer as one lifted lexicographic map, the interiors as disjoint
    copies of the inner factor. The lower bound is `_bound_two`'s, the cone
    when the inner factor is not a comparability graph."""
    g1, g2 = p.outer, p.inner
    if g1.edge_count() == 0:
        raise InputError("outer factor needs at least one edge")
    if not is_wr(g1) or not is_wr(g2):
        raise InputError("both factors must be word-representable")
    parts = _cross_and_copies(p, [_wr_orientation(g1)], [_wr_orientation(g2)])
    return Decomposition(p.graph, _parts(parts), "product-two", *_bound_two(p))


# ── covers of composition powers ──────────────────────────────────────────


def _refuse_comparability_base(g: Graph) -> None:
    if is_comparability(g):
        raise InputError(
            "base graph is a comparability graph; its powers are "
            "representable outright and need a single part"
        )


def decompose_power_k(g: Graph, k: int) -> Decomposition:
    """Cover g^[k] with k representable parts, one product step per level:
    g^[t] = g over g^[t-1] is covered by the lifted map of g plus the
    cover of g^[t-1] copied into every supervertex."""
    if k < 2:
        raise InputError("power covers start at k = 2")
    if not is_wr(g):
        raise InputError("base graph must be word-representable")
    _refuse_comparability_base(g)
    base = [_wr_orientation(g)]
    parts, level = base, g
    for _ in range(k - 1):
        p = lex_product(g, level)
        parts, level = _cross_and_copies(p, base, parts), p.graph
    # the top level read as g^[k-1] over g: an innermost copy of g plus a
    # vertex joined to all of it
    witness = supervertex_witness(LexStructure(p.inner.n, g.n), p.inner)
    return Decomposition(level, _parts(parts), "power", 2, witness)


def decompose_power_two_comparability(
    g: Graph,
    split: tuple[Iterable[tuple[int, int]], Iterable[tuple[int, int]]],
    k: int,
) -> Decomposition:
    """Cover g^[k] with two transitively-oriented parts, given a split of
    g's edges into two comparability subgraphs.

    Each level is the tight product step with the split outside and the
    previous level's two parts as fills: the map of one split class refilled
    with the matching part inside every supervertex. That composite is again
    a comparability graph, so two parts suffice at every power.
    """
    if k < 2:
        raise InputError("power covers start at k = 2")
    _refuse_comparability_base(g)
    halves = _comparability_split(g, split, "AB", "base graph")
    parts, level = halves, g
    for _ in range(k - 1):
        p = lex_product(g, level)
        parts, level = _refilled(p, halves, parts), p.graph
        if not all(check_transitive(o) for o in parts):
            raise InternalError("combined orientation lost transitivity")
    witness = supervertex_witness(LexStructure(p.inner.n, g.n), p.inner)
    return Decomposition(level, _parts(parts, TRANSITIVE), "power-comparability", 2, witness)


# ── covers of general products from factor covers ─────────────────────────


def decompose_product_general(
    p: LexProduct, d1: Decomposition, d2: Decomposition
) -> Decomposition:
    """Cover a composition with k1 + k2 parts given covers of the factors:
    each outer part becomes a lifted map, each inner part is copied into
    every supervertex.

    The factor covers must verify, so each of their parts is already an
    orientation of its edges. The lower bound is `_bound_two`'s."""
    g1, g2 = p.outer, p.inner
    if d1.host != g1 or d2.host != g2:
        raise InputError("factor covers must live on the product's factors")
    if verify_decomposition(g1, d1) or verify_decomposition(g2, d2):
        raise InputError("factor cover does not verify")
    parts = _cross_and_copies(
        p, [c.payload for c in d1.parts], [c.payload for c in d2.parts]
    )
    return Decomposition(p.graph, _parts(parts), "product-general", *_bound_two(p))


def _bound_two(p: LexProduct) -> tuple[int, Optional[tuple[int, ...]]]:
    """The lower bound 2 on a composition's cover number and its witness,
    or (1, None) when both factors are representable and no cone applies.

    A cone comes first: a supervertex plus a cross neighbour, which refuses
    it when the outer factor has an edge and the inner factor is not a
    comparability graph, so `verify` confirms it in polynomial time at any
    size. Otherwise a non-representable factor's own witness is placed in
    the first supervertex, or on the supervertices' first vertices."""
    g1, g2 = p.outer, p.inner
    if g1.edge_count() and not is_comparability(g2):
        return 2, supervertex_witness(p.structure, g1)
    if not is_wr(g2):
        return 2, tuple(p.structure.flat(0, a) for a in wr_decide(g2)[1].payload)
    if not is_wr(g1):
        return 2, tuple(p.structure.flat(i, 0) for i in wr_decide(g1)[1].payload)
    return 1, None


def decompose_product_tight(
    p: LexProduct,
    d1: Decomposition,
    comp_split: Sequence[Iterable[tuple[int, int]]],
) -> Decomposition:
    """Cover a composition with exactly k1 parts when the inner factor
    splits into k1 comparability subgraphs: part i is the map of outer part
    i refilled with split class i inside every supervertex.

    Picking one vertex per supervertex embeds the outer factor in the host,
    so an outer cover's lower bound above 2 carries over, capped at k1, with
    its witness moved to the first vertices of those supervertices. A bound
    of 2 is `_bound_two`'s, so it is a cone whenever one applies. When the
    outer factor needs k1 parts exactly, the count is optimal.
    """
    g1, g2 = p.outer, p.inner
    if d1.host != g1:
        raise InputError("outer cover must live on the outer factor")
    if verify_decomposition(g1, d1):
        raise InputError("outer cover does not verify")
    k1 = len(d1.parts)
    if len(comp_split) > k1:
        raise InputError("more inner split classes than outer parts")
    fills = _comparability_split(g2, comp_split, range(k1), "inner factor")
    fills += [_edgeless(g2.n)] * (k1 - len(fills))
    parts = _refilled(p, [c.payload for c in d1.parts], fills)

    if d1.lower_bound > 2:
        bound = min(k1, d1.lower_bound)
        witness = tuple(p.structure.flat(i, 0) for i in d1.lower_bound_witness)
    else:
        bound, witness = _bound_two(p)
    return Decomposition(p.graph, _parts(parts), "product-tight", bound, witness)


# ── the three-part cover for minimal non-representable factors ────────────


def decompose_min_nonwr_product(
    p: LexProduct,
    r: int = 0,
    roots: Optional[Sequence[int]] = None,
    drop: int = 0,
) -> Decomposition:
    """Cover a composition of two minimal non-representable factors with
    three pairwise edge-disjoint parts.

    Fix the supervertex block R of outer vertex r; each part is one
    `orient_special` substitution. Part one lifts the outer factor without
    r's edges, covering the cross edges avoiding R, and holds the inner
    factor without a dropped vertex's edges in R and a star at a chosen
    root in every other block. Part two has no cross edges: the dropped
    vertex's star in R and each other block without its root's edges.
    Part three lifts the outer star at r, covering the cross edges into R.
    Minimality makes a factor without one vertex's edges representable;
    those pieces sit only in supervertices without cross edges, and the
    stars are transitive.
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

    def star(a: int) -> Orientation:
        """A transitive orientation of g2's edges at inner vertex a."""
        fill = Graph.from_edges(m, [(a, b) for b in g2.neighbors(a)])
        return comparability_decide(fill)[1].payload

    def minus(g: Graph, a: int) -> Orientation:
        """A semi-transitive orientation of g without vertex a's edges."""
        return _wr_orientation(
            Graph(g.n, tuple(0 if v == a else row & ~(1 << a) for v, row in enumerate(g.adj)))
        )

    # part one: the lift of g1 without r's edges, with R's interior minus
    # `drop` in R and a rooted star in every other block
    part1 = orient_special(
        p, minus(g1, r), [minus(g2, drop) if i == r else star(roots[i]) for i in range(n)]
    )
    # part two: leftover interiors — the dropped vertex's star inside R,
    # each other block minus its root
    part2 = orient_special(
        p, _edgeless(n), [star(drop) if i == r else minus(g2, roots[i]) for i in range(n)]
    )
    # part three: the lift of the outer star at r — all cross edges into R
    outer_star = Graph.from_edges(n, [(r, j) for j in g1.neighbors(r)])
    part3 = orient_special(p, _wr_orientation(outer_star), [_edgeless(m)] * n)

    # parts whose rows union to the host's and whose edge counts sum to its
    # count are pairwise disjoint
    hosts = [o.host for o in (part1, part2, part3)]
    union = tuple(a | b | c for a, b, c in zip(*(h.adj for h in hosts)))
    if sum(h.edge_count() for h in hosts) != host.edge_count() or union != host.adj:
        raise InternalError("the three parts must partition the host's edges")
    parts = _parts([part1, part2, part3])
    return Decomposition(host, parts, "min-product", 2, tuple(st.supervertex(0)))


# ── verification ──────────────────────────────────────────────────────────


def verify_lower_bound(d: Decomposition) -> list[str]:
    """Diagnostics for the cover's claimed lower bound; empty means it
    holds. A bound of 2 needs a witness set inducing a non-representable
    subgraph, checked by `verify_certificate` as a witness record is. A
    higher bound b also needs the cover search to find no cover of the
    witness by 2, ..., b - 1 parts. That search and its representability
    decisions share one budget of `_VERIFY_BUDGET` steps, and raise
    BudgetExceeded when it runs out."""
    if d.lower_bound <= 1:
        return []
    if d.lower_bound_witness is None:
        return ["lower bound above 1 has no witness"]
    vs = d.lower_bound_witness
    diags = verify_certificate(d.host, Certificate(WITNESS, tuple(vs)))
    if diags or d.lower_bound == 2:
        return diags
    sub = induced_subgraph(d.host, vs)
    budget = _Budget(_VERIFY_BUDGET)
    for k in range(2, d.lower_bound):
        if _cover_search(sub, k, budget, budget.is_wr) is not None:
            return [f"witness subgraph needs only {k} parts"]
    return []


def decomposition_diagnostics(d: Decomposition) -> list[str]:
    """The parts' diagnostics plus the lower bound's. A failing part wins
    over a lower-bound check that runs out of budget: BudgetExceeded is
    raised only when the parts verify."""
    diags = verify_decomposition(d.host, d)
    try:
        return diags + verify_lower_bound(d)
    except BudgetExceeded:
        if diags:
            return diags
        raise

