"""Maximum representable sets and the structural step of the iterated-power
bound.

A representable set is a vertex set whose induced subgraph is
word-representable; eta(g) is the largest size of one. Because the property
is hereditary, failing sets are upward-closed: the search descends from the
full vertex set and remembers minimal failing sets, skipping any candidate
containing one.

`verify_power_bound` checks the two structural facts that drive the bound
eta(g^[k]) <= cap^k when no (cap+1)-subset of g is representable: each
supervertex of the power induces the previous power, and each is a module
(its vertices share their adjacency outside it) whose first vertices induce
the base. Then every one-per-supervertex selection of cap+1 vertices induces
the matching (cap+1)-subset of the base, hence a non-representable graph.
Vertices of an independent representable set can therefore land in at most
cap supervertices, each contributing at most cap^(k-1) by induction.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Optional

from .certificates import Certificate
from .errors import InputError, InternalError
from .graphs import Graph, induced_subgraph
from .lexops import lex_power, lex_product
from .recognition import is_wr, wr_decide

__all__ = [
    "EtaResult",
    "PowerBoundReport",
    "eta",
    "verify_no_wr_subgraph",
    "verify_power_bound",
]


@dataclass(frozen=True)
class EtaResult:
    """A maximum representable set: its size, the set, the certificate of
    its induced subgraph, and (on request) every just-too-large subset,
    each of which induces a non-representable graph."""

    value: int
    witness: tuple[int, ...]
    certificate: Certificate
    blockers: Optional[tuple[tuple[int, ...], ...]] = None


def _colex(n: int, s: int) -> Iterator[tuple[int, ...]]:
    """Size-s subsets of range(n), ordered by largest element last."""
    if s == 0:
        yield ()
        return
    for top in range(s - 1, n):
        for rest in _colex(top, s - 1):
            yield rest + (top,)


def eta(g: Graph, blockers: bool = False) -> EtaResult:
    """Size of a maximum representable set, with a representable witness of
    that size.

    Descends by subset size from n. Any candidate containing a known
    failing set fails without a check (the property is hereditary), and
    each fresh failure contributes its minimal failing core to that list,
    so the first representable candidate found is a maximum one.
    """
    failed: list[frozenset[int]] = []
    for size in range(g.n, -1, -1):
        for cand in _colex(g.n, size):
            cset = frozenset(cand)
            if any(f <= cset for f in failed):
                continue
            ok, cert = wr_decide(induced_subgraph(g, cand))
            if ok:
                blocked = None
                if blockers:
                    blocked = tuple(_colex(g.n, size + 1)) if size < g.n else ()
                return EtaResult(size, cand, cert, blocked)
            failed.append(frozenset(cand[i] for i in cert.payload))
    raise AssertionError("the empty set always represents")


def verify_no_wr_subgraph(g: Graph, s: int) -> bool:
    """True iff no s-subset of the vertices induces a representable graph
    (vacuously true when s exceeds the vertex count)."""
    if s < 0:
        raise InputError("subset size must be non-negative")
    return not any(
        is_wr(induced_subgraph(g, cand)) for cand in combinations(range(g.n), s)
    )


@dataclass(frozen=True)
class PowerBoundReport:
    """What was checked to support eta(g^[k]) <= cap^k. For k = 1 the bound
    is the directly computed eta value; for higher powers it is the
    structural induction step, with every supervertex compared against the
    previous power and checked to be a module."""

    k: int
    cap: int
    bound: int
    eta_base: Optional[int]
    supervertices_checked: int


def verify_power_bound(g: Graph, k: int, cap: int) -> PowerBoundReport:
    """Certify the representable-set bound cap^k for the k-th power of g.

    Requires the level-one premise that no (cap+1)-subset of g is
    representable. k = 1 reduces to computing eta outright. For k >= 2,
    checks that each supervertex of g^[k] induces g^[k-1], that each is a
    module (every vertex has the block's first vertex's adjacency outside
    the block), and that the first vertices induce g. Adjacency being
    symmetric, every cross pair of blocks is then complete or empty as g
    says, so every one-per-supervertex selection induces the base subgraph
    it projects onto, and the premise makes it non-representable.
    """
    if k < 1:
        raise InputError("power must be at least 1")
    if not 1 <= cap <= g.n:
        raise InputError("cap must be between 1 and the vertex count")
    if not verify_no_wr_subgraph(g, cap + 1):
        raise InputError(
            f"premise fails: some {cap + 1}-subset of the base is representable"
        )
    if k == 1:
        e = eta(g)
        return PowerBoundReport(1, cap, cap, e.value, 0)
    prev = lex_power(g, k - 1).graph
    power = lex_product(g, prev)
    head = power.structure
    adj = power.graph.adj
    for i in range(g.n):
        block = head.supervertex(i)
        if induced_subgraph(power.graph, block) != prev:
            raise InternalError(f"supervertex {i} does not induce the previous power")
        outside = ~(((1 << head.inner_n) - 1) << block.start)
        if any(adj[v] & outside != adj[block.start] & outside for v in block):
            raise InternalError(f"supervertex {i} is not a module of the power")
    firsts = [head.flat(i, 0) for i in range(g.n)]
    if induced_subgraph(power.graph, firsts) != g:
        raise InternalError("the supervertices' first vertices do not induce the base")
    return PowerBoundReport(k, cap, cap**k, None, g.n)
