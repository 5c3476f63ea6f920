"""Recognition of word-representable and comparability graphs, with
certificates, plus the exact cover number over representable parts.

The engine rests on three facts:

* A word w over the vertex set represents G when two vertices alternate as
  letters of w exactly if they are adjacent.
* G has a representing word iff it has a semi-transitive orientation: an
  acyclic orientation in which no directed path v1 -> ... -> vk closes with
  the arc v1 -> vk while some inner pair vi -> vj (i < j) is missing.
* Transitive orientations are the shortcut-free orientations in which every
  reachable pair is an arc, so comparability graphs are a subclass, and if
  some vertex x sees all others then G is representable iff G - x is a
  comparability graph. So the semi-transitive search first tries the
  polynomial comparability pass and answers every comparability graph with
  its transitive orientation. By heredity, every vertex's neighbourhood in
  a representable graph induces a comparability graph, and the search
  refuses a graph where one does not before it orients any edge. Only the
  remaining graphs backtrack, so the search is exponential only on
  non-comparability graphs.

Each search keeps a partial state and a propagator, which places an arc
plus every direction it forces and rejects dead partial states, and walks
a fixed list of the edges. Comparability is decided by forcing alone: one
forward pass, in polynomial time, because on a comparability graph no
choice the pass makes can fail (the proof is `_find_transitive`'s
docstring). Representability backtracks, in `_semi_transitive_search`:
an explicit-stack search, so its depth is bounded by memory rather than by
the interpreter's recursion limit. It decides the edges in maximum
cardinality search order (`_search_order`), so a failing search meets its
dead states near the top of its tree. An early wrong choice can still cost
that order a million steps on a representable graph that index order
orients in a few thousand, so a search that runs long is raced against an
index-order one (`_race`). The semi-transitive propagator keeps
ancestor and descendant sets, so after each new arc it rechecks only the
arcs and open edges that arc can affect. That search also orders its
values: at each decision it tries first the direction that adds the fewest
reachable pairs, so sparse graphs get short chains and small sets (a path
labelled in order gets no directed path of two arcs). Every decision still
tries both directions before giving up, and which states are dead does not
depend on the order their arcs were placed in, so neither order changes a
verdict, only which orientation is found.

Each property has a predicate (`is_wr`, `is_comparability`) that returns
the verdict alone, and a decider (`wr_decide`, `comparability_decide`) that
adds a certificate. Both keep the orientation a successful search finds,
and a transitive one is re-checked by one closure test. A failing graph
gets an inclusion-minimal failing vertex set only when a decider asks for
that certificate. For representability, a vertex whose neighbourhood is
not a comparability graph gives it: the vertex plus the non-comparability
witness found in that neighbourhood (a cone), or a greedy shrink of that
witness when it already fails alone. Otherwise, and for comparability, the
whole failing graph is shrunk greedily, deciding each candidate with the
predicate. Results are memoized by graph value, up to a fixed total of
vertices, and a witness found later is added to the graph's entry in place.
"""

from __future__ import annotations

import heapq
from typing import Optional, Sequence

from .certificates import (
    NON_COMPARABILITY,
    SEMI_TRANSITIVE,
    TRANSITIVE,
    WITNESS,
    WORD,
    Certificate,
    MuResult,
)
from .errors import BudgetExceeded, InputError, InternalError
from .graphs import Graph, Orientation, bits, induced_subgraph

Word = Sequence[int]


# ── words ────────────────────────────────────────────────────────────────


def graph_of_word(w: Word, n: Optional[int] = None) -> Graph:
    """The graph represented by w: vertices 0..n-1, edges = alternating
    letter pairs. Every vertex must occur in w at least once.

    One scan keeps seen[j], the letters met exactly j times so far. With k_v
    copies of v, y alternates with x and x comes first exactly when y has
    been met i - 1 times at the i-th copy of x for every i, and k_y is k_x - 1
    or k_x: there is no y before the first x, one y between consecutive
    copies of x and at most one after the last. With y first, y has been met
    i times at every i-th copy of x and k_y is k_x or k_x + 1. So `before[x]`
    intersects seen[i - 1] just before each i-th copy of x is counted,
    `after[x]` intersects seen[i] just after, and the final seen[k] groups
    the letters by k. Each letter costs a few bitmask operations, so the
    check is linear in |w| times n / 64 machine words.
    """
    if n is None:
        n = max(w) + 1 if w else 0
    full = (1 << n) - 1
    seen = [full]
    count = [0] * n
    before = [full] * n
    after = [full] * n
    for c in w:
        if not 0 <= c < n:
            raise InputError(f"letter {c} outside 0..{n - 1}")
        i, bit = count[c], 1 << c
        before[c] &= seen[i]
        seen[i] ^= bit
        i += 1
        count[c] = i
        if i == len(seen):
            seen.append(bit)
        else:
            seen[i] |= bit
        after[c] &= seen[i]
    if seen[0]:
        raise InputError(f"vertices {list(bits(seen[0]))} never occur in the word")
    seen.append(0)
    adj = tuple(
        (before[x] & (seen[k - 1] | seen[k]) | after[x] & (seen[k] | seen[k + 1])) & ~(1 << x)
        for x, k in enumerate(count)
    )
    return Graph(n, adj)


def word_represents(w: Word, g: Graph) -> bool:
    """True iff w represents exactly g (same vertex range, same edges)."""
    return graph_of_word(w, g.n) == g


# ── orientation predicates ───────────────────────────────────────────────


def _topo_order(out: Sequence[int], n: int) -> Optional[list[int]]:
    indeg = [0] * n
    for u in range(n):
        for v in bits(out[u]):
            indeg[v] += 1
    ready = [v for v in range(n) if indeg[v] == 0]
    order = []
    while ready:
        u = ready.pop()
        order.append(u)
        for v in bits(out[u]):
            indeg[v] -= 1
            if indeg[v] == 0:
                ready.append(v)
    return order if len(order) == n else None


def _strict_reach(out: Sequence[int], n: int, order: list[int]) -> list[int]:
    reach = [0] * n
    for u in reversed(order):
        r = out[u]
        for v in bits(out[u]):
            r |= reach[v]
        reach[u] = r
    return reach


def check_semi_transitive(o: Orientation) -> bool:
    """Decide in polynomial time whether an orientation is acyclic with no
    shortcut.

    A transitive orientation passes at once, after one closure test. It is
    acyclic (see `check_transitive`), and on a directed path v1 -> ... -> vk
    induction on j - i makes every pair vi -> vj with i < j an arc, so no
    path misses an inner pair. Every comparability certificate costs only
    that test.

    Otherwise, for each arc u -> v let M be every vertex on some directed
    u-to-v path (reach(u) intersected with coreach(v)). Any path between two
    members of M stays inside M, so the orientation has a shortcut through
    u -> v exactly when some ordered pair a, b in M has a path a to b but no
    arc a -> b. Scanning all arcs this way is equivalent to quantifying over
    all directed paths.
    """
    if check_transitive(o):
        return True
    n = o.host.n
    out = o.out
    order = _topo_order(out, n)
    if order is None:
        return False
    reach = _strict_reach(out, n, order)
    co = [0] * n
    for a in range(n):
        for b in bits(reach[a]):
            co[b] |= 1 << a
    for u in range(n):
        for v in bits(out[u]):
            m = (reach[u] | 1 << u) & (co[v] | 1 << v)
            for a in bits(m):
                if reach[a] & m & ~out[a]:
                    return False
    return True


def check_transitive(o: Orientation) -> bool:
    """True iff arcs compose: a -> b and b -> c always implies a -> c.

    The pairwise containment test also rejects directed cycles: along a
    passing cycle every out-set would contain its successor's, so all would
    be equal, and the vertex the cycle closes on would be its own
    out-neighbour, which an orientation of a simple graph never is. So
    passing orientations are partial orders and in particular
    semi-transitive.
    """
    out = o.out
    for u in range(o.host.n):
        for v in bits(out[u]):
            if out[v] & ~out[u]:
                return False
    return True


# ── orientation search ───────────────────────────────────────────────────


class _Budget:
    """A countdown of search steps that several searches can draw on:
    `spend` raises BudgetExceeded once all `steps` are spent."""

    def __init__(self, steps: int) -> None:
        self.steps = self.left = steps

    def spend(self) -> None:
        self.left -= 1
        if self.left < 0:
            raise BudgetExceeded(f"the search used all {self.steps} steps of its budget")

    def is_wr(self, g: Graph) -> bool:
        """`is_wr` searching on this budget; a search that runs out stores nothing."""
        return _decided(
            g, _WR_MEMO, lambda h: _find_semi_transitive(h, self), check_semi_transitive, SEMI_TRANSITIVE
        )[0]


def _find_semi_transitive(g: Graph, budget: Optional[_Budget] = None) -> Optional[Orientation]:
    """Search for a semi-transitive orientation of g, spending one step of
    `budget`, when given, per propagator call.

    The state keeps, beside the arcs, the strict descendants `reach` and
    the strict ancestors `anc` of every vertex over the placed arcs, so the
    path set of an arc p -> q, every vertex on some directed p-to-q path,
    is M(p, q) = (reach[p] | p) & (anc[q] | q). A state is dead when some
    M(p, q) holds a pair x, y with a path x to y but no edge x, y: no later
    arc can repair it. An open edge is forced once one end reaches the
    other.

    Propagation runs in rounds: place the queued arcs, recheck path sets,
    queue the newly forced edges. Each round starts from a state with no
    dead pair whose forced open edges are all queued: the empty state, a
    state the search resumes from (its last round queued nothing), or the
    end of the previous round. So a round needs to look only where its own
    arcs changed something.

    Call a new arc a -> b growing if a did not already reach b when it was
    placed. In any path, a new arc that did not grow can be replaced by the
    path from a to b that existed when it was placed; repeating this leaves
    a path of old and growing arcs only. Let x, y be a dead pair in M(p, q)
    after the round and take a path p ~> x ~> y ~> q. If it holds no
    growing arc after the replacements and p -> q is old, the pair was dead
    before the round. So either p -> q is new (a new arc that did not grow
    is rechecked itself), or the path runs through a growing arc a -> b:
    then p is a or an ancestor of a and q is b or a descendant of b, with
    `reach` and `anc` as they stand at check time. By the same replacement
    an open edge x, y with x ~> y after the round runs between those two
    sets. Only neighbours of the second set have an arc or edge into it,
    which narrows p further. Rechecking these arcs therefore fails exactly
    when rechecking every arc would, and the forced edges found are all of
    them. Forced arcs add no reachability, so the state after a round does
    not depend on the order they are queued in.

    Values are ordered by least growth (`_least_growth`; Haralick &
    Elliott, Artif. Intell. 14, 1980: try the least constraining value
    first). After the first decision, which the search fixes by symmetry,
    open edge u, v is tried first in the direction a -> b that minimises
    (|anc[a]| + 1) * (|reach[b]| + 1), the number of pairs it makes
    reachable (some may have been already); a tie keeps "as stored". Small `reach` and `anc`
    sets make propagation, snapshots and the final `check_semi_transitive`
    cheap. The order only permutes the two branches of each decision, and
    both are explored before a decision fails, so the search exhausts the
    same tree on a non-representable graph and finds some orientation on a
    representable one.

    Edges are decided in `_search_order`, not by index: the triangle-free
    Mycielskian of the Grötzsch graph (23 vertices) is refuted in 6,707
    propagator calls, where index order took 380,079 (8,276 with the
    race below). The order cannot
    change a verdict. Given any semi-transitive orientation O, the first
    decision agrees with O or its reversal, every later decision has a
    branch that agrees with it, and the propagator places only arcs that
    every semi-transitive orientation holding the placed ones must have
    and rejects only states that none extends, whatever order the arcs came
    in. So the search finds an orientation exactly when one exists, and
    only which one it finds depends on the order.

    Before any search, a comparability graph is answered by `_find_transitive`
    through `_COMP_MEMO`, where `comparability_decide` then finds it: a
    transitive orientation is semi-transitive, and the pass finds one in
    polynomial time. This changes no verdict, since every comparability
    graph is representable and the search below finds an orientation
    exactly when one exists. Witnesses are built from verdicts and
    comparability witnesses, and μ, η and cover edge sets depend on verdicts
    alone, so none of them changes either. A graph the pass refuses gets the
    orientation the steps below find, as it would without the pass; a
    comparability graph gets the pass's transitive orientation, which may
    differ from the search's, and so may its word.

    Next, g is refused when some vertex refuses it by the neighbourhood rule
    (`_refusal`), which never refuses a comparability graph.

    Last, the search in `_search_order` runs, raced by `_race` against the
    same search in index order once it has run long. Each of the two
    answers exactly, so the race changes which orientation is found, never
    the verdict.
    """
    ok, cert = _decided(g, _COMP_MEMO, _find_transitive, check_transitive, TRANSITIVE)
    if ok:
        return cert.payload
    if _refusal(g) is not None:
        return None
    return _race(_semi_transitive_search(g, _search_order(g), budget),
                 lambda: _semi_transitive_search(g, g.edges(), budget))


_RACE_HEAD = 2000
_RACE_SHARE = 3


def _race(lead, make_other) -> Optional[Orientation]:
    """The answer of whichever of two `_semi_transitive_search` generators
    ends first.

    `lead` runs alone for `_RACE_HEAD` propagator calls. If it has not
    ended by then, `make_other()` builds the second search, and the two
    run in turn, `_RACE_SHARE` calls of `lead` to one of the other.

    Backtracking costs are heavy-tailed, and the two edge orders have their
    tails on different graphs (Gomes & Selman, Artif. Intell. 126, 2001:
    a portfolio of searches cuts such tails). On the graphs of shuffled
    2-uniform words on 16-19 letters, maximum cardinality order took
    1,101,358 calls on one 16-vertex graph that index order orients in
    2,705, and raced, the costliest of 7,200 such graphs takes about 28,000
    calls. A failing search ends only when one order exhausts its tree, so
    the race costs it at most a third more than `lead` alone, and nothing
    within the head, which holds nearly every failing search of a cover.
    """
    try:
        for _ in range(_RACE_HEAD):
            next(lead)
        other = make_other()
        while True:
            for _ in range(_RACE_SHARE):
                next(lead)
            next(other)
    except StopIteration as done:
        return done.value


def _least_growth(edge: tuple[int, int], anc: list[int], reach: list[int]) -> int:
    """The direction to try first at open edge u, v by least growth (see
    `_find_semi_transitive`): 2 (v -> u) or 1 ("as stored")."""
    u, v = edge
    grow_uv = (anc[u].bit_count() + 1) * (reach[v].bit_count() + 1)
    grow_vu = (anc[v].bit_count() + 1) * (reach[u].bit_count() + 1)
    return 2 if grow_vu < grow_uv else 1


def _semi_transitive_search(g: Graph, edges: list[tuple[int, int]], budget: Optional[_Budget]):
    """The backtracking search of `_find_semi_transitive`, deciding `edges`
    in the order given.

    It orients g edge by edge on an explicit stack. Each entry holds an
    edge, the state before deciding it (`out`, `reach`, `anc` and `dirs`,
    copied) and the directions still to try; a dead state restores the top
    entry's copy and tries its next direction. `dirs` holds 0 for an open
    edge, 1 for "as stored" and 2 for reversed. The first decision tries
    one direction only, since reversing every arc preserves
    semi-transitivity; every later one tries `_least_growth`'s first.

    A generator: it yields after every propagator call and returns the
    orientation, or None, so that `_race` can run two searches in turn.
    """
    n, adj = g.n, g.adj
    eix = {e: i for i, e in enumerate(edges)}
    out = [0] * n
    reach = [0] * n  # strict descendants over placed arcs
    anc = [0] * n  # strict ancestors over placed arcs
    dirs = bytearray(len(edges))  # 0 open, 1 = as stored, 2 = reversed

    def propagate(i0: int, d0: int) -> bool:
        if budget is not None:
            budget.spend()
        queue = [(i0, d0)]
        while queue:
            recheck = []  # (p, heads q): arcs p -> q whose path sets may hold a dead pair
            grew = []
            while queue:
                i, d = queue.pop()
                if dirs[i]:
                    if dirs[i] != d:
                        return False
                    continue
                u, v = edges[i]
                a, b = (u, v) if d == 1 else (v, u)
                if reach[b] >> a & 1:
                    return False  # arc would close a cycle
                dirs[i] = d
                out[a] |= 1 << b
                if reach[a] >> b & 1:
                    recheck.append((a, 1 << b))
                    continue
                up, down = anc[a] | 1 << a, reach[b] | 1 << b
                for x in bits(up):
                    reach[x] |= down
                for y in bits(down):
                    anc[y] |= up
                grew.append((a, b))
            for a, b in grew:
                up, down = anc[a] | 1 << a, reach[b] | 1 << b
                near = 0  # only neighbours of `down` have an arc or edge into it
                for y in bits(down):
                    near |= adj[y]
                for p in bits(up & near):
                    recheck.append((p, out[p] & down))
                    for y in bits(adj[p] & down & ~out[p]):
                        queue.append((eix[(p, y)], 1) if p < y else (eix[(y, p)], 2))
            for p, hs in recheck:
                rp = reach[p] | 1 << p
                for q in bits(hs):
                    mset = rp & (anc[q] | 1 << q)
                    for x in bits(mset):
                        if reach[x] & mset & ~adj[x]:
                            return False
        return True

    stack = []
    i = 0
    while True:
        i = dirs.find(0, i)  # edges before i are decided
        if i < 0:
            return Orientation(g, tuple(out))
        if not stack:
            todo = [1]
        else:
            todo = [1, 2] if _least_growth(edges[i], anc, reach) == 2 else [2, 1]
        stack.append((i, out[:], reach[:], anc[:], dirs[:], todo))
        while True:
            alive = propagate(i, todo.pop())
            yield
            if alive:
                break
            while not stack[-1][-1]:
                stack.pop()
                if not stack:
                    return None
            i, out[:], reach[:], anc[:], dirs[:], todo = stack[-1]


def _search_order(g: Graph) -> list[tuple[int, int]]:
    """The edges of g, each as (u, v) with u < v, in the order the
    semi-transitive search decides them.

    Vertices are ranked by maximum cardinality search (Tarjan & Yannakakis,
    SIAM J. Comput. 13, 1984): each step ranks the unranked vertex with the
    most ranked neighbours, the lowest index on a tie. Edges are sorted by
    the rank of their later end, then of their earlier end, so the edges
    among the first k ranked vertices come first, and each new vertex brings
    as many edges into the decided part as it can. Cycles close, and dead
    states show, near the top of the search tree (fail first: Haralick &
    Elliott, Artif. Intell. 14, 1980). Breaking ties by index rather than
    by degree keeps the worst searches on graphs of shuffled words short.
    """
    weight = [0] * g.n
    rank = [0] * g.n
    left = (1 << g.n) - 1
    for r in range(g.n):
        v = max(bits(left), key=weight.__getitem__)
        rank[v] = r
        left &= ~(1 << v)
        for w in bits(g.adj[v] & left):
            weight[w] += 1
    return sorted(g.edges(), key=lambda e: (max(rank[e[0]], rank[e[1]]), min(rank[e[0]], rank[e[1]])))


def _refusal(g: Graph) -> Optional[tuple[int, list[int]]]:
    """The first vertex x whose neighbourhood N(x) is not a comparability
    graph, with N(x) in increasing order, or None.

    Such an x refuses g (Kitaev & Pyatkin, J. Autom. Lang. Comb. 13, 2008):
    if g is representable, so is G[N[x]] by heredity, and x dominates it, so
    G[N(x)] must be a comparability graph. No vertex refuses a comparability
    graph. Neighbourhoods of at most 4 vertices or without an edge are
    skipped: every graph on at most 4 vertices is a comparability graph, and
    so is every edgeless one.
    """
    adj = g.adj
    for x in range(g.n):
        nb = adj[x]
        if nb.bit_count() > 4 and any(adj[y] & nb for y in bits(nb)):
            hood = list(bits(nb))
            if not is_comparability(induced_subgraph(g, hood)):
                return x, hood
    return None


def _find_transitive(g: Graph) -> Optional[Orientation]:
    """Search for a transitive orientation of g in one forward pass with no
    backtracking: each edge still open, in index order, is placed "as
    stored" together with every arc that forces, and the first
    contradiction refuses g.

    Every arc the propagator adds is forced in each transitive orientation
    that holds the arcs already placed. There are two rules. Γ: with a -> b
    placed, an edge c, b with c not adjacent to a must be c -> b, and an
    edge a, c with c not adjacent to b must be a -> c. Closure: a -> b -> c
    with a adjacent to c forces a -> c. A two-chain whose ends are not
    adjacent, or an edge wanted both ways, is a contradiction.

    So after each call the placed set P is a union of whole Γ-classes
    (implication classes), transitively closed, with no edge in both
    directions. Gallai (1967; Golumbic, Algorithmic Graph Theory and Perfect
    Graphs, ch. 5) describes these classes on a comparability graph through
    its modular decomposition: at a prime node the edges between different
    children form one class, and at a series node the edges between two
    given children form one class. The transitive orientations are exactly
    the independent choices of one of the two orientations at each prime
    node and a linear order of the children at each series node. P
    therefore fixes, for each prime node, nothing or one of its
    orientations, and for each series node a partial order of the children
    (transitive because P is). An open edge lies at a prime node P leaves
    free or between two children that order leaves incomparable, so either
    of its directions extends P to a transitive orientation, which holds
    every arc the choice forces. On a comparability graph no choice fails
    and no second branch is needed. Conversely, a pass that places every
    edge without contradiction has checked each two-chain when its later
    arc was placed, so its orientation is transitive.
    """
    n, adj = g.n, g.adj
    edges = g.edges()
    eix = {e: i for i, e in enumerate(edges)}
    out = [0] * n
    inn = [0] * n
    dirs = bytearray(len(edges))

    def want(a: int, b: int) -> tuple[int, int]:
        return (eix[(a, b)], 1) if a < b else (eix[(b, a)], 2)

    def propagate(i0: int, d0: int) -> bool:
        queue = [(i0, d0)]
        while queue:
            i, d = queue.pop()
            if dirs[i]:
                if dirs[i] != d:
                    return False
                continue
            u, v = edges[i]
            a, b = (u, v) if d == 1 else (v, u)
            dirs[i] = d
            out[a] |= 1 << b
            inn[b] |= 1 << a
            # two-chains through a non-adjacent third vertex force the
            # far edge; two-chains through placed arcs force the closing arc
            if out[b] & ~adj[a] & ~(1 << a):
                return False
            if inn[a] & ~adj[b] & ~(1 << b):
                return False
            for c in bits(adj[b] & ~adj[a] & ~(1 << a)):
                queue.append(want(c, b))
            for c in bits(adj[a] & ~adj[b] & ~(1 << b)):
                queue.append(want(a, c))
            for c in bits(out[b] & adj[a]):
                queue.append(want(a, c))
            for c in bits(inn[a] & adj[b]):
                queue.append(want(c, b))
        return True

    for i in range(len(edges)):
        if not dirs[i] and not propagate(i, 1):
            return None
    return Orientation(g, tuple(out))


# ── deciders ─────────────────────────────────────────────────────────────

_MEMO_VERTICES = 8192


class _Memo(dict):
    """Decisions by graph value: (True, orientation certificate), (False,
    witness certificate), or (False, None) while no witness has been asked
    for. Once the graphs held pass `_MEMO_VERTICES` vertices in all, the
    oldest are dropped, so a long run holds bounded memory; a dropped graph
    is decided again, with the same result, when asked for again."""

    def __init__(self) -> None:
        super().__init__()
        self.vertices = 0

    def keep(self, g: Graph, res: tuple[bool, Optional[Certificate]]) -> None:
        if g not in self:  # a held graph only gains its witness
            self.vertices += g.n
        self[g] = res
        while self.vertices > _MEMO_VERTICES:
            old = next(iter(self))
            self.vertices -= old.n
            del self[old]


_WR_MEMO = _Memo()
_COMP_MEMO = _Memo()


def _shrink_witness(g: Graph, decide_ok) -> tuple[int, ...]:
    """Greedy one-pass minimization of a failing vertex set.

    The failing property is closed under adding vertices (both targets are
    hereditary), so after the pass every remaining vertex is necessary: when
    it was examined, deleting it from a superset of the final set passed,
    and so does deleting it from the final set itself.
    """
    current = list(range(g.n))
    i = 0
    while i < len(current):
        cand = current[:i] + current[i + 1:]
        if not decide_ok(induced_subgraph(g, cand)):
            current = cand
        else:
            i += 1
    return tuple(current)


def _decided(g: Graph, memo: _Memo, find, check, yes: str) -> tuple[bool, Optional[Certificate]]:
    """g's decision from `memo`, or else from a search with `find`, whose
    orientation must pass `check`. A failing graph is stored without a
    witness."""
    res = memo.get(g)
    if res is None:
        o = find(g)
        if o is None:
            res = (False, None)
        elif check(o):
            res = (True, Certificate(yes, o))
        else:  # pragma: no cover - internal guard
            raise InternalError("search produced an orientation failing its own check")
        memo.keep(g, res)
    return res


def is_wr(g: Graph) -> bool:
    """True iff g is word-representable. Runs the same search as
    `wr_decide` but shrinks no witness on failure."""
    return _decided(g, _WR_MEMO, _find_semi_transitive, check_semi_transitive, SEMI_TRANSITIVE)[0]


def is_comparability(g: Graph) -> bool:
    """True iff g admits a transitive orientation. Runs the same search as
    `comparability_decide` but shrinks no witness on failure."""
    return _decided(g, _COMP_MEMO, _find_transitive, check_transitive, TRANSITIVE)[0]


def _wr_witness(g: Graph) -> tuple[int, ...]:
    """An inclusion-minimal non-representable vertex set of the
    non-representable graph g.

    For the first vertex x that refuses g (`_refusal`), let S be the
    non-comparability witness `comparability_decide` finds inside N(x).
    Then x dominates G[S], so the cone S + x is not representable. If G[S]
    is representable, the cone is inclusion-minimal: dropping x leaves
    G[S], and dropping s from S leaves x over G[S - s], a comparability
    graph by S's minimality, which a dominating vertex keeps representable.
    x refuses the cone too, so `verify` settles it without a search step.
    Otherwise G[S] fails on its own and is shrunk greedily. With no
    refusing x, the whole graph is shrunk greedily.
    """
    refusal = _refusal(g)
    if refusal is None:
        return _shrink_witness(g, is_wr)
    x, hood = refusal
    s = [hood[i] for i in comparability_decide(induced_subgraph(g, hood))[1].payload]
    core = induced_subgraph(g, s)
    if is_wr(core):
        return tuple(sorted(s + [x]))
    return tuple(s[i] for i in _shrink_witness(core, is_wr))


def wr_decide(g: Graph) -> tuple[bool, Certificate]:
    """Decide word-representability.

    Returns (True, semi-transitive orientation) or (False, inclusion-minimal
    vertex set whose induced subgraph is non-representable). A
    comparability graph is answered in polynomial time by the forcing pass
    with a transitive orientation, which the re-check accepts with one
    closure test. On other graphs the worst case is exponential in the edge
    count; fine for the graph sizes the rest of the package feeds it
    (factors, supervertices, witnesses). A failing graph with a vertex
    whose neighbourhood is not a comparability graph gets the first such
    vertex's cone as its witness (`_wr_witness`), found without shrinking
    the whole graph, and that vertex refuses the cone with no search.
    Callers that need only the verdict use `is_wr`, which builds no
    witness.
    """
    res = _decided(g, _WR_MEMO, _find_semi_transitive, check_semi_transitive, SEMI_TRANSITIVE)
    if res[1] is None:
        res = (False, Certificate(WITNESS, _wr_witness(g)))
        _WR_MEMO.keep(g, res)
    return res


def comparability_decide(g: Graph) -> tuple[bool, Certificate]:
    """Decide whether g admits a transitive orientation.

    Returns (True, transitive orientation) or (False, inclusion-minimal
    vertex set inducing a non-comparability subgraph). Polynomial: the
    search is one forcing pass, and the shrink runs one pass per vertex.
    Callers that need only the verdict use `is_comparability`."""
    res = _decided(g, _COMP_MEMO, _find_transitive, check_transitive, TRANSITIVE)
    if res[1] is None:
        res = (False, Certificate(NON_COMPARABILITY, _shrink_witness(g, is_comparability)))
        _COMP_MEMO.keep(g, res)
    return res


def is_minimal_non_wr(g: Graph) -> bool:
    """True iff g is not word-representable but every single-vertex-deleted
    induced subgraph is."""
    if is_wr(g):
        return False
    return all(
        is_wr(induced_subgraph(g, [v for v in range(g.n) if v != x]))
        for x in range(g.n)
    )


# ── words from orientations ──────────────────────────────────────────────


def _extension_word(o: Orientation, order: list[int]) -> tuple[int, ...]:
    """A word for a transitive orientation o: linear extensions of the
    partial order o, concatenated. An arc u -> v reads u before v in every
    extension, so the pair alternates. Two incomparable letters alternate
    only if every extension orders them the same way, so the word
    represents o's host once each incomparable pair appears in both orders
    (permutational representability, Kitaev & Seif, Order 25, 2008).

    Each extension is anchored on the vertex x with the most incomparable
    partners it has not yet preceded. It places x's down-set in `order`,
    then x, so x precedes everything incomparable to it; then, among the
    vertices whose down-set is placed, it takes one that precedes the most
    such partners still unplaced. A heap keys them by that count, which
    only falls while an extension grows, so a popped key is recounted and
    re-pushed until it is current. An anchor owes nothing afterwards, so
    there is at most one extension per vertex with an incomparable partner.
    With none at all the host is complete and the word is empty.
    """
    n, out = o.host.n, o.out
    full = (1 << n) - 1
    below = [0] * n
    for u in range(n):
        for v in bits(out[u]):
            below[v] |= 1 << u
    owed = [full & ~o.host.adj[v] & ~(1 << v) for v in range(n)]
    word: list[int] = []
    while n:
        x = max(range(n), key=lambda v: owed[v].bit_count())
        if not owed[x]:
            break
        left = full
        ext: list[int] = []

        def place(v: int) -> None:
            nonlocal left
            left &= ~(1 << v)
            owed[v] &= ~left
            ext.append(v)

        def key(v: int) -> int:  # minus the partners v would newly precede
            return -(owed[v] & left).bit_count()

        for v in order:
            if below[x] >> v & 1:
                place(v)
        place(x)
        waiting = [(below[v] & left).bit_count() for v in range(n)]
        heap = [(key(v), v) for v in bits(left) if not waiting[v]]
        heapq.heapify(heap)
        while heap:
            k, v = heapq.heappop(heap)
            if k != key(v):
                heapq.heappush(heap, (key(v), v))
                continue
            place(v)
            for u in bits(out[v] & left):
                waiting[u] -= 1
                if not waiting[u]:
                    heapq.heappush(heap, (key(u), u))
        word += ext
    return tuple(word)


def _block_word(o: Orientation, order: list[int]) -> tuple[int, ...]:
    """A word for a semi-transitive orientation o, with at most 2n copies per
    letter (the constructive direction of Halldórsson, Kitaev & Pyatkin,
    DAM 201, 2016).

    For each vertex x with an incomparable non-neighbour or a non-adjacent
    descendant, let B be x's non-adjacent descendants and R = V - B, and
    append the block q1|R . q2 . q2|B, where
      * q1 is a topological order of o on R with x after every
        non-descendant of x, and
      * q2 is a topological order of o with every arc from R into B
        reversed and x before every non-ancestor of x.
    Every letter occurs twice per block. With no block at all the host is
    complete and the word is empty.

    Edges alternate. No arc runs from B into R: its head would be a
    descendant of x adjacent to x, so x ~> b -> head with x -> head would be
    a shortcut skipping the non-edge x, b. Hence an arc u -> v keeps its
    direction in q1|R, in q2 (within R or within B) and in q2|B, and an arc
    from R into B reads u, then v u in q2, then v. Either way every block
    restricts to u v u v, and so does the whole word.

    Non-edges do not. In x's block an incomparable non-neighbour c reads
    c x x c and a non-adjacent descendant b reads x x b b. A non-adjacent
    ancestor of x is separated in its own block, where x is the descendant.

    Both orders exist. In q1 the extra arcs all end at x and every vertex
    reachable from x is a descendant, so they close no cycle. In q2 the
    reversed arcs all run from B into R, which no kept arc leaves, and the
    ancestors of x together with x have no predecessor outside them: an
    arc from an ancestor of x into B would be a shortcut past x. So no arc
    returns to x from the non-ancestors it is placed before.
    """
    n, out, adj = o.host.n, o.out, o.host.adj
    reach = _strict_reach(out, n, order)
    anc = [0] * n
    for a in range(n):
        for b in bits(reach[a]):
            anc[b] |= 1 << a
    full = (1 << n) - 1
    word: list[int] = []
    for x in range(n):
        b_set = reach[x] & ~adj[x]
        if not b_set and not full & ~(reach[x] | anc[x] | 1 << x):
            continue
        r_set = full & ~b_set
        out1 = [out[u] & r_set if r_set >> u & 1 else 0 for u in range(n)]
        for y in bits(r_set & ~reach[x] & ~(1 << x)):
            out1[y] |= 1 << x
        out2 = [out[u] & r_set if r_set >> u & 1 else out[u] for u in range(n)]
        for u in bits(r_set):
            for v in bits(out[u] & b_set):
                out2[v] |= 1 << u
        out2[x] |= full & ~anc[x] & ~(1 << x)
        q2 = _topo_order(out2, n)
        word += [v for v in _topo_order(out1, n) if r_set >> v & 1]
        word += q2
        word += [v for v in q2 if b_set >> v & 1]
    return tuple(word)


def word_from_orientation(o: Orientation) -> tuple[int, ...]:
    """A uniform word representing o's host, built from a semi-transitive
    orientation: `_extension_word` for a transitive one, with at most one
    copy per letter for each vertex that has a non-neighbour, and
    `_block_word` otherwise. A complete host gets one topological order."""
    if not check_semi_transitive(o):
        raise InputError("orientation is not semi-transitive")
    order = _topo_order(o.out, o.host.n)
    build = _extension_word if check_transitive(o) else _block_word
    return build(o, order) or tuple(order)


def find_word(g: Graph) -> Optional[tuple[int, ...]]:
    """A uniform word representing g, built by `word_from_orientation` from
    the semi-transitive orientation `wr_decide` finds; None exactly when g
    is not word-representable."""
    return word_from_orientation(wr_decide(g)[1].payload) if is_wr(g) else None


# ── cover number over representable parts ────────────────────────────────


def _cover_search(g: Graph, k: int, budget: Optional[_Budget], part_ok=is_wr) -> Optional[list[Graph]]:
    """Find a cover of g's edges by k representable spanning subgraphs, or
    prove none exists; overlaps are allowed. The parts come back as graphs
    on g's vertices.

    Edges are assigned non-empty part subsets in colex vertex order; each
    time all edges inside a prefix 0..v are placed, every part's induced
    subgraph on the prefix is final and must already be representable
    (representability is hereditary), which `part_ok` decides and which
    prunes hard. Parts are interchangeable, so a new part index may be
    opened only in consecutive order. Each assignment spends one step of
    `budget`, when given.
    """
    n = g.n
    edges = sorted(g.edges(), key=lambda e: (e[1], e[0]))
    m = len(edges)
    last_at_level = [False] * m
    for i, (u, v) in enumerate(edges):
        last_at_level[i] = i + 1 == m or edges[i + 1][1] != v
    subsets = sorted(range(1, 1 << k), key=lambda s: (s.bit_count(), s))
    padj = [[0] * n for _ in range(k)]

    def prefix_ok(top: int) -> bool:
        for p in range(k):
            rows = tuple(padj[p][w] for w in range(top + 1))
            if any(rows) and not part_ok(Graph(top + 1, rows)):
                return False
        return True

    def flip(i: int, s: int) -> None:
        # edge i is set in no part before its own assignment, so xor sets
        # it in the parts of s and the same call undoes that
        u, v = edges[i]
        for p in bits(s):
            padj[p][u] ^= 1 << v
            padj[p][v] ^= 1 << u

    # Depth-first over the edges with an explicit stack, since a frame per
    # edge overflows the interpreter's recursion limit on long sparse
    # graphs. tried[i] counts the subsets tried at edge i; while a later
    # edge is open, edge i holds subsets[tried[i] - 1].
    tried = [0] * m
    used = [0] * (m + 1)
    i = 0
    while i < m:
        if tried[i] == len(subsets):
            tried[i] = 0
            i -= 1
            if i < 0:
                return None
            flip(i, subsets[tried[i] - 1])
            continue
        s = subsets[tried[i]]
        tried[i] += 1
        if budget is not None:
            budget.spend()
        fresh = s >> used[i]
        if fresh and fresh != (1 << fresh.bit_count()) - 1:
            continue  # parts must be opened in consecutive order
        flip(i, s)
        if not last_at_level[i] or prefix_ok(edges[i][1]):
            used[i + 1] = max(used[i], s.bit_length())
            i += 1
        else:
            flip(i, s)
    return [Graph(n, tuple(rows)) for rows in padj]


def _colour_cover(g: Graph) -> list[Orientation]:
    """A cover of g by at most ⌈log₃ χ⌉ semi-transitive parts, for the
    colour count χ of a greedy index-order colouring. Each edge goes to the
    part of the highest base-3 digit where its ends' colours differ,
    oriented from the smaller digit to the larger. Within a part, arcs
    raise that digit, so a directed path has at most 2 arcs and no shortcut
    exists (every 3-colourable graph is representable: Halldórsson, Kitaev
    & Pyatkin 2016). One orientation per non-empty digit, lowest digit
    first."""
    colour = [0] * g.n
    for v in range(g.n):
        taken = 0
        for u in bits(g.adj[v] & ((1 << v) - 1)):
            taken |= 1 << colour[u]
        colour[v] = (~taken & (taken + 1)).bit_length() - 1
    arcs: dict[int, list[tuple[int, int]]] = {}
    for u, v in g.edges():
        a, b, d = colour[u], colour[v], 0
        while a // 3 != b // 3:
            a, b, d = a // 3, b // 3, d + 1
        arcs.setdefault(d, []).append((u, v) if a % 3 < b % 3 else (v, u))
    return [Orientation.from_arcs(Graph.from_edges(g.n, arcs[d]), arcs[d]) for d in sorted(arcs)]


def mu_exact(g: Graph, budget: Optional[int] = None) -> MuResult:
    """Smallest number of word-representable spanning subgraphs whose edge
    union is g.

    A representable g answers 1. Otherwise `_colour_cover` gives a cover,
    and the part counts from 2 up to one below its size are searched, each
    under its own `budget` of assignments when given (the decisions inside
    are not counted, so the memo cannot change the result). The first count
    with a cover answers; if none has one, the colouring cover does, its
    orientations certifying the parts. A count cut short by the budget
    makes the answer an upper bound. So a graph whose greedy colouring has
    at most 9 colours answers 2, exactly, with no search. The searched
    parts are the orientation certificates `wr_decide` gives them. A
    negative budget is refused.
    """
    if budget is not None and budget < 0:
        raise InputError(f"budget must not be negative, got {budget}")
    if is_wr(g):
        return MuResult(1, (wr_decide(g)[1],), "exact")
    cover, status = _colour_cover(g), "exact"
    for k in range(2, len(cover)):
        try:
            found = _cover_search(g, k, None if budget is None else _Budget(budget))
        except BudgetExceeded:
            status = "upper-bound"
            continue
        if found is not None:
            return MuResult(k, tuple(wr_decide(part)[1] for part in found), status)
    return MuResult(len(cover), tuple(Certificate(SEMI_TRANSITIVE, o) for o in cover), status)


# ── certificate verification ─────────────────────────────────────────────


# The document chooses the subgraphs `verify` decides, so each search it
# runs, a non-representable witness's re-decision or the cover search behind
# a lower bound above 2, stops after this many steps.
_VERIFY_BUDGET = 50_000


def verify_certificate(g: Graph, cert: Certificate) -> list[str]:
    """Check one certificate against the graph it claims to describe.
    Returns diagnostics; empty means it verifies. A non-comparability
    witness is re-decided in polynomial time, and a non-representable one
    by the representability search within `_VERIFY_BUDGET` steps, which
    raises BudgetExceeded when they run out. A vertex that refuses the
    witness (`_refusal`) settles it before any step is spent."""
    try:
        if cert.kind in (SEMI_TRANSITIVE, TRANSITIVE):
            o = cert.payload
            if o.host != g:
                return ["orientation host differs from the claimed graph"]
            if cert.kind == TRANSITIVE:
                if not check_transitive(o):
                    return ["orientation is not transitive"]
            elif not check_semi_transitive(o):
                return ["orientation is not semi-transitive"]
        elif cert.kind == WORD:
            if not word_represents(cert.payload, g):
                return ["word does not represent the claimed graph"]
        elif cert.kind in (WITNESS, NON_COMPARABILITY):
            vs = cert.payload
            if len(set(vs)) != len(vs) or any(not 0 <= v < g.n for v in vs):
                return ["witness vertex set is not a set of host vertices"]
            sub = induced_subgraph(g, vs)
            if cert.kind == NON_COMPARABILITY:
                if is_comparability(sub):
                    return ["witness set induces a comparability subgraph"]
            elif _Budget(_VERIFY_BUDGET).is_wr(sub):
                return ["witness set induces a representable subgraph"]
    except InputError as e:
        return [f"malformed certificate: {e}"]
    return []


def verify_decomposition(g: Graph, d) -> list[str]:
    """Diagnostics for a cover: every part must be an orientation whose host
    is a spanning subgraph of g and passes its own check, and the parts'
    hosts must union to g's edges. Edge sets are compared as adjacency
    rows. Accepts any object with a `parts` attribute (Decomposition,
    MuResult)."""
    diags = []
    covered = [0] * g.n
    for idx, cert in enumerate(d.parts):
        if cert.kind not in (SEMI_TRANSITIVE, TRANSITIVE):
            diags.append(f"part {idx}: a part needs an orientation certificate")
            continue
        part = cert.payload.host
        if part.n != g.n:
            diags.append(f"part {idx}: orientation has {part.n} vertices, the host {g.n}")
            continue
        bad = [(u, v) for u, row in enumerate(part.adj) for v in bits(row & ~g.adj[u]) if u < v]
        if bad:
            diags.append(f"part {idx}: edges {bad} are not host edges")
            continue
        covered = [c | row for c, row in zip(covered, part.adj)]
        diags += [f"part {idx}: {msg}" for msg in verify_certificate(part, cert)]
    missing = [(u, v) for u, row in enumerate(g.adj) for v in bits(row & ~covered[u]) if u < v]
    if missing:
        diags.append(f"edges {missing} are covered by no part")
    return diags
