"""Brute-force oracles for the test suite.

Everything here recomputes properties straight from their definitions with
no shared code or cleverness: restrictions are built letter by letter,
shortcut-freeness is quantified over explicitly enumerated directed paths,
recognition is decided by trying every orientation or every vertex order.
Only usable on tiny inputs, which is the point.
"""

from __future__ import annotations

from itertools import combinations, product

from wordrep.graphs import Graph, Orientation, induced_subgraph


def alternation_by_restriction(w, x, y) -> bool:
    sub = [c for c in w if c == x or c == y]
    return all(a != b for a, b in zip(sub, sub[1:]))


def graph_by_restriction(w, n) -> Graph:
    edges = [
        (x, y)
        for x in range(n)
        for y in range(x + 1, n)
        if alternation_by_restriction(w, x, y)
    ]
    return Graph.from_edges(n, edges)


def _all_directed_paths(n, arcs):
    """Every simple directed path with at least 2 vertices, as tuples."""
    heads = {u: [v for (a, v) in arcs if a == u] for u in range(n)}
    paths = []

    def extend(path):
        for v in heads[path[-1]]:
            if v not in path:
                nxt = path + (v,)
                paths.append(nxt)
                extend(nxt)

    for s in range(n):
        extend((s,))
    return paths


def _has_cycle(n, arcs):
    heads = {u: [v for (a, v) in arcs if a == u] for u in range(n)}
    state = [0] * n  # 0 fresh, 1 on stack, 2 done

    def visit(u):
        state[u] = 1
        for v in heads[u]:
            if state[v] == 1 or (state[v] == 0 and visit(v)):
                return True
        state[u] = 2
        return False

    return any(state[u] == 0 and visit(u) for u in range(n))


def semi_transitive_by_paths(n, arcs) -> bool:
    """Literal definition: acyclic, and every directed path whose endpoints
    are joined by an arc has all inner pairs joined by arcs too."""
    arcset = set(arcs)
    if _has_cycle(n, arcs):
        return False
    for path in _all_directed_paths(n, arcs):
        if (path[0], path[-1]) in arcset:
            for i, j in combinations(range(len(path)), 2):
                if (path[i], path[j]) not in arcset:
                    return False
    return True


def transitive_by_triples(n, arcs) -> bool:
    arcset = set(arcs)
    return all(
        (a, c) in arcset
        for a, b in arcset
        for b2, c in arcset
        if b == b2 and a != c
    )


def all_labeled_graphs(n: int):
    """Every graph on vertices 0..n-1, one per edge subset."""
    pairs = list(combinations(range(n), 2))
    for sel in range(1 << len(pairs)):
        yield Graph.from_edges(n, [pairs[i] for i in range(len(pairs)) if sel >> i & 1])


def all_orientations(g: Graph):
    edges = g.edges()
    for choice in product((0, 1), repeat=len(edges)):
        yield [
            (u, v) if bit == 0 else (v, u) for (u, v), bit in zip(edges, choice)
        ]


def wr_by_all_orientations(g: Graph) -> bool:
    return any(
        semi_transitive_by_paths(g.n, arcs) for arcs in all_orientations(g)
    )


def wr_by_vertex_orders(g: Graph) -> bool:
    """Representability by orienting each edge from the earlier end to the
    later in every vertex order, grown one vertex at a time. Every acyclic
    orientation comes from some order, and a prefix whose orientation has a
    shortcut or cycle is dropped with all its extensions, since a path
    inside the prefix is a path in the whole. A dropped prefix is
    remembered by its vertex set and arcs, which fix what can follow."""
    dead = set()

    def extend(order):
        if len(order) == g.n:
            return True
        for v in range(g.n):
            if v in order:
                continue
            nxt = order + [v]
            arcs = [(a, b) for i, a in enumerate(nxt) for b in nxt[i + 1:] if g.has_edge(a, b)]
            key = (frozenset(nxt), frozenset(arcs))
            if key in dead:
                continue
            if semi_transitive_by_paths(g.n, arcs) and extend(nxt):
                return True
            dead.add(key)
        return False

    return extend([])


def comparability_by_all_orientations(g: Graph) -> bool:
    return any(
        transitive_by_triples(g.n, arcs) for arcs in all_orientations(g)
    )


def orientation_of(g: Graph, arcs) -> Orientation:
    return Orientation.from_arcs(g, arcs)


def eta_unpruned(g: Graph) -> int:
    """Largest representable-set size by plain descending enumeration with
    one full decision per subset and no containment skipping."""
    from wordrep.recognition import wr_decide

    for size in range(g.n, -1, -1):
        for cand in combinations(range(g.n), size):
            if wr_decide(induced_subgraph(g, cand))[0]:
                return size
    raise AssertionError
