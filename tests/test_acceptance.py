"""End-to-end acceptance checks. Each test prints one PASS/FAIL line with
its measured runtime against a pinned budget; every value asserted here is
exact."""

from __future__ import annotations

import random
import time
from itertools import combinations

from conftest import lex_product_missing_a_cross_edge, random_graph
from oracles import graph_by_restriction, semi_transitive_by_paths
from wordrep import extremal
from wordrep.certificates import TRANSITIVE
from wordrep.decomposition import (
    as_decomposition,
    decompose_min_nonwr_product,
    decompose_power_k,
    decompose_power_two_comparability,
    decompose_product_general,
    decompose_product_tight,
    verify_lower_bound,
)
from wordrep.errors import InternalError
from wordrep.extremal import (
    eta,
    verify_no_wr_subgraph,
    verify_power_bound,
)
from wordrep.graphs import (
    Graph,
    Orientation,
    cycle_graph,
    extremal8,
    induced_subgraph,
    path_graph,
    wheel_graph,
)
from wordrep.lexops import lex_map, lex_product, special_subgraph
from wordrep.recognition import (
    check_semi_transitive,
    check_transitive,
    comparability_decide,
    is_comparability,
    is_minimal_non_wr,
    is_wr,
    mu_exact,
    verify_decomposition,
    word_from_orientation,
    wr_decide,
)

C5_SPLIT = ([(0, 1), (1, 2)], [(2, 3), (3, 4), (0, 4)])


def _report(num: int, ok: bool, detail: str, elapsed: float, budget: float) -> None:
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {num}: {status} - {detail} ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert ok, detail
    assert elapsed < budget, f"criterion {num} took {elapsed:.2f}s"


def test_criterion_01_extremal_eight_vertices():
    t0 = time.perf_counter()
    g = extremal8()
    ok = g.n == 8 and g.edge_count() == 18
    ok = ok and eta(g).value == 6
    ok = ok and verify_no_wr_subgraph(g, 7)
    _report(1, ok, "eta = 6 and no representable 7-subset of the extremal 8-vertex graph",
            time.perf_counter() - t0, 5.0)


def test_criterion_02_product_characterization_table():
    t0 = time.perf_counter()
    named = {"P3": path_graph(3), "C5": cycle_graph(5)}
    rows = {
        ("P3", "P3"): (True, True, 1),
        ("P3", "C5"): (False, False, 2),
        ("C5", "P3"): (True, False, 1),
        ("C5", "C5"): (False, False, 2),
    }
    ok = True
    for (a, b), row in rows.items():
        h = lex_product(named[a], named[b]).graph
        ok = ok and (is_wr(h), is_comparability(h), mu_exact(h).value) == row
    _report(2, ok, "all four product rows match, each decided on the product itself",
            time.perf_counter() - t0, 30.0)


def test_criterion_03_power_cover_with_witness():
    t0 = time.perf_counter()
    c5 = cycle_graph(5)
    ok = True
    for k in (2, 3):
        d = decompose_power_k(c5, k)
        ok = ok and len(d.parts) <= k
        ok = ok and not verify_decomposition(d.host, d)
        ok = ok and d.lower_bound == 2 and len(d.lower_bound_witness) == 6
        ok = ok and not wr_decide(induced_subgraph(d.host, d.lower_bound_witness))[0]
    _report(3, ok, "power covers of C5 use at most k parts with a 6-vertex witness",
            time.perf_counter() - t0, 10.0)


def test_criterion_04_two_transitive_parts():
    t0 = time.perf_counter()
    c5 = cycle_graph(5)
    ok = True
    for k in (2, 3):
        d = decompose_power_two_comparability(c5, C5_SPLIT, k)
        ok = ok and len(d.parts) == 2
        for p in d.parts:
            ok = ok and p.kind == TRANSITIVE
            ok = ok and check_transitive(p.payload)
        ok = ok and not verify_decomposition(d.host, d)
        ok = ok and d.lower_bound == 2 and not verify_lower_bound(d)
    _report(4, ok, "two transitive parts certify mu(C5^[k]) = 2 for k = 2, 3",
            time.perf_counter() - t0, 10.0)


def test_criterion_05_general_and_tight_product_covers():
    t0 = time.perf_counter()
    w5, c5 = wheel_graph(5), cycle_graph(5)
    cover = as_decomposition(w5, mu_exact(w5))
    d4 = decompose_product_general(lex_product(w5, w5), cover, cover)
    ok = len(d4.parts) == 4 and not verify_decomposition(d4.host, d4)
    dt = decompose_product_tight(lex_product(w5, c5), cover, C5_SPLIT)
    ok = ok and len(dt.parts) == 2 and not verify_decomposition(dt.host, dt)
    ok = ok and dt.lower_bound == 2 and not verify_lower_bound(dt)
    copy = induced_subgraph(dt.host, dt.lower_bound_witness)
    ok = ok and copy == w5 and not wr_decide(copy)[0]
    _report(5, ok, "4 verified general parts; tight cover + embedded wheel give mu = 2",
            time.perf_counter() - t0, 20.0)


def test_criterion_06_minimal_factor_covers():
    t0 = time.perf_counter()
    w5 = wheel_graph(5)
    ok = is_minimal_non_wr(w5)
    p = lex_product(w5, w5)
    for r in range(6):
        d = decompose_min_nonwr_product(p, r=r)
        ok = ok and len(d.parts) == 3
        ok = ok and not verify_decomposition(d.host, d)
        sets = [frozenset(part.payload.host.edges()) for part in d.parts]
        ok = ok and not (sets[0] & sets[1]) and not (sets[0] & sets[2])
        ok = ok and not (sets[1] & sets[2])
    _report(6, ok, "W5 is minimal; all six anchored covers give 3 disjoint parts",
            time.perf_counter() - t0, 60.0)


def test_criterion_07_power_bound_structure(monkeypatch):
    t0 = time.perf_counter()
    rep = verify_power_bound(extremal8(), 2, 6)
    ok = rep.bound == 36 and rep.supervertices_checked == 8
    # one missing cross edge breaks the block structure the bound rests on
    monkeypatch.setattr(extremal, "lex_product", lex_product_missing_a_cross_edge)
    try:
        verify_power_bound(extremal8(), 2, 6)
        ok = False
    except InternalError:
        pass
    _report(7, ok, "8 supervertices are modules over the base; a dropped cross edge is refused",
            time.perf_counter() - t0, 600.0)


def test_criterion_08_orientation_oracle_agreement():
    t0 = time.perf_counter()
    checked = 0
    words = 0
    ok = True

    def agree(g: Graph, arcs) -> bool:
        """The path oracle agrees with the checker, and every orientation
        that passes yields a word the restriction oracle maps back to g."""
        nonlocal words
        o = Orientation.from_arcs(g, arcs)
        passes = check_semi_transitive(o)
        if passes != semi_transitive_by_paths(g.n, arcs):
            return False
        if passes:
            words += 1
            return graph_by_restriction(word_from_orientation(o), g.n) == g
        return True

    for n in range(6):
        pairs = list(combinations(range(n), 2))
        for gmask in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if gmask >> i & 1]
            g = Graph.from_edges(n, edges)
            for omask in range(1 << len(edges)):
                arcs = [(v, u) if omask >> i & 1 else (u, v)
                        for i, (u, v) in enumerate(edges)]
                ok = ok and agree(g, arcs)
                checked += 1
    exhaustive = checked
    ok = ok and words == 17_782
    rng = random.Random(8)
    for n in (6, 7):
        for _ in range(10_000):
            g = random_graph(rng, n, rng.choice((0.3, 0.5, 0.7)))
            arcs = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in g.edges()]
            ok = ok and agree(g, arcs)
            checked += 1
    ok = ok and exhaustive == 59_810 and checked == 79_810
    _report(8, ok, f"path oracle agrees on {checked} orientations, "
            f"{words} words from them represent their hosts",
            time.perf_counter() - t0, 300.0)


def test_criterion_09_small_graphs_all_representable():
    t0 = time.perf_counter()
    ok = True
    counted = 0
    for n in range(6):
        pairs = list(combinations(range(n), 2))
        for gmask in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if gmask >> i & 1]
            ok = ok and wr_decide(Graph.from_edges(n, edges))[0]
            counted += 1
    ok = ok and counted == 1 + 1 + 2 + 8 + 64 + 1024
    _report(9, ok, "every labeled graph on <= 5 vertices is representable, tau(n) = n",
            time.perf_counter() - t0, 120.0)


def test_criterion_10_property_suites():
    t0 = time.perf_counter()
    ok = True

    # representability is hereditary
    rng = random.Random(10)
    for _ in range(1000):
        g = random_graph(rng, rng.randint(1, 7), rng.choice((0.3, 0.5, 0.7)))
        keep = tuple(v for v in range(g.n) if rng.random() < 0.6)
        if wr_decide(g)[0]:
            ok = ok and wr_decide(induced_subgraph(g, keep))[0]

    # a dominating vertex reduces representability to comparability
    rng = random.Random(11)
    non_comp_seen = 0
    for i in range(500):
        g = cycle_graph(5) if i == 0 else random_graph(
            rng, rng.randint(1, 6), rng.choice((0.3, 0.5, 0.7)))
        apex = Graph.from_edges(g.n + 1, g.edges() + [(v, g.n) for v in range(g.n)])
        lhs = wr_decide(apex)[0]
        rhs = comparability_decide(g)[0]
        ok = ok and lhs == rhs == is_wr(apex)
        non_comp_seen += not rhs
    ok = ok and non_comp_seen > 0

    # composition is associative, exhaustively over tiny factors
    smalls = []
    for n in range(1, 4):
        pairs = list(combinations(range(n), 2))
        for gmask in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if gmask >> i & 1]
            smalls.append(Graph.from_edges(n, edges))
    for a in smalls:
        for b in smalls:
            ab = lex_product(a, b).graph
            for c in smalls:
                left = lex_product(ab, c).graph
                right = lex_product(a, lex_product(b, c).graph).graph
                ok = ok and left == right

    # comparability transfers between an outer subgraph, its map, and any
    # refill of that map, in both directions
    rng = random.Random(12)
    map_false_seen = 0
    for i in range(200):
        if i < 2:
            g1, sel = cycle_graph(5 + 2 * i), cycle_graph(5 + 2 * i).edges()
            g2 = random_graph(rng, 2, 0.5)
        else:
            g1 = random_graph(rng, rng.randint(3, 5), 0.6)
            g2 = random_graph(rng, rng.randint(1, 3), 0.6)
            sel = [e for e in g1.edges() if rng.random() < 0.7]
        m = lex_map(lex_product(g1, g2), sel)
        sel_comp = comparability_decide(Graph.from_edges(g1.n, sel))[0]
        map_comp = comparability_decide(m.graph)[0]
        ok = ok and sel_comp == map_comp
        map_false_seen += not map_comp
        if wr_decide(m.outer_subgraph())[0]:
            fills = []
            for _ in range(g1.n):
                while True:
                    cand = [e for e in g2.edges() if rng.random() < 0.5]
                    if comparability_decide(Graph.from_edges(g2.n, cand))[0]:
                        fills.append(cand)
                        break
            s = special_subgraph(m, fills)
            ok = ok and comparability_decide(s.graph)[0] == map_comp
    ok = ok and map_false_seen >= 2

    _report(10, ok, "hereditarity, dominating-vertex law, associativity, and "
            "comparability transfer all hold", time.perf_counter() - t0, 600.0)
