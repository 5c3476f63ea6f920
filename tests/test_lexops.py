import random

import pytest

from wordrep import lexops
from wordrep.errors import InputError
from wordrep.graphs import (
    Graph,
    LexStructure,
    Orientation,
    complete_graph,
    cycle_graph,
    empty_graph,
    extremal8,
    induced_subgraph,
    path_graph,
    wheel_graph,
)
from wordrep.lexops import (
    lex_map,
    lex_power,
    lex_product,
    lift_semi_transitive,
    orient_special,
    special_subgraph,
    supervertex_witness,
)
from wordrep.recognition import (
    check_semi_transitive,
    check_transitive,
    comparability_decide,
    is_comparability,
    is_wr,
    mu_exact,
    wr_decide,
)

from conftest import random_graph, record_calls


# ── products and powers ───────────────────────────────────────────────────


def test_product_of_complete_factors_is_complete():
    assert lex_product(complete_graph(2), complete_graph(2)).graph == complete_graph(4)
    assert lex_product(complete_graph(2), complete_graph(3)).graph == complete_graph(6)


def test_product_with_empty_inner_is_complete_bipartite():
    g = lex_product(complete_graph(2), empty_graph(2)).graph
    assert g.edges() == [(0, 2), (0, 3), (1, 2), (1, 3)]


def test_product_with_point_inner_is_identity():
    c5 = cycle_graph(5)
    assert lex_product(c5, complete_graph(1)).graph == c5


def test_supervertex_blocks_induce_inner_factor(rng=random.Random(11)):
    for _ in range(25):
        g1 = random_graph(rng, rng.randint(1, 4), 0.5)
        g2 = random_graph(rng, rng.randint(1, 4), 0.5)
        p = lex_product(g1, g2)
        for i in range(g1.n):
            assert induced_subgraph(p.graph, p.structure.supervertex(i)) == g2


def test_one_vertex_per_supervertex_induces_outer_factor(rng=random.Random(12)):
    for _ in range(25):
        g1 = random_graph(rng, rng.randint(1, 4), 0.5)
        g2 = random_graph(rng, rng.randint(1, 4), 0.5)
        p = lex_product(g1, g2)
        picks = [p.structure.flat(i, rng.randrange(g2.n)) for i in range(g1.n)]
        assert induced_subgraph(p.graph, picks) == g1


def test_product_is_associative_on_random_triples():
    rng = random.Random(13)
    for _ in range(30):
        a = random_graph(rng, rng.randint(2, 4), 0.5)
        b = random_graph(rng, rng.randint(2, 4), 0.5)
        c = random_graph(rng, rng.randint(2, 4), 0.5)
        assert (
            lex_product(lex_product(a, b).graph, c).graph
            == lex_product(a, lex_product(b, c).graph).graph
        )


def test_power_examples():
    assert lex_power(complete_graph(2), 2).graph == complete_graph(4)
    assert lex_power(cycle_graph(5), 1).graph == cycle_graph(5)
    assert lex_power(extremal8(), 2).graph.n == 64


def test_power_zero_rejected():
    with pytest.raises(InputError):
        lex_power(complete_graph(2), 0)


def test_power_supervertices_induce_both_views():
    ch = lex_power(cycle_graph(5), 2)
    assert ch.graph.n == 25
    head, tail = ch.structure, LexStructure(25, 5)
    for i in range(5):
        assert induced_subgraph(ch.graph, head.supervertex(i)) == cycle_graph(5)
    for i in range(5):
        assert induced_subgraph(ch.graph, tail.supervertex(i)) == cycle_graph(5)


def test_power_head_view_matches_direct_product():
    # G^[3] is G composed over G^[2]: each head supervertex induces G^[2].
    c5 = cycle_graph(5)
    ch = lex_power(c5, 3)
    head = ch.structure
    sub = induced_subgraph(ch.graph, head.supervertex(3))
    assert sub == lex_power(c5, 2).graph


def test_power_is_the_base_over_the_previous_power():
    # lex_power builds power(k-1) over the base; composing the base over
    # power(k-1) checks the head view it reports against that build
    bases = [(complete_graph(2), 4), (path_graph(3), 4), (cycle_graph(5), 4), (extremal8(), 3)]
    for base, top in bases:
        for k in range(1, top + 1):
            p = lex_power(base, k)
            assert p.outer == base
            assert p.inner == (complete_graph(1) if k == 1 else lex_power(base, k - 1).graph)
            assert p.structure == LexStructure(base.n, base.n ** (k - 1))
            assert p.graph == lex_product(base, p.inner).graph == lex_product(p.inner, base).graph


# ── lexicographic maps ────────────────────────────────────────────────────


def test_map_of_single_edge_is_complete_join():
    p = lex_product(complete_graph(2), cycle_graph(5))
    m = lex_map(p, [(0, 1)])
    assert m.graph.edge_count() == 25
    for a in range(5):
        for b in range(5):
            assert m.graph.has_edge(a, 5 + b)
            assert not m.graph.has_edge(a, b) if a != b else True


def test_map_of_full_edge_set_with_point_inner_is_outer():
    c5 = cycle_graph(5)
    p = lex_product(c5, complete_graph(1))
    assert lex_map(p, c5.edges()).graph == c5


def test_map_of_empty_edge_set_is_empty():
    p = lex_product(cycle_graph(5), path_graph(3))
    assert lex_map(p, []).graph == empty_graph(15)


def test_map_rejects_non_edges():
    p = lex_product(path_graph(3), complete_graph(2))
    with pytest.raises(InputError):
        lex_map(p, [(0, 2)])


def test_map_has_no_intra_supervertex_edges(rng=random.Random(14)):
    for _ in range(20):
        g1 = random_graph(rng, 4, 0.6)
        g2 = random_graph(rng, 3, 0.7)
        p = lex_product(g1, g2)
        edges = [e for e in g1.edges() if rng.random() < 0.6]
        m = lex_map(p, edges)
        for i in range(g1.n):
            block = p.structure.supervertex(i)
            assert induced_subgraph(m.graph, block) == empty_graph(g2.n)


# ── orientation lifting ───────────────────────────────────────────────────


def test_lift_directs_blocks_uniformly():
    p = lex_product(complete_graph(2), empty_graph(2))
    m = lex_map(p, [(0, 1)])
    o = Orientation.from_arcs(m.outer_subgraph(), [(0, 1)])
    lifted = lift_semi_transitive(m, o)
    assert lifted.arcs() == [(0, 2), (0, 3), (1, 2), (1, 3)]
    assert check_transitive(lifted)


def test_lift_of_cycle_orientation_verifies_on_big_map():
    c5 = cycle_graph(5)
    m = lex_map(lex_product(c5, c5), c5.edges())
    o = wr_decide(c5)[1].payload
    lifted = lift_semi_transitive(m, o)
    assert lifted.host.n == 25
    assert check_semi_transitive(lifted)


def test_lift_of_transitive_orientation_stays_transitive():
    p3 = path_graph(3)
    m = lex_map(lex_product(p3, cycle_graph(5)), p3.edges())
    o = comparability_decide(p3)[1].payload
    assert check_transitive(lift_semi_transitive(m, o))


def test_lift_rejects_bad_orientations():
    c5 = cycle_graph(5)
    m = lex_map(lex_product(c5, complete_graph(2)), c5.edges())
    cyclic = Orientation.from_arcs(c5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    with pytest.raises(InputError):
        lift_semi_transitive(m, cyclic)


def test_lift_comparability_equivalence(rng=random.Random(15)):
    # selected outer subgraph is a comparability graph iff its map is
    hits = {True: 0, False: 0}
    for _ in range(60):
        g1 = random_graph(rng, rng.randint(2, 4), 0.6)
        g2 = random_graph(rng, rng.randint(2, 3), 0.6)
        p = lex_product(g1, g2)
        edges = [e for e in g1.edges() if rng.random() < 0.7]
        m = lex_map(p, edges)
        want = comparability_decide(m.outer_subgraph())[0]
        assert comparability_decide(m.graph)[0] == want
        hits[want] += 1
    assert hits[True] > 0  # both directions actually exercised
    # the false side needs a non-comparability outer subgraph; C5 is one
    c5 = cycle_graph(5)
    m = lex_map(lex_product(c5, complete_graph(2)), c5.edges())
    assert not comparability_decide(m.graph)[0]


# ── special subgraphs ─────────────────────────────────────────────────────


def test_special_with_empty_fills_is_the_map():
    p3 = path_graph(3)
    m = lex_map(lex_product(p3, cycle_graph(5)), p3.edges())
    s = special_subgraph(m, [[]] * 3)
    assert s.graph == m.graph


def test_special_with_full_fills_rebuilds_the_product():
    c5, p3 = cycle_graph(5), path_graph(3)
    p = lex_product(c5, p3)
    m = lex_map(p, c5.edges())
    s = special_subgraph(m, [p3.edges()] * 5)
    assert s.graph == p.graph


def test_special_orientation_verifies_on_cycle_over_cycle():
    c5 = cycle_graph(5)
    m = lex_map(lex_product(c5, c5), c5.edges())
    fill = [(0, 1), (1, 2)]
    s = special_subgraph(m, [fill] * 5)
    red = wr_decide(c5)[1].payload
    green = comparability_decide(Graph.from_edges(5, fill))[1].payload
    comb = orient_special(m.product, red, [green] * 5)
    assert check_semi_transitive(comb)
    assert comb.host == s.graph


def test_special_rejects_bad_fills():
    c5 = cycle_graph(5)
    m = lex_map(lex_product(c5, c5), c5.edges())
    with pytest.raises(InputError):  # a full 5-cycle fill is not comparability
        special_subgraph(m, [c5.edges()] * 5)
    with pytest.raises(InputError):  # (0, 2) is not an inner edge
        special_subgraph(m, [[(0, 2)]] + [[]] * 4)
    with pytest.raises(InputError):  # one fill per supervertex
        special_subgraph(m, [[]] * 4)


def test_special_rejects_non_representable_outer():
    w5 = wheel_graph(5)
    m = lex_map(lex_product(w5, complete_graph(2)), w5.edges())
    with pytest.raises(InputError):
        special_subgraph(m, [[]] * 6)


def test_orient_special_with_empty_fills_reduces_to_lift():
    c5 = cycle_graph(5)
    m = lex_map(lex_product(c5, c5), c5.edges())
    red = wr_decide(c5)[1].payload
    idle = Orientation(empty_graph(5), (0,) * 5)
    assert orient_special(m.product, red, [idle] * 5) == lift_semi_transitive(m, red)


def test_orient_special_all_transitive_gives_transitive():
    p3 = path_graph(3)
    p = lex_product(p3, p3)
    m = lex_map(p, p3.edges())
    o = comparability_decide(p3)[1].payload
    comb = orient_special(m.product, o, [o] * 3)
    assert check_transitive(comb)
    assert comb.host == p.graph


def test_orient_special_rejects_mismatched_greens():
    p3 = path_graph(3)
    m = lex_map(lex_product(p3, p3), p3.edges())
    red = comparability_decide(p3)[1].payload
    good = comparability_decide(p3)[1].payload
    # (0, 2) is not an edge of the inner path
    non_inner = Orientation.from_arcs(Graph.from_edges(3, [(0, 2)]), [(0, 2)])
    with pytest.raises(InputError):
        orient_special(m.product, red, [good, non_inner, good])
    # a green on four vertices does not fit a three-vertex supervertex
    too_big = comparability_decide(path_graph(4))[1].payload
    with pytest.raises(InputError):
        orient_special(m.product, red, [good, good, too_big])
    with pytest.raises(InputError):  # one green per supervertex
        orient_special(m.product, red, [good] * 2)


def test_orient_special_rejects_non_transitive_greens_and_bad_reds():
    p3, c5 = path_graph(3), cycle_graph(5)
    m = lex_map(lex_product(p3, p3), p3.edges())
    red = comparability_decide(p3)[1].payload
    good = comparability_decide(p3)[1].payload
    # 0 -> 1 -> 2 has no arc 0 -> 2 to close it
    chain = Orientation.from_arcs(p3, [(0, 1), (1, 2)])
    assert check_semi_transitive(chain) and not check_transitive(chain)
    with pytest.raises(InputError):
        orient_special(m.product, red, [good, chain, good])
    # a directed 5-cycle is not semi-transitive
    mc = lex_map(lex_product(c5, p3), c5.edges())
    cyclic = Orientation.from_arcs(c5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    with pytest.raises(InputError):
        orient_special(mc.product, cyclic, [good] * 5)
    # a semi-transitive red passes with the same greens
    assert orient_special(mc.product, wr_decide(c5)[1].payload, [good] * 5).host.n == 15


def orientations(g):
    """Every orientation of g."""
    edges = g.edges()
    for flips in range(1 << len(edges)):
        arcs = [(v, u) if flips >> k & 1 else (u, v) for k, (u, v) in enumerate(edges)]
        yield Orientation.from_arcs(g, arcs)


def test_orient_special_matches_brute_force_substitution(rng=random.Random(20)):
    # oracle: the composite is the substitution built pair by pair; greens
    # are transitive where red has an edge and, where g2 allows, only
    # semi-transitive at supervertices without a cross edge
    seen = {"chain": 0, "transitive": 0, "refused": 0}
    for _ in range(80):
        g1 = random_graph(rng, rng.randint(1, 4), 0.6)
        g2 = random_graph(rng, rng.randint(1, 4), 0.7)
        p = lex_product(g1, g2)
        sub = Graph.from_edges(g1.n, [e for e in g1.edges() if rng.random() < 0.7])
        red = wr_decide(sub)[1].payload
        greens, chains = [], []
        for i in range(g1.n):
            fill = Graph.from_edges(g2.n, [e for e in g2.edges() if rng.random() < 0.8])
            semi = [o for o in orientations(fill) if check_semi_transitive(o)]
            chains.append([o for o in semi if not check_transitive(o)])
            if sub.adj[i] or not chains[i]:
                greens.append(comparability_decide(fill)[1].payload)
            else:
                greens.append(rng.choice(chains[i]))
        comb = orient_special(p, red, greens)

        n2, n = g2.n, p.graph.n

        def arc(u, v):
            (i, a), (j, b) = divmod(u, n2), divmod(v, n2)
            return bool((red.out[i] >> j if i != j else greens[i].out[a] >> b) & 1)

        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = [(u, v) for u, v in pairs if arc(u, v) or arc(v, u)]
        assert comb.host == Graph.from_edges(n, edges)
        assert comb.arcs() == [(u, v) for u in range(n) for v in range(n) if arc(u, v)]
        assert check_semi_transitive(comb)
        if check_transitive(red) and all(check_transitive(o) for o in greens):
            assert check_transitive(comb)
            seen["transitive"] += 1
        else:
            seen["chain"] += 1

        # refused: a non-transitive green at a supervertex with a cross edge
        crossed = [i for i in range(g1.n) if sub.adj[i] and chains[i]]
        if crossed:
            i = rng.choice(crossed)
            bad = greens[:i] + [chains[i][0]] + greens[i + 1:]
            with pytest.raises(InputError):
                orient_special(p, red, bad)
            seen["refused"] += 1
        # refused: a red that orients a non-edge of the outer factor
        missing = [(u, v) for u in range(g1.n) for v in range(u + 1, g1.n) if not g1.has_edge(u, v)]
        if missing:
            wide = Graph.from_edges(g1.n, sub.edges() + [rng.choice(missing)])
            with pytest.raises(InputError):
                orient_special(p, wr_decide(wide)[1].payload, greens)
    assert all(seen.values()), seen


def test_orient_special_checks_each_distinct_green_once(monkeypatch):
    p3 = path_graph(3)
    p = lex_product(cycle_graph(5), p3)
    red = wr_decide(cycle_graph(5))[1].payload
    good = comparability_decide(p3)[1].payload
    checked = record_calls(monkeypatch, lexops, "check_transitive")
    orient_special(p, red, [good] * 5)
    assert checked == [good]


def test_special_comparability_equivalence(rng=random.Random(16)):
    # the composite is a comparability graph iff its underlying map is
    for _ in range(40):
        g1 = random_graph(rng, rng.randint(2, 4), 0.6)
        g2 = random_graph(rng, rng.randint(2, 3), 0.7)
        p = lex_product(g1, g2)
        edges = [e for e in g1.edges() if rng.random() < 0.7]
        m = lex_map(p, edges)
        if not wr_decide(m.outer_subgraph())[0]:
            continue
        fills = []
        for _ in range(g1.n):
            while True:
                fill = [e for e in g2.edges() if rng.random() < 0.5]
                if comparability_decide(Graph.from_edges(g2.n, fill))[0]:
                    fills.append(fill)
                    break
        s = special_subgraph(m, fills)
        assert (
            comparability_decide(s.graph)[0]
            == comparability_decide(m.graph)[0]
        )


# ── the product characterization ──────────────────────────────────────────


def test_characterization_matches_comparability_table():
    # (outer, inner): product representable, comparability, and its mu
    p3, c5 = path_graph(3), cycle_graph(5)
    rows = {
        (p3, p3): (True, True, 1),
        (p3, c5): (False, False, 2),
        (c5, p3): (True, False, 1),
        (c5, c5): (False, False, 2),
    }
    for (g1, g2), row in rows.items():
        h = lex_product(g1, g2).graph
        assert (is_wr(h), is_comparability(h), mu_exact(h).value) == row


def test_characterization_witness_is_supervertex_plus_neighbor():
    k2, c5 = complete_graph(2), cycle_graph(5)
    p = lex_product(k2, c5)
    w = supervertex_witness(p.structure, k2)
    assert w == (0, 1, 2, 3, 4, 5)
    assert not is_wr(induced_subgraph(p.graph, w))


def test_characterization_agrees_with_direct_decision(rng=random.Random(17)):
    # with an outer edge, the product is representable iff the inner factor
    # is a comparability graph, and a comparability graph iff both are;
    # every graph on at most 4 vertices is a comparability graph, so the
    # random sweep exercises the representable side only
    for _ in range(40):
        g1 = random_graph(rng, rng.randint(2, 3), 0.7)
        g2 = random_graph(rng, rng.randint(1, 4), 0.5)
        if g1.edge_count() == 0:
            continue
        h = lex_product(g1, g2).graph
        assert wr_decide(h)[0] == is_comparability(g2)
        assert comparability_decide(h)[0] == (is_comparability(g1) and is_comparability(g2))
    # the non-representable side needs a 5-vertex inner factor
    h = lex_product(complete_graph(2), cycle_graph(5)).graph
    assert not wr_decide(h)[0] and not comparability_decide(h)[0]
