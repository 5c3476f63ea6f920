from __future__ import annotations

import inspect
import random
import sys
from itertools import combinations, product
from pathlib import Path

import networkx as nx
import pytest

from conftest import planted_w5, random_graph, record_calls
from oracles import (
    all_labeled_graphs,
    comparability_by_all_orientations,
    graph_by_restriction,
    semi_transitive_by_paths,
    wr_by_all_orientations,
    wr_by_vertex_orders,
)
from wordrep import recognition
from wordrep.certificates import (
    NON_COMPARABILITY,
    SEMI_TRANSITIVE,
    TRANSITIVE,
    WITNESS,
    Certificate,
    MuResult,
)
from wordrep.errors import BudgetExceeded, InputError
from wordrep.formats import decode_graph6
from wordrep.graphs import (
    Graph,
    Orientation,
    bits,
    complete_graph,
    cycle_graph,
    empty_graph,
    induced_subgraph,
    path_graph,
    wheel_graph,
)
from wordrep.lexops import lex_product
from wordrep.recognition import (
    check_semi_transitive,
    check_transitive,
    comparability_decide,
    find_word,
    graph_of_word,
    is_comparability,
    is_minimal_non_wr,
    is_wr,
    mu_exact,
    verify_certificate,
    verify_decomposition,
    word_from_orientation,
    word_represents,
    wr_decide,
)

CORPUS6 = Path(__file__).parent / "data" / "graphs6.g6"
GROTZSCH, CHVATAL = "JhdLA_gc?N_", "KhdLA_hc?L_y"
M5 = "VhdLA_gc?NhQhOSgDICh?QAA_GA_O@OOAOG?@{???N~_"  # the Mycielskian of Grötzsch

# ── words ────────────────────────────────────────────────────────────────


def test_graph_of_word_examples():
    assert graph_of_word([2, 0, 1]) == complete_graph(3)
    assert graph_of_word([0, 0, 1, 1, 2, 2]) == empty_graph(3)
    assert graph_of_word([0, 1, 0, 2, 1, 2]).edges() == [(0, 1), (1, 2)]
    assert graph_of_word([0], 1) == empty_graph(1)
    assert graph_of_word([]) == empty_graph(0)
    with pytest.raises(InputError):
        graph_of_word([0, 2], 3)  # vertex 1 never occurs
    with pytest.raises(InputError):
        graph_of_word([0, 5], 2)  # letter out of range
    with pytest.raises(InputError):
        graph_of_word([0, 1, 2], 2)  # the letter n itself
    with pytest.raises(InputError):
        graph_of_word([0, -1, 1], 2)  # a negative letter
    with pytest.raises(InputError):
        graph_of_word([2, 0, 2])  # vertex 1 never occurs, n inferred


def test_graph_of_word_on_every_short_word():
    # every word over at most 3 letters of length at most 8: the graph when
    # every letter occurs, an input error otherwise
    for n in range(4):
        for length in range(9):
            for w in product(range(n), repeat=length):
                if len(set(w)) == n:
                    assert graph_of_word(w, n) == graph_by_restriction(w, n), w
                else:
                    with pytest.raises(InputError):
                        graph_of_word(w, n)


def test_graph_of_word_matches_oracle():
    # non-uniform words: per-letter copy counts drawn from 1..6, so pairs
    # whose counts differ by 0, 1 and more all occur
    rng = random.Random(33)
    for _ in range(3000):
        n = rng.randint(1, 7)
        w = [v for v in range(n) for _ in range(rng.randint(1, 6 if rng.random() < 0.3 else 2))]
        rng.shuffle(w)
        assert graph_of_word(w, n) == graph_by_restriction(w, n), w


def test_word_represents(c5):
    assert word_represents([0, 1, 4, 0, 3, 4, 2, 3, 1, 2], c5)
    assert not word_represents([0, 1, 2, 3, 4], c5)  # that is K5's word
    with pytest.raises(InputError):
        word_represents([0, 1, 2, 3], c5)  # vertex 4 missing


def _assert_uniform_word(w, g):
    assert word_represents(w, g)
    counts = {w.count(v) for v in range(g.n)}
    assert len(counts) == 1 and counts.pop() <= 2 * g.n


def test_find_word_small_cases(c5, w5):
    w = find_word(complete_graph(3))
    assert sorted(w) == [0, 1, 2]  # a complete graph needs one copy
    _assert_uniform_word(w, complete_graph(3))
    _assert_uniform_word(find_word(empty_graph(2)), empty_graph(2))
    _assert_uniform_word(find_word(c5), c5)
    assert find_word(w5) is None  # not representable at all
    assert find_word(empty_graph(0)) == ()


def test_found_words_are_uniform():
    rng = random.Random(5)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 7), rng.choice((0.3, 0.5, 0.7)))
        w = find_word(g)
        assert (w is None) == (not wr_decide(g)[0])
        if w is not None:
            _assert_uniform_word(w, g)


def test_comparability_graphs_get_extension_words():
    # a transitive orientation's word is a run of linear extensions, at most
    # one per vertex with a non-neighbour (so a complete graph gets a single
    # topological order); the block construction gives the same orientation
    # two copies per such vertex
    from_file = {decode_graph6(line) for line in CORPUS6.read_text().split()}
    for g in _exhaustive_corpus():
        o = recognition._find_transitive(g)
        if o is None:
            continue
        w = word_from_orientation(o)
        assert graph_by_restriction(w, g.n) == g
        anchors = sum(g.degree(v) < g.n - 1 for v in range(g.n))
        copies = len(w) // g.n if g.n else 0
        assert copies <= max(anchors, 1)
        for i in range(copies):
            ext = w[i * g.n:(i + 1) * g.n]
            assert sorted(ext) == list(range(g.n))
            assert all(ext.index(u) < ext.index(v) for u, v in o.arcs())
        if g.n <= 5 or g in from_file:
            old = recognition._block_word(o, recognition._topo_order(o.out, g.n))
            assert len(old) == 2 * anchors * g.n and copies <= max(2 * anchors, 1)


def test_word_from_orientation_rejects_non_semi_transitive():
    c4 = cycle_graph(4)
    shortcut = Orientation.from_arcs(c4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    with pytest.raises(InputError):
        word_from_orientation(shortcut)
    k3 = complete_graph(3)
    with pytest.raises(InputError):
        word_from_orientation(Orientation.from_arcs(k3, [(0, 1), (1, 2), (2, 0)]))


# ── orientation predicates ───────────────────────────────────────────────


def test_check_semi_transitive_handpicked():
    k3 = complete_graph(3)
    assert check_semi_transitive(Orientation.from_arcs(k3, [(0, 1), (1, 2), (0, 2)]))
    # directed triangle is cyclic
    assert not check_semi_transitive(Orientation.from_arcs(k3, [(0, 1), (1, 2), (2, 0)]))
    # path 0->1->2->3 with the closing arc 0->3 but chords missing
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    o = Orientation.from_arcs(g, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert not check_semi_transitive(o)
    # same digraph without the closing arc is fine
    g2 = path_graph(4)
    assert check_semi_transitive(Orientation.from_arcs(g2, [(0, 1), (1, 2), (2, 3)]))


def test_check_transitive_handpicked():
    k3 = complete_graph(3)
    assert check_transitive(Orientation.from_arcs(k3, [(0, 1), (1, 2), (0, 2)]))
    assert not check_transitive(Orientation.from_arcs(k3, [(0, 1), (1, 2), (2, 0)]))
    p3 = path_graph(3)
    assert check_transitive(Orientation.from_arcs(p3, [(0, 1), (2, 1)]))
    assert not check_transitive(Orientation.from_arcs(p3, [(0, 1), (1, 2)]))


def _enumerate_oriented_pairs(n):
    pairs = list(combinations(range(n), 2))
    for states in product((0, 1, 2), repeat=len(pairs)):
        edges = [p for p, s in zip(pairs, states) if s]
        arcs = [
            (u, v) if s == 1 else (v, u)
            for (u, v), s in zip(pairs, states)
            if s
        ]
        yield Graph.from_edges(n, edges), arcs


def test_semi_transitive_matches_path_oracle_exhaustively():
    for n in range(5):
        for g, arcs in _enumerate_oriented_pairs(n):
            o = Orientation.from_arcs(g, arcs)
            assert check_semi_transitive(o) == semi_transitive_by_paths(n, arcs)


def test_semi_transitive_matches_path_oracle_random():
    rng = random.Random(77)
    for _ in range(300):
        g = random_graph(rng, 6, 0.5)
        arcs = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in g.edges()]
        o = Orientation.from_arcs(g, arcs)
        assert check_semi_transitive(o) == semi_transitive_by_paths(6, arcs)


def test_transitive_is_semi_transitive():
    rng = random.Random(13)
    found = 0
    for _ in range(400):
        g = random_graph(rng, rng.randint(2, 6))
        arcs = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in g.edges()]
        o = Orientation.from_arcs(g, arcs)
        if check_transitive(o):
            found += 1
            assert check_semi_transitive(o)
    assert found > 20


def test_reversal_preserves_both():
    rng = random.Random(17)
    for _ in range(200):
        g = random_graph(rng, rng.randint(2, 6))
        arcs = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in g.edges()]
        o = Orientation.from_arcs(g, arcs)
        back = Orientation.from_arcs(o.host, [(v, u) for u, v in o.arcs()])
        assert check_semi_transitive(o) == check_semi_transitive(back)
        assert check_transitive(o) == check_transitive(back)


# ── deciders ─────────────────────────────────────────────────────────────


def test_wr_decide_known_graphs(c5, w5, h8, matching):
    for g in (c5, matching):
        ok, cert = wr_decide(g)
        assert ok and cert.kind == SEMI_TRANSITIVE
        assert cert.payload.host == g
        assert check_semi_transitive(cert.payload)

    ok, cert = wr_decide(w5)
    assert not ok and cert.kind == WITNESS
    assert cert.payload == (0, 1, 2, 3, 4, 5)  # the wheel itself is minimal

    ok, cert = wr_decide(h8)
    assert not ok
    assert len(cert.payload) <= 7


def test_wr_decide_matches_brute_force():
    for n in range(5):
        for bitsn in range(1 << (n * (n - 1) // 2)):
            pairs = list(combinations(range(n), 2))
            edges = [p for i, p in enumerate(pairs) if bitsn >> i & 1]
            g = Graph.from_edges(n, edges)
            assert wr_decide(g)[0] == wr_by_all_orientations(g)


def test_wr_decide_matches_literature_counts():
    # Kitaev & Lozin, Words and Graphs (2015): of the connected graphs on 6
    # and 7 vertices exactly 1 (the wheel W5) and 25 are not representable
    counts = {6: 0, 7: 0}
    for h in nx.graph_atlas_g():
        n = h.number_of_nodes()
        if n in counts and nx.is_connected(h):
            g = Graph.from_edges(n, list(h.edges()))
            ok, cert = wr_decide(g)
            assert verify_certificate(g, cert) == []
            counts[n] += not ok
    assert counts == {6: 1, 7: 25}


def test_deep_sparse_inputs_decide():
    g = path_graph(1100)
    ok, cert = wr_decide(g)
    assert ok and check_semi_transitive(cert.payload)
    # a path is a comparability graph, and the forcing pass alternates its
    # arcs, so every vertex is a source or a sink
    out = cert.payload.out
    assert all(out[b] == 0 for a in range(g.n) for b in bits(out[a]))
    rng = random.Random(12)
    for _ in range(4):
        n = rng.randint(200, 400)
        tree = Graph.from_edges(n, [(rng.randrange(v), v) for v in range(1, n)])
        for decide in (wr_decide, comparability_decide):
            ok, cert = decide(tree)
            assert ok and verify_certificate(tree, cert) == []


def test_memo_keeps_the_newest_graphs(monkeypatch):
    monkeypatch.setattr(recognition, "_WR_MEMO", recognition._Memo())
    monkeypatch.setattr(recognition, "_MEMO_VERTICES", 50)
    for n in range(2, 20):
        assert wr_decide(path_graph(n))[0]
    # 17 + 18 + 19 vertices would pass the cap
    assert list(recognition._WR_MEMO) == [path_graph(18), path_graph(19)]
    assert recognition._WR_MEMO.vertices == 37
    # a verdict-only entry that later gets its witness is updated in place,
    # not counted again
    memo = recognition._Memo()
    monkeypatch.setattr(recognition, "_WR_MEMO", memo)
    w5 = wheel_graph(5)
    assert is_minimal_non_wr(w5)  # holds W5 and its one-vertex deletions
    assert memo[w5] == (False, None)
    held, before = list(memo), memo.vertices
    ok, cert = wr_decide(w5)
    assert not ok and cert.payload == tuple(range(6))
    assert list(memo) == held and memo.vertices == before == sum(g.n for g in held)
    assert memo[w5] == (False, cert)


def _fresh_memos(monkeypatch) -> None:
    monkeypatch.setattr(recognition, "_WR_MEMO", recognition._Memo())
    monkeypatch.setattr(recognition, "_COMP_MEMO", recognition._Memo())


def _exhaustive_corpus() -> list[Graph]:
    """Every labeled graph on at most 6 vertices and the graph6 corpus."""
    corpus = [g for n in range(7) for g in all_labeled_graphs(n)]
    return corpus + [decode_graph6(line) for line in CORPUS6.read_text().split()]


def test_predicates_match_deciders(monkeypatch):
    corpus = _exhaustive_corpus()
    _fresh_memos(monkeypatch)
    verdicts = [(is_wr(g), is_comparability(g)) for g in corpus]
    # the deciders start from empty memos too, so they read no predicate entry
    _fresh_memos(monkeypatch)
    assert verdicts == [(wr_decide(g)[0], comparability_decide(g)[0]) for g in corpus]


def test_wr_witness_is_minimal(w5, h8):
    # the non-representable graphs on at most 6 vertices, the one in the
    # graph6 corpus, planted wheels on 7-13 vertices, and a graph whose
    # refusing neighbourhood holds a non-comparability witness that is not
    # representable by itself, so a cone over it would not be minimal; a
    # brute-force oracle judges every witness, so it shares no code with
    # the cone
    rng = random.Random(20261019)
    failing = [g for g in _exhaustive_corpus() if not is_wr(g)]
    assert len(failing) == 73
    failing += [w5, h8, decode_graph6("HnjNv~J")]
    failing += [planted_w5(rng, n) for n in range(7, 14) for _ in range(2)]
    for g in failing:
        witness = wr_decide(g)[1].payload
        assert not wr_by_vertex_orders(induced_subgraph(g, witness))
        for drop in range(len(witness)):
            rest = witness[:drop] + witness[drop + 1:]
            assert wr_by_vertex_orders(induced_subgraph(g, rest))


def test_vertex_order_oracle_matches_all_orientations():
    rng = random.Random(29)
    graphs = [random_graph(rng, rng.randint(1, 6), rng.choice((0.3, 0.5, 0.7, 0.9))) for _ in range(300)]
    graphs += [wheel_graph(5), cycle_graph(5)]
    assert [wr_by_vertex_orders(g) for g in graphs] == [wr_by_all_orientations(g) for g in graphs]


def test_verdict_only_callers_shrink_no_witness(monkeypatch, w5):
    built = record_calls(monkeypatch, recognition, "_wr_witness")
    shrunk = record_calls(monkeypatch, recognition, "_shrink_witness")
    planted = planted_w5(random.Random(3), 10)
    _fresh_memos(monkeypatch)
    assert mu_exact(w5).value == 2
    _fresh_memos(monkeypatch)
    assert not is_minimal_non_wr(planted)
    assert built == shrunk == []
    # a certificate asked for is built once, deciding its candidates
    # without building witnesses for them in turn
    assert not wr_decide(planted)[0]
    assert built == [planted]


def _verdict_corpus() -> list[Graph]:
    """Every labeled graph on at most 6 vertices, the graph6 corpus and a
    seeded sweep on 7-12 vertices."""
    rng = random.Random(20261018)
    corpus = _exhaustive_corpus()
    corpus += [random_graph(rng, n, p) for n in range(7, 13) for p in (0.3, 0.5, 0.7) for _ in range(10)]
    return corpus


def test_neighbourhood_rule_keeps_every_verdict(monkeypatch):
    corpus = _verdict_corpus()
    _fresh_memos(monkeypatch)
    verdicts = [is_wr(g) for g in corpus]
    assert 0 < sum(verdicts) < len(corpus)
    # with every neighbourhood passing, only the orientation search refuses
    monkeypatch.setattr(recognition, "is_comparability", lambda g: True)
    _fresh_memos(monkeypatch)
    assert verdicts == [is_wr(g) for g in corpus]


def _without_forcing_pass(monkeypatch) -> None:
    """Answer no graph by the comparability pass in `_find_semi_transitive`,
    while the neighbourhood rule still decides comparability with it."""
    real = recognition._find_transitive
    monkeypatch.setattr(recognition, "is_comparability", lambda h: real(h) is not None)
    monkeypatch.setattr(recognition, "_find_transitive", lambda h: None)


def test_value_order_keeps_every_verdict(monkeypatch):
    corpus = _verdict_corpus()
    # comparability graphs would skip the search, and with it the order
    _without_forcing_pass(monkeypatch)
    _fresh_memos(monkeypatch)
    found = [recognition._find_semi_transitive(g) for g in corpus]
    # an order hook that always answers "as stored"
    monkeypatch.setattr(recognition, "_least_growth", lambda edge, anc, reach: 1)
    _fresh_memos(monkeypatch)
    stored = [recognition._find_semi_transitive(g) for g in corpus]
    assert [o is None for o in found] == [o is None for o in stored]
    assert all(check_semi_transitive(o) for o in found + stored if o is not None)
    assert 0 < sum(o is None for o in found) < len(corpus)
    assert any(a != b for a, b in zip(found, stored))


def _word_graph(rng: random.Random, n: int, copies: int) -> Graph:
    """The graph of a shuffled word holding each of n letters `copies` times."""
    word = [v for v in range(n) for _ in range(copies)]
    rng.shuffle(word)
    return graph_of_word(word, n)


def test_edge_order_keeps_every_verdict(monkeypatch):
    rng = random.Random(20261023)
    corpus = _verdict_corpus()
    corpus += [planted_w5(rng, n) for n in range(7, 13) for _ in range(5)]
    words = [_word_graph(rng, n, copies) for n in range(16, 23) for copies in (2, 3)]
    corpus += words
    # comparability graphs would skip the search, and with it the order
    _without_forcing_pass(monkeypatch)
    _fresh_memos(monkeypatch)
    ranked = [recognition._find_semi_transitive(g) for g in corpus]
    monkeypatch.setattr(recognition, "_search_order", lambda g: g.edges())
    _fresh_memos(monkeypatch)
    indexed = [recognition._find_semi_transitive(g) for g in corpus]
    assert [o is None for o in ranked] == [o is None for o in indexed]
    assert all(check_semi_transitive(o) for o in ranked + indexed if o is not None)
    assert 0 < sum(o is None for o in ranked) < len(corpus)
    assert all(o is not None for o in ranked[-len(words):])
    assert any(a != b for a, b in zip(ranked, indexed))


def test_search_order_ranks_by_maximum_cardinality():
    # a triangle 0, 3, 5 with a path 5, 1, 2, 4 hanging off it: 0 first,
    # then 3 (one ranked neighbour, tied with 5 and lower), 5 (two), then
    # down the path; each edge comes when its later end is ranked
    g = Graph.from_edges(6, [(0, 3), (3, 5), (0, 5), (1, 5), (1, 2), (2, 4)])
    assert recognition._search_order(g) == [(0, 3), (0, 5), (3, 5), (1, 5), (1, 2), (2, 4)]


def test_hard_inputs_decide_within_budget(monkeypatch):
    # M5 and Grötzsch are triangle-free, so no vertex refuses them, and the
    # search must refute them; the exact step counts pin the search tree.
    # A 30-vertex graph of a shuffled 3-uniform word is representable and
    # the search must find an orientation
    for g6, steps in ((M5, 8276), (GROTZSCH, 1757)):
        _fresh_memos(monkeypatch)
        budget = recognition._Budget(recognition._VERIFY_BUDGET)
        assert recognition._find_semi_transitive(decode_graph6(g6), budget) is None
        assert budget.steps - budget.left == steps
    _fresh_memos(monkeypatch)
    word = decode_graph6("]I?A_GP?OAGO@???AgG??AG?@@_a?O?_O????_???????C_OMH`????LC@WOP?E?OJ?oGG?G?O")
    o = recognition._find_semi_transitive(word, recognition._Budget(1000))
    assert o is not None and check_semi_transitive(o)


def test_race_answers_with_whichever_search_ends_first():
    def search(steps: int, answer: str):
        for _ in range(steps):
            yield
        return answer

    head = recognition._RACE_HEAD
    built = []
    assert recognition._race(search(5, "lead"), lambda: built.append(1)) == "lead"
    assert not built  # a search that ends within the head races nothing
    assert recognition._race(search(head + 100, "lead"), lambda: search(10, "other")) == "other"
    assert recognition._race(search(head + 10, "lead"), lambda: search(10, "other")) == "lead"


def test_race_cuts_the_ranked_orders_tail(monkeypatch):
    # the graph of a shuffled 2-uniform word on 16 letters: the search in
    # maximum-cardinality order alone takes 1,101,358 propagator calls,
    # index order 2,705; raced, both together take exactly 12,823
    _fresh_memos(monkeypatch)
    g = decode_graph6("Ow}b^oayvo|~}Vyr~Jy??")
    budget = recognition._Budget(20_000)
    o = recognition._find_semi_transitive(g, budget)
    assert o is not None and check_semi_transitive(o)
    assert budget.steps - budget.left == 12_823


def test_forcing_pass_keeps_every_verdict(monkeypatch):
    corpus = _verdict_corpus()

    def orientations() -> list:
        _fresh_memos(monkeypatch)
        return [wr_decide(g)[1].payload if is_wr(g) else None for g in corpus]

    passed = orientations()
    comparable = [is_comparability(g) for g in corpus]
    _without_forcing_pass(monkeypatch)
    searched = orientations()
    assert [o is None for o in passed] == [o is None for o in searched]
    assert 0 < sum(comparable) < sum(o is not None for o in passed)
    changed = 0
    for comp, o, o_searched in zip(comparable, passed, searched):
        if comp:
            assert check_transitive(o)
            changed += o != o_searched
        else:
            assert o == o_searched
    assert changed


def _record_searches(monkeypatch) -> tuple[list, list]:
    """Fresh memos, and two lists that record the graphs handed to
    `_semi_transitive_search` and to `_find_transitive`."""
    searched = record_calls(monkeypatch, recognition, "_semi_transitive_search")
    decided = record_calls(monkeypatch, recognition, "_find_transitive")
    _fresh_memos(monkeypatch)
    return searched, decided


def test_comparability_graphs_never_backtrack(monkeypatch, matching):
    searched, decided = _record_searches(monkeypatch)
    for g in (path_graph(1100), matching):
        ok, cert = wr_decide(g)
        assert ok and check_transitive(cert.payload)
        # the orientation is held in the comparability memo as well
        assert comparability_decide(g) == (True, Certificate(TRANSITIVE, cert.payload))
    assert searched == []
    assert decided == [path_graph(1100), matching]


def test_graphs_on_four_vertices_are_comparability():
    # why `_find_semi_transitive` skips neighbourhoods this small
    assert all(comparability_by_all_orientations(g) for n in range(5) for g in all_labeled_graphs(n))


def test_neighbourhood_rule_refuses_before_searching(monkeypatch):
    searched, decided = _record_searches(monkeypatch)
    # the hub's neighbourhood holds the rim C5, which no transitive
    # orientation has; the host fails the comparability pass first
    host = planted_w5(random.Random(3), 10)
    assert not is_wr(host)
    assert searched == []
    assert decided[0] == host
    assert any(g.n < host.n for g in decided)


def test_comparability_decide_known_graphs(c5, p4, matching):
    assert comparability_decide(p4)[0]
    assert comparability_decide(cycle_graph(4))[0]
    assert comparability_decide(cycle_graph(6))[0]
    ok, cert = comparability_decide(c5)
    assert not ok and cert.kind == NON_COMPARABILITY
    assert cert.payload == (0, 1, 2, 3, 4)
    for g in (complete_graph(4), matching):
        ok, cert = comparability_decide(g)
        assert ok and cert.kind == TRANSITIVE and check_transitive(cert.payload)


def test_comparability_matches_brute_force():
    rng = random.Random(3)
    for n in range(4):
        for bitsn in range(1 << (n * (n - 1) // 2)):
            pairs = list(combinations(range(n), 2))
            edges = [p for i, p in enumerate(pairs) if bitsn >> i & 1]
            g = Graph.from_edges(n, edges)
            assert comparability_decide(g)[0] == comparability_by_all_orientations(g)
    for _ in range(60):
        g = random_graph(rng, 5)
        assert comparability_decide(g)[0] == comparability_by_all_orientations(g)


def test_comparability_implies_representable():
    rng = random.Random(41)
    hits = 0
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 6))
        if comparability_decide(g)[0]:
            hits += 1
            assert wr_decide(g)[0]
    assert hits > 50


def test_representable_is_hereditary():
    rng = random.Random(55)
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 7))
        if wr_decide(g)[0]:
            s = [v for v in range(g.n) if rng.random() < 0.6]
            assert wr_decide(induced_subgraph(g, s))[0]


def test_dominating_vertex_reduction(w5, c5):
    # a graph with a dominating vertex is representable iff the rest is a
    # comparability graph: W5's rim C5 is not, so W5 does not represent
    assert not is_comparability(c5) and not is_wr(w5)
    ok, cert = wr_decide(w5)
    assert not ok and cert.kind == WITNESS
    assert not is_wr(induced_subgraph(w5, cert.payload))
    # even wheel: rim C6 is a comparability graph, so the wheel represents
    w6 = wheel_graph(6)
    assert is_comparability(cycle_graph(6))
    ok, cert = wr_decide(w6)
    assert ok and cert.kind == SEMI_TRANSITIVE
    assert cert.payload.host == w6
    assert check_semi_transitive(cert.payload)


def test_dominating_vertex_agrees_with_direct_decide(monkeypatch):
    # g plus a vertex seeing all of it is representable iff g is a
    # comparability graph; with every neighbourhood passing and the pass
    # answering no graph, the right side runs the semi-transitive search
    # and not the forcing pass it checks
    corpus = _exhaustive_corpus()
    _fresh_memos(monkeypatch)
    verdicts = [is_comparability(g) for g in corpus]
    assert 0 < sum(verdicts) < len(corpus)
    monkeypatch.setattr(recognition, "is_comparability", lambda h: True)
    monkeypatch.setattr(recognition, "_find_transitive", lambda h: None)
    _fresh_memos(monkeypatch)
    apexed = [Graph.from_edges(g.n + 1, g.edges() + [(v, g.n) for v in range(g.n)]) for g in corpus]
    assert verdicts == [is_wr(h) for h in apexed]


def test_is_minimal_non_wr(c5, w5, h8):
    assert is_minimal_non_wr(w5)
    assert not is_minimal_non_wr(c5)  # representable
    assert not is_minimal_non_wr(h8)  # contains a smaller wheel


# ── cover number ─────────────────────────────────────────────────────────


def test_mu_exact_representable(c5):
    r = mu_exact(c5)
    assert r.value == 1 and r.exact and r.status == "exact"
    assert len(r.parts) == 1
    assert r.parts[0].payload.host == c5
    assert not verify_decomposition(c5, r)


def test_mu_exact_wheel(w5):
    r = mu_exact(w5)
    assert r.value == 2 and r.exact
    assert not verify_decomposition(w5, r)
    union = set().union(*(p.payload.host.edges() for p in r.parts))
    assert union == set(w5.edges())
    for p in r.parts:
        assert wr_decide(p.payload.host)[0]


def test_mu_exact_extremal8(h8):
    r = mu_exact(h8)
    assert r.value == 2 and r.exact
    assert not verify_decomposition(h8, r)


def test_mu_budget_exhaustion(w5):
    # W5 over W5 takes 16 greedy colours, so its colouring cover has 3
    # parts; the 2-part search runs out of its budget, and the colouring
    # cover answers as an upper bound
    g = lex_product(w5, w5).graph
    r = mu_exact(g, budget=500)
    assert (r.value, r.status) == (3, "upper-bound") and not r.exact
    assert not verify_decomposition(g, r)


def test_colouring_cover_agrees_with_the_cover_search():
    # every non-representable graph of the exhaustive corpus, and 50
    # planted wheels on each of 8-11 vertices: μ is exact, verified, and
    # the least part count the cover search finds a cover for
    rng = random.Random(20261020)
    failing = [g for g in _exhaustive_corpus() if not is_wr(g)]
    failing += [planted_w5(rng, n) for n in range(8, 12) for _ in range(50)]
    for g in failing:
        r = mu_exact(g)
        assert r.exact and not verify_decomposition(g, r)
        k = 2
        while recognition._cover_search(g, k, None) is None:
            k += 1
        assert r.value == k


def test_cover_search_runs_without_a_frame_per_edge(w5):
    # W5 with a 120-vertex path hanging off its hub: 130 edges, more than
    # the 100 frames left above the caller
    tail = [(v, v + 1) for v in range(5, 125)]
    g = Graph.from_edges(126, w5.edges() + tail)
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        cover = recognition._cover_search(g, 2, None)
    finally:
        sys.setrecursionlimit(saved)
    assert cover is not None and set().union(*(part.edges() for part in cover)) == set(g.edges())
    assert all(part.n == g.n and is_wr(part) for part in cover)


def test_mu_verify_rejects_tampering(w5):
    r = mu_exact(w5)
    # drop an edge from every part, each still oriented: union no longer
    # covers the wheel
    broken = []
    for p in r.parts:
        arcs = p.payload.arcs()[1:]
        broken.append(Certificate(p.kind, Orientation.from_arcs(Graph.from_edges(w5.n, arcs), arcs)))

    class D:
        parts = tuple(broken)

    diags = verify_decomposition(w5, D)
    assert diags and any("covered by no part" in d or "not semi-transitive" in d
                         or "host differs" in d for d in diags)


def test_verify_decomposition_refuses_parts_on_other_vertices(w5):
    # a part is a spanning subgraph: its orientation lives on the host's
    # vertices, not on fewer or more
    r = mu_exact(w5)
    o = r.parts[0].payload
    grown = Orientation(Graph(o.host.n + 1, o.host.adj + (0,)), o.out + (0,))
    shrunk = wr_decide(cycle_graph(5))[1]
    for part, n in ((Certificate(r.parts[0].kind, grown), 7), (shrunk, 5)):
        d = MuResult(r.value, (part,) + r.parts[1:])
        assert verify_decomposition(w5, d)[0] == f"part 0: orientation has {n} vertices, the host 6"


def test_verify_certificate_kinds(c5, w5):
    ok, cert = wr_decide(c5)
    assert verify_certificate(c5, cert) == []
    # host mismatch caught
    assert verify_certificate(cycle_graph(6), cert)
    # word certificates
    word = Certificate("word", (0, 1, 4, 0, 3, 4, 2, 3, 1, 2))
    assert verify_certificate(c5, word) == []
    assert verify_certificate(path_graph(5), word)
    # witness certificates
    wit = Certificate("non-representable-witness", (0, 1, 2, 3, 4, 5))
    assert verify_certificate(w5, wit) == []
    assert verify_certificate(complete_graph(6), wit)
    bad = Certificate("non-representable-witness", (0, 0, 1))
    assert verify_certificate(w5, bad)
    # the two witness kinds are not interchangeable: a 5-cycle has no
    # transitive orientation yet is representable
    ncomp = Certificate("non-comparability-witness", (0, 1, 2, 3, 4))
    assert verify_certificate(c5, ncomp) == []
    assert verify_certificate(path_graph(5), ncomp)
    assert verify_certificate(c5, Certificate("non-representable-witness", (0, 1, 2, 3, 4)))
    with pytest.raises(InputError):
        Certificate("no-such-kind", (1, 2))


def test_verify_certificate_past_the_cap(monkeypatch):
    c11, p11, grotzsch = cycle_graph(11), path_graph(11), decode_graph6(GROTZSCH)
    everything = tuple(range(11))
    # comparability is re-decided at any size, both ways
    assert verify_certificate(c11, Certificate(NON_COMPARABILITY, everything)) == []
    assert verify_certificate(p11, Certificate(NON_COMPARABILITY, everything))
    # representability is re-decided at any size within the step budget
    _fresh_memos(monkeypatch)
    assert verify_certificate(p11, Certificate(WITNESS, everything))
    assert verify_certificate(grotzsch, Certificate(WITNESS, everything)) == []
    # a hub over C11 refuses the wheel, so it verifies with no search
    w11 = Graph.from_edges(12, c11.edges() + [(v, 11) for v in everything])
    searched = record_calls(monkeypatch, recognition, "_semi_transitive_search")
    assert verify_certificate(w11, Certificate(WITNESS, everything + (11,))) == []
    assert searched == []
    # a budget that runs out neither confirms nor refutes the claim
    _fresh_memos(monkeypatch)
    monkeypatch.setattr(recognition, "_VERIFY_BUDGET", 10)
    with pytest.raises(BudgetExceeded):
        verify_certificate(grotzsch, Certificate(WITNESS, everything))
    assert len(searched) == 1


def test_verify_certificate_accepts_every_wr_decide_witness(monkeypatch):
    # the non-representable graphs on at most 6 vertices, the one in the
    # graph6 corpus, planted wheels on 7-13 vertices, and two triangle-free
    # graphs no vertex refuses; each witness is re-decided from a cold memo,
    # so by a search that must finish within the budget
    rng = random.Random(20261021)
    failing = [g for g in _exhaustive_corpus() if not is_wr(g)]
    assert len(failing) == 73
    failing += [planted_w5(rng, n) for n in range(7, 14) for _ in range(2)]
    failing += [decode_graph6(GROTZSCH), decode_graph6(CHVATAL)]
    for g in failing:
        cert = wr_decide(g)[1]
        _fresh_memos(monkeypatch)
        assert verify_certificate(g, cert) == []
    assert len(cert.payload) == 12  # the Chvátal graph is minimal


def test_a_budget_that_runs_out_stores_no_verdict(monkeypatch):
    _fresh_memos(monkeypatch)
    grotzsch = decode_graph6(GROTZSCH)
    with pytest.raises(BudgetExceeded):
        recognition._Budget(10).is_wr(grotzsch)
    assert dict(recognition._WR_MEMO) == {} and recognition._WR_MEMO.vertices == 0
    assert not is_wr(grotzsch)
    assert recognition._WR_MEMO[grotzsch] == (False, None)
