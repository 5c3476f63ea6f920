import random
from pathlib import Path

import pytest

from wordrep import extremal, lexops
from wordrep.errors import InputError, InternalError
from wordrep.extremal import (
    eta,
    verify_no_wr_subgraph,
    verify_power_bound,
)
from wordrep.formats import decode_graph6
from wordrep.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    extremal8,
    induced_subgraph,
    wheel_graph,
)
from wordrep.lexops import lex_product
from wordrep.recognition import verify_certificate, wr_decide

from conftest import lex_product_missing_a_cross_edge, random_graph
from oracles import all_labeled_graphs, eta_unpruned

CORPUS6 = Path(__file__).parent / "data" / "graphs6.g6"


def load_corpus6():
    return [decode_graph6(line) for line in CORPUS6.read_text().split()]


# ── maximum representable sets ─────────────────────────────────────────────


def test_eta_of_representable_graphs_is_everything():
    for g in (cycle_graph(5), complete_graph(6), Graph.from_edges(3, [(0, 1)])):
        e = eta(g)
        assert e.value == g.n and e.witness == tuple(range(g.n))
        assert not verify_certificate(induced_subgraph(g, e.witness), e.certificate)


def test_eta_of_smallest_nonrepresentable_graph():
    e = eta(wheel_graph(5))
    assert e.value == 5
    assert wr_decide(induced_subgraph(wheel_graph(5), e.witness))[0]


def test_eta_of_pinned_eight_vertex_graph():
    e = eta(extremal8(), blockers=True)
    assert e.value == 6
    assert e.witness == (0, 1, 2, 3, 4, 6)
    assert len(e.blockers) == 8  # every 7-subset blocks
    for b in e.blockers:
        assert not wr_decide(induced_subgraph(extremal8(), b))[0]


def test_eta_blockers_are_opt_in_and_empty_at_the_top():
    assert eta(extremal8()).blockers is None
    assert eta(cycle_graph(5), blockers=True).blockers == ()


def test_eta_pruning_matches_unpruned_search():
    rng = random.Random(21)
    cases = [wheel_graph(5), wheel_graph(6), cycle_graph(7)]
    cases += [random_graph(rng, rng.randint(4, 7), rng.uniform(0.3, 0.9)) for _ in range(25)]
    for g in cases:
        assert eta(g).value == eta_unpruned(g)


def test_eta_drops_by_at_most_one_per_deleted_vertex():
    rng = random.Random(22)
    for _ in range(20):
        g = random_graph(rng, rng.randint(3, 7), rng.uniform(0.3, 0.9))
        ev = eta(g).value
        v = rng.randrange(g.n)
        sub = induced_subgraph(g, [u for u in range(g.n) if u != v])
        assert ev - 1 <= eta(sub).value <= ev


def test_eta_equals_n_iff_representable():
    rng = random.Random(23)
    for _ in range(30):
        g = random_graph(rng, rng.randint(2, 6), rng.uniform(0.3, 1.0))
        assert (eta(g).value == g.n) == wr_decide(g)[0]


# ── subgraph-free verification ─────────────────────────────────────────────


def test_no_representable_subgraph_of_pinned_graph_at_seven():
    h = extremal8()
    assert verify_no_wr_subgraph(h, 7)
    assert not verify_no_wr_subgraph(h, 6)  # eta(h) = 6 exhibits one


def test_no_representable_subgraph_trivia():
    assert not verify_no_wr_subgraph(complete_graph(5), 3)
    assert verify_no_wr_subgraph(complete_graph(3), 4)  # vacuous: no 4-subsets
    with pytest.raises(InputError):
        verify_no_wr_subgraph(complete_graph(3), -1)


# ── minima over all graphs of a size ───────────────────────────────────────


def test_tau_is_the_size_up_to_five_vertices():
    # tau(n), the least eta over all n-vertex graphs
    for n in range(1, 6):
        assert min(eta(g).value for g in all_labeled_graphs(n)) == n


def test_tau_six_over_the_frozen_corpus():
    corpus = load_corpus6()
    assert len(corpus) == 156  # all isomorphism classes of 6-vertex graphs
    assert all(g.n == 6 for g in corpus)
    assert min(eta(g).value for g in corpus) == 5


def test_corpus_has_exactly_one_nonrepresentable_graph():
    bad = [g for g in load_corpus6() if not wr_decide(g)[0]]
    assert len(bad) == 1
    g = bad[0]
    assert g.edge_count() == 10
    assert sorted(g.degree(v) for v in range(6)) == [3, 3, 3, 3, 3, 5]


# ── the iterated-power bound ───────────────────────────────────────────────


def test_power_bound_on_the_pinned_graph():
    r = verify_power_bound(extremal8(), 2, 6)
    assert (r.bound, r.supervertices_checked) == (36, 8)


def test_power_bound_base_case_is_eta():
    r = verify_power_bound(extremal8(), 1, 6)
    assert r.bound == 6 and r.eta_base == 6


def test_power_bound_degenerate_cap():
    r = verify_power_bound(complete_graph(3), 2, 3)
    assert r.bound == 9  # every vertex of the 9-vertex square may be taken
    assert r.supervertices_checked == 3  # no 4-subsets of a 3-vertex base to refuse


def test_power_bound_refuses_a_power_with_wrong_cross_edges(monkeypatch):
    monkeypatch.setattr(extremal, "lex_product", lex_product_missing_a_cross_edge)
    with pytest.raises(InternalError, match="not a module"):
        verify_power_bound(extremal8(), 2, 6)
    # blocks joined along the wrong outer graph are still modules
    monkeypatch.setattr(extremal, "lex_product",
                        lambda g1, g2: lex_product(complete_graph(g1.n), g2))
    with pytest.raises(InternalError, match="do not induce the base"):
        verify_power_bound(extremal8(), 2, 6)


def test_power_bound_builds_each_power_once(monkeypatch):
    # g^[3] = g over g^[2]: building g^[2] once and composing g over it
    # takes two product steps; building g^[3] and g^[2] apart takes three
    calls = []

    def counting(g1, g2):
        calls.append(g2.n)
        return lex_product(g1, g2)

    monkeypatch.setattr(lexops, "lex_product", counting)
    monkeypatch.setattr(extremal, "lex_product", counting, raising=False)
    r = verify_power_bound(extremal8(), 3, 6)
    assert (r.bound, r.supervertices_checked) == (216, 8)
    assert calls == [8, 64]


def test_power_bound_rejects_unmet_premise():
    with pytest.raises(InputError):  # some 6-subset of the pinned graph represents
        verify_power_bound(extremal8(), 2, 5)
    with pytest.raises(InputError):  # every 5-subset of the wheel represents
        verify_power_bound(wheel_graph(5), 1, 4)
    with pytest.raises(InputError):
        verify_power_bound(extremal8(), 0, 6)
    with pytest.raises(InputError):
        verify_power_bound(extremal8(), 2, 9)
