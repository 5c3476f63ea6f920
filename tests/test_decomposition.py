import dataclasses

import pytest

from wordrep import decomposition, recognition
from wordrep.certificates import WORD, Certificate
from wordrep.decomposition import (
    Decomposition,
    as_decomposition,
    decompose_min_nonwr_product,
    decompose_power_k,
    decompose_power_two_comparability,
    decompose_product_general,
    decompose_product_tight,
    decompose_product_two,
    decomposition_diagnostics,
    verify_lower_bound,
)
from wordrep.errors import InputError
from wordrep.graphs import (
    Graph,
    LexStructure,
    complete_graph,
    cycle_graph,
    empty_graph,
    extremal8,
    path_graph,
    wheel_graph,
)
from wordrep.lexops import lex_power, lex_product, supervertex_witness
from wordrep.recognition import (
    check_transitive,
    comparability_decide,
    mu_exact,
    verify_decomposition,
    wr_decide,
)

C5_SPLIT = ([(0, 1), (1, 2)], [(2, 3), (3, 4), (0, 4)])


def w5_cover():
    w5 = wheel_graph(5)
    return w5, as_decomposition(w5, mu_exact(w5))


def part_edges(part):
    """A cover part's edges: those of its orientation's host."""
    return frozenset(part.payload.host.edges())


# ── two parts for a product of representable factors ──────────────────────


def test_product_two_covers_nonrepresentable_product():
    d = decompose_product_two(lex_product(path_graph(3), cycle_graph(5)))
    assert d.value == 2
    assert d.lower_bound == 2  # so two parts is exactly optimal here
    assert not decomposition_diagnostics(d)


def test_product_two_split_is_cross_versus_interior():
    p = lex_product(path_graph(3), cycle_graph(5))
    d = decompose_product_two(p)
    red, green = d.parts
    st = p.structure
    assert all(st.split(u)[0] != st.split(v)[0] for u, v in part_edges(red))
    assert all(st.split(u)[0] == st.split(v)[0] for u, v in part_edges(green))
    assert not part_edges(red) & part_edges(green)


def test_product_two_on_complete_factors_is_valid_but_loose():
    d = decompose_product_two(lex_product(complete_graph(2), complete_graph(2)))
    assert d.value == 2 and d.lower_bound == 1
    assert not decomposition_diagnostics(d)
    assert mu_exact(d.host).value == 1


def test_product_two_rejects_bad_factors():
    with pytest.raises(InputError):
        decompose_product_two(lex_product(cycle_graph(5), wheel_graph(5)))
    with pytest.raises(InputError):
        decompose_product_two(lex_product(empty_graph(3), path_graph(3)))


# ── covers of powers ───────────────────────────────────────────────────────


def test_power_cover_square_of_cycle():
    d = decompose_power_k(cycle_graph(5), 2)
    assert d.host.n == 25 and d.value == 2 and d.lower_bound == 2
    assert not decomposition_diagnostics(d)


def test_power_cover_cube_of_cycle():
    d = decompose_power_k(cycle_graph(5), 3)
    assert d.host.n == 125 and d.value == 3
    assert d.host == lex_power(cycle_graph(5), 3).graph
    assert not decomposition_diagnostics(d)


def test_power_cover_peels_top_cross_layer():
    d = decompose_power_k(cycle_graph(5), 3)
    head = LexStructure(5, 25)
    top, *rest = d.parts
    assert all(head.split(u)[0] != head.split(v)[0] for u, v in part_edges(top))
    for part in rest:
        assert all(head.split(u)[0] == head.split(v)[0] for u, v in part_edges(part))


def test_power_cover_rejects_bad_bases():
    with pytest.raises(InputError):
        decompose_power_k(wheel_graph(5), 2)  # not representable
    with pytest.raises(InputError):
        decompose_power_k(path_graph(3), 2)  # comparability: one part suffices
    with pytest.raises(InputError):
        decompose_power_k(cycle_graph(5), 1)


def test_comparability_split_power_gives_two_transitive_parts():
    for k in (2, 3):
        d = decompose_power_two_comparability(cycle_graph(5), C5_SPLIT, k)
        assert d.value == 2 and d.lower_bound == 2
        assert not decomposition_diagnostics(d)
        for part in d.parts:
            assert part.kind == "transitive-orientation"
            assert check_transitive(part.payload)


def test_comparability_split_power_rejects_bad_splits():
    c5 = cycle_graph(5)
    with pytest.raises(InputError):  # class A is the full non-comparability cycle
        decompose_power_two_comparability(c5, (c5.edges(), []), 2)
    with pytest.raises(InputError):  # union misses an edge
        decompose_power_two_comparability(c5, ([(0, 1)], [(2, 3)]), 2)
    with pytest.raises(InputError):  # comparability base needs no split cover
        decompose_power_two_comparability(path_graph(3), ([(0, 1)], [(1, 2)]), 2)


def test_power_levels_are_product_steps():
    # g^[2] = g over g: each power cover is its product cover on one level
    c5 = cycle_graph(5)
    p = lex_product(c5, c5)
    assert decompose_power_k(c5, 2).parts == decompose_product_two(p).parts
    halves = Decomposition(
        c5, tuple(comparability_decide(Graph.from_edges(5, es))[1] for es in C5_SPLIT), "split"
    )
    power = decompose_power_two_comparability(c5, C5_SPLIT, 2)
    tight = decompose_product_tight(p, halves, C5_SPLIT)
    # an orientation holds its host, so equal payloads have equal edges
    assert [pt.payload for pt in power.parts] == [pt.payload for pt in tight.parts]


def test_power_covers_build_each_level_once(monkeypatch):
    calls = []

    def counting(g1, g2):
        calls.append(g2.n)
        return lex_product(g1, g2)

    monkeypatch.setattr(decomposition, "lex_product", counting)
    decompose_power_k(cycle_graph(5), 4)
    decompose_power_two_comparability(cycle_graph(5), C5_SPLIT, 4)
    assert calls == [5, 25, 125] * 2


def test_refilled_covers_search_no_fill(monkeypatch):
    # only the input checks search: refusing the comparability base C5
    # (its witness shrinking included) and the two split classes; every
    # level is refilled from the orientations already in hand
    sizes = []
    find = recognition._find_transitive

    def counting(g):
        sizes.append(g.n)
        return find(g)

    monkeypatch.setattr(recognition, "_WR_MEMO", recognition._Memo())
    monkeypatch.setattr(recognition, "_COMP_MEMO", recognition._Memo())
    monkeypatch.setattr(recognition, "_find_transitive", counting)
    d = decompose_power_two_comparability(cycle_graph(5), C5_SPLIT, 3)
    assert d.host.n == 125 and d.value == 2
    assert sizes and max(sizes) <= 5


# ── covers of general products from factor covers ──────────────────────────


def test_general_product_cover_adds_part_counts():
    w5, dw5 = w5_cover()
    d = decompose_product_general(lex_product(w5, w5), dw5, dw5)
    assert d.host.n == 36 and d.value == 4 and d.lower_bound == 2
    assert not decomposition_diagnostics(d)


def test_general_product_cover_mixed_factors():
    w5, dw5 = w5_cover()
    c5 = cycle_graph(5)
    dc5 = as_decomposition(c5, mu_exact(c5))
    d = decompose_product_general(lex_product(c5, w5), dc5, dw5)
    assert d.value == 1 + 2
    assert not decomposition_diagnostics(d)


def test_general_product_cover_of_complete_factors():
    k2 = complete_graph(2)
    dk2 = as_decomposition(k2, mu_exact(k2))
    d = decompose_product_general(lex_product(k2, k2), dk2, dk2)
    assert d.value == 2 and d.host == complete_graph(4)
    assert not decomposition_diagnostics(d)


def test_general_product_rejects_unverifiable_covers():
    w5, dw5 = w5_cover()
    p = lex_product(w5, w5)
    hollow = dataclasses.replace(dw5, parts=dw5.parts[:1])  # cover with a hole
    with pytest.raises(InputError):
        decompose_product_general(p, hollow, dw5)
    with pytest.raises(InputError):  # host mismatch
        decompose_product_general(p, as_decomposition(cycle_graph(5), mu_exact(cycle_graph(5))), dw5)


# ── the tight product cover ────────────────────────────────────────────────


def test_tight_product_cover_matches_outer_count():
    w5, dw5 = w5_cover()
    d = decompose_product_tight(lex_product(w5, cycle_graph(5)), dw5, list(C5_SPLIT))
    assert d.host.n == 30
    assert d.value == 2 and d.lower_bound == 2  # certifies optimality
    assert not decomposition_diagnostics(d)


def test_tight_product_cover_single_part_is_the_product():
    c5, p3 = cycle_graph(5), path_graph(3)
    p = lex_product(c5, p3)
    dc5 = as_decomposition(c5, mu_exact(c5))
    d = decompose_product_tight(p, dc5, [p3.edges()])
    assert d.value == 1
    assert part_edges(d.parts[0]) == frozenset(p.graph.edges())
    assert not decomposition_diagnostics(d)


def test_tight_product_bound_comes_from_the_outer_cover(monkeypatch):
    # a three-part cover of W5 (spokes, a rim path, the rest of the rim)
    # that claims the bound 2, then the false bound 3 (mu(W5) = 2), with the
    # whole wheel as its witness; C5 is not a comparability graph, so the
    # product's bound is the cone's 2 either way
    w5 = wheel_graph(5)
    classes = [[(i, 5) for i in range(5)], [(0, 1), (1, 2), (2, 3)], [(3, 4), (0, 4)]]
    parts = tuple(recognition.wr_decide(Graph.from_edges(6, es))[1] for es in classes)

    def no_search(*args):
        raise AssertionError("the outer factor's cover search ran again")

    monkeypatch.setattr(recognition, "_cover_search", no_search)
    p = lex_product(w5, cycle_graph(5))
    for claimed in (2, 3):
        d1 = Decomposition(w5, parts, "search", claimed, tuple(range(6)))
        d = decompose_product_tight(p, d1, list(C5_SPLIT))
        assert d.value == 3 and d.lower_bound == 2
        assert d.lower_bound_witness == supervertex_witness(p.structure, w5)
        assert not decomposition_diagnostics(d)


def test_product_covers_take_mu_exact_results_as_they_are():
    # a factor cover is read only for its parts, so a bare `mu_exact` result
    # builds the same cover, bound and witness as its wrapped Decomposition;
    # the 8-vertex graph over P3 places its witness on first vertices
    w5, c5, h8, p3 = wheel_graph(5), cycle_graph(5), extremal8(), path_graph(3)

    def products(cover):
        h8p3 = lex_product(h8, p3)
        return [
            decompose_product_general(lex_product(w5, w5), cover(w5), cover(w5)),
            decompose_product_tight(lex_product(w5, c5), cover(w5), list(C5_SPLIT)),
            decompose_product_general(h8p3, cover(h8), cover(p3)),
            decompose_product_tight(h8p3, cover(h8), [p3.edges()]),
        ]

    wrapped = products(lambda g: as_decomposition(g, mu_exact(g)))
    for bare, d in zip(products(mu_exact), wrapped):
        assert (bare.parts, bare.lower_bound, bare.lower_bound_witness) == (
            d.parts, d.lower_bound, d.lower_bound_witness
        )
        assert not decomposition_diagnostics(bare)


def test_product_bounds_place_the_factor_witness():
    # the 8-vertex graph is not minimal: its inclusion-minimal witness has
    # 6 vertices, and every bound built on it carries those 6, not all 8
    h8, p3 = extremal8(), path_graph(3)
    core = wr_decide(h8)[1].payload
    assert len(core) == 6
    d1 = as_decomposition(h8, mu_exact(h8))
    assert (d1.lower_bound, d1.lower_bound_witness) == (2, core)
    d2 = as_decomposition(p3, mu_exact(p3))
    p = lex_product(h8, p3)
    on_firsts = tuple(p.structure.flat(i, 0) for i in core)
    for d in (decompose_product_general(p, d1, d2), decompose_product_tight(p, d1, [p3.edges()])):
        assert (d.lower_bound, d.lower_bound_witness) == (2, on_firsts)
        assert not decomposition_diagnostics(d)
    # an inner factor's witness goes in the first supervertex (vertices
    # 0..7) when the outer factor has no edge; with one, the cone comes
    # first: that supervertex plus the second one's first vertex
    for outer, witness in ((empty_graph(2), core), (complete_graph(2), tuple(range(9)))):
        p = lex_product(outer, h8)
        d = decompose_product_general(p, as_decomposition(outer, mu_exact(outer)), d1)
        assert d.lower_bound_witness == witness
        assert not decomposition_diagnostics(d)


def test_tight_product_cover_rejects_bad_splits():
    w5, dw5 = w5_cover()
    p = lex_product(w5, cycle_graph(5))
    with pytest.raises(InputError):  # too many split classes
        decompose_product_tight(p, dw5, [C5_SPLIT[0], C5_SPLIT[1], [(0, 1)]])
    with pytest.raises(InputError):  # shortfall: an inner edge is uncovered
        decompose_product_tight(p, dw5, [C5_SPLIT[0], [(2, 3), (3, 4)]])
    with pytest.raises(InputError):  # non-comparability split class
        decompose_product_tight(p, dw5, [cycle_graph(5).edges(), []])


# ── three parts for minimal non-representable factors ──────────────────────


def test_min_product_cover_three_disjoint_parts():
    w5 = wheel_graph(5)
    p = lex_product(w5, w5)
    d = decompose_min_nonwr_product(p)
    assert d.value == 3 and d.lower_bound == 2
    assert not decomposition_diagnostics(d)
    e1, e2, e3 = (part_edges(part) for part in d.parts)
    assert not (e1 & e2) and not (e1 & e3) and not (e2 & e3)
    assert e1 | e2 | e3 == frozenset(p.graph.edges())


def test_min_product_cover_every_fixed_block_works():
    w5 = wheel_graph(5)
    p = lex_product(w5, w5)
    for r in range(6):
        assert not decomposition_diagnostics(decompose_min_nonwr_product(p, r=r))


def test_min_product_parts_pin_their_edge_sets():
    w5 = wheel_graph(5)
    p = lex_product(w5, w5)
    st = p.structure
    inner = w5.edges()

    def block(i, edges):
        return {(st.flat(i, a), st.flat(i, b)) for a, b in edges}

    # inner vertex 0's star and the rest swap between block r and the others
    star = [e for e in inner if 0 in e]
    rest = [e for e in inner if 0 not in e]
    cross = {(u, v) for u, v in p.graph.edges() if st.split(u)[0] != st.split(v)[0]}
    for r in range(6):
        others = [i for i in range(6) if i != r]
        d = decompose_min_nonwr_product(p, r=r)
        into_r = {(u, v) for u, v in cross if r in (st.split(u)[0], st.split(v)[0])}
        part1 = (cross - into_r) | block(r, rest)
        part1 |= set().union(*(block(i, star) for i in others))
        part2 = block(r, star).union(*(block(i, rest) for i in others))
        assert [part_edges(pt) for pt in d.parts] == [part1, part2, into_r]


def test_min_product_cover_rejects_non_minimal_factors():
    w5, c5 = wheel_graph(5), cycle_graph(5)
    with pytest.raises(InputError):
        decompose_min_nonwr_product(lex_product(w5, c5))
    with pytest.raises(InputError):
        decompose_min_nonwr_product(lex_product(c5, w5))


def test_min_product_cover_rejects_bad_indices():
    w5 = wheel_graph(5)
    p = lex_product(w5, w5)
    with pytest.raises(InputError):
        decompose_min_nonwr_product(p, r=6)


# ── cover wrapping and lower-bound checking ────────────────────────────────


def test_wrapping_an_exact_cover_keeps_its_bound():
    w5, dw5 = w5_cover()
    assert dw5.value == 2 and dw5.lower_bound == 2
    assert not decomposition_diagnostics(dw5)
    assert not verify_decomposition(w5, dw5)


def test_lower_bound_witness_is_checked():
    w5, dw5 = w5_cover()
    bad = dataclasses.replace(dw5, lower_bound_witness=(0, 1, 2))  # triangle: representable
    assert verify_lower_bound(bad)
    missing = dataclasses.replace(dw5, lower_bound_witness=None)
    assert verify_lower_bound(missing)
    inflated = dataclasses.replace(dw5, lower_bound=3)
    assert verify_lower_bound(inflated)  # exact search shows only 2 are needed
    assert not verify_lower_bound(dw5)


def test_diagnostics_catch_tampered_parts():
    w5, dw5 = w5_cover()
    fake = Certificate(WORD, (0, 1, 0, 1))
    tampered = dataclasses.replace(dw5, parts=(fake,) + dw5.parts[1:])
    assert decomposition_diagnostics(tampered)
