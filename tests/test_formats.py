from __future__ import annotations

import random

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_graph
from wordrep.errors import InputError
from wordrep.formats import (
    decode_graph6,
    decode_sparse6,
    encode_graph6,
    parse_graph,
    to_dot,
)
from wordrep.graphs import Graph, complete_graph, cycle_graph, empty_graph


def _nx_edges(g: Graph) -> set[tuple[int, int]]:
    return set(g.edges())


def test_known_small_strings():
    # the canonical catalog encoding of the 5-cycle
    g = decode_graph6("DUW")
    assert g.n == 5
    assert sorted(g.degree(v) for v in range(5)) == [2, 2, 2, 2, 2]
    assert nx.is_isomorphic(
        nx.from_edgelist(g.edges()), nx.cycle_graph(5)
    )
    assert decode_graph6("?") == empty_graph(0)
    assert decode_graph6("@") == empty_graph(1)
    assert decode_graph6("A_") == Graph.from_edges(2, [(0, 1)])


def test_header_is_stripped():
    g = decode_graph6(">>graph6<<DUW")
    assert g == decode_graph6("DUW")


def test_roundtrip_through_our_codec():
    rng = random.Random(3)
    for _ in range(60):
        g = random_graph(rng, rng.randint(0, 20), rng.random())
        assert decode_graph6(encode_graph6(g)) == g


def test_encode_against_networkx():
    rng = random.Random(5)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 15), rng.random())
        ours = encode_graph6(g)
        h = nx.from_graph6_bytes(ours.encode())
        assert set(h.nodes) == set(range(g.n))
        assert {tuple(sorted(e)) for e in h.edges} == _nx_edges(g)
        nxg = nx.empty_graph(g.n)
        nxg.add_edges_from(g.edges())
        theirs = nx.to_graph6_bytes(nxg, header=False).decode().strip()
        assert decode_graph6(theirs) == g


def test_multibyte_sizes():
    for n in (62, 63, 64, 100, 258047 and 300):
        g = empty_graph(n)
        s = encode_graph6(g)
        assert decode_graph6(s) == g
    g = cycle_graph(70)
    assert decode_graph6(encode_graph6(g)) == g
    # networkx agrees on a multibyte size
    h = nx.from_graph6_bytes(encode_graph6(cycle_graph(70)).encode())
    assert {tuple(sorted(e)) for e in h.edges} == _nx_edges(cycle_graph(70))


def test_sparse6_decode_against_networkx():
    rng = random.Random(9)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 30), 0.15)
        nxg = nx.from_edgelist(g.edges()) if g.edge_count() else nx.Graph()
        nxg.add_nodes_from(range(g.n))
        s6 = nx.to_sparse6_bytes(nxg, header=False).decode().strip()
        assert decode_sparse6(s6) == g
        assert parse_graph(s6) == g


@st.composite
def graphs(draw, max_n: int = 70) -> Graph:
    """Graphs on 0..max_n vertices, with up to 3n edges at any density."""
    n = draw(st.integers(0, max_n))
    if n < 2:
        return empty_graph(n)
    ends = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(ends, ends).filter(lambda e: e[0] != e[1]), max_size=3 * n))
    return Graph.from_edges(n, pairs)


@settings(database=None, deadline=None)
@given(g=graphs())
@example(g=cycle_graph(62))
@example(g=cycle_graph(63))
@example(g=complete_graph(64))
def test_graph6_roundtrip_property(g):
    # n = 63 is where the size field grows from one byte to four
    assert parse_graph(encode_graph6(g)) == g


@settings(database=None, deadline=None)
@given(g=graphs())
def test_sparse6_decode_matches_networkx_property(g):
    nxg = nx.empty_graph(g.n)
    nxg.add_edges_from(g.edges())
    assert decode_sparse6(nx.to_sparse6_bytes(nxg, header=False).decode().strip()) == g


def test_parse_graph_sniffs_format(c5):
    s = encode_graph6(c5)
    assert parse_graph(s) == c5
    assert parse_graph(">>sparse6<<:DaGn~") == decode_sparse6(":DaGn~")


def test_bad_input_rejected():
    with pytest.raises(InputError):
        decode_graph6("")
    with pytest.raises(InputError):
        decode_graph6("D")  # truncated body
    with pytest.raises(InputError):
        decode_graph6("DUWW")  # trailing junk
    with pytest.raises(InputError):
        decode_graph6("D\x19W")  # byte below the alphabet
    with pytest.raises(InputError):
        decode_sparse6("DUW")  # missing ':'


def test_dot_export(c5):
    dot = to_dot(c5)
    assert dot.startswith("graph G {")
    assert "0 -- 1;" in dot and "0 -- 4;" in dot
    assert dot.count("--") == 5
    assert dot.rstrip().endswith("}")
