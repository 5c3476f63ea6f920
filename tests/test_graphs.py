from __future__ import annotations

import random

import pytest

from conftest import random_graph
from wordrep.errors import InputError
from wordrep.graphs import (
    Graph,
    LexStructure,
    Orientation,
    complete_graph,
    cycle_graph,
    induced_subgraph,
    path_graph,
    wheel_graph,
)


def test_from_edges_roundtrip():
    g = Graph.from_edges(4, [(0, 1), (2, 1), (3, 0)])
    assert g.edges() == [(0, 1), (0, 3), (1, 2)]
    assert g.edge_count() == 3
    assert g.has_edge(1, 0) and not g.has_edge(0, 2)
    assert g.degree(1) == 2
    assert list(g.neighbors(0)) == [1, 3]


def test_graph_validation():
    with pytest.raises(InputError):
        Graph(2, (1, 0))  # asymmetric
    with pytest.raises(InputError):
        Graph(1, (1,))  # self-loop
    with pytest.raises(InputError):
        Graph.from_edges(2, [(0, 2)])
    with pytest.raises(InputError):
        Graph.from_edges(2, [(1, 1)])


def test_graphs_are_values():
    a = cycle_graph(5)
    b = Graph.from_edges(5, [(1, 0), (2, 1), (3, 2), (4, 3), (0, 4)])
    assert a == b
    assert hash(a) == hash(b)


def test_induced_subgraph_examples(c5, h8):
    # K3 restricted to two vertices is a single edge
    assert induced_subgraph(complete_graph(3), [0, 2]) == complete_graph(2)
    # C5 on {0,1,2} is the 3-path
    assert induced_subgraph(c5, [0, 1, 2]) == path_graph(3)
    # the 8-vertex extremal graph keeps 13 of its 18 edges on vertices 0..6
    assert induced_subgraph(h8, range(7)).edge_count() == 13
    with pytest.raises(InputError):
        induced_subgraph(c5, [0, 9])


def test_induced_subgraph_properties():
    rng = random.Random(7)
    for _ in range(50):
        g = random_graph(rng, rng.randint(1, 9))
        # identity on the full vertex set
        assert induced_subgraph(g, range(g.n)) == g
        s = [v for v in range(g.n) if rng.random() < 0.6]
        t = [v for v in s if rng.random() < 0.6]
        # restricting twice composes: positions of t inside sorted(s)
        srt = sorted(s)
        inner = [srt.index(v) for v in sorted(t)]
        assert induced_subgraph(induced_subgraph(g, s), inner) == induced_subgraph(g, t)


def test_extremal8_shape(h8):
    assert h8.n == 8
    assert h8.edge_count() == 18
    assert sorted(h8.degree(v) for v in range(8)) == [4, 4, 4, 4, 5, 5, 5, 5]


def test_orientation_construction(c5):
    o = Orientation.from_arcs(c5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    assert o.arcs() == [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]


def test_orientation_rejects_bad_input(c5):
    with pytest.raises(InputError):
        Orientation.from_arcs(c5, [(0, 2)])  # not an edge
    with pytest.raises(InputError):  # edge left undirected
        Orientation.from_arcs(c5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    with pytest.raises(InputError):  # edge directed both ways
        Orientation(c5, (0b10010, 0b100, 0b1001, 0b10000, 0b1))


def test_lex_structure():
    s = LexStructure(3, 4)
    assert s.n == 12
    assert s.flat(2, 1) == 9
    assert s.split(9) == (2, 1)
    assert s.split(11)[0] == 2
    assert list(s.supervertex(1)) == [4, 5, 6, 7]
    assert [s.split(s.flat(i, j)) for i in range(3) for j in range(4)] == [
        (i, j) for i in range(3) for j in range(4)
    ]
    with pytest.raises(InputError):
        s.flat(3, 0)
    with pytest.raises(InputError):
        s.split(12)


def test_families():
    assert wheel_graph(5).edge_count() == 10
    assert wheel_graph(5).degree(5) == 5
    assert complete_graph(4).edge_count() == 6
    assert path_graph(1).edge_count() == 0
    assert cycle_graph(3) == complete_graph(3)
    with pytest.raises(InputError):
        cycle_graph(2)
