from __future__ import annotations

import random
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis.configuration import set_hypothesis_home_dir

from wordrep.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    extremal8,
    path_graph,
    wheel_graph,
)
from wordrep.lexops import LexProduct, lex_product

# Hypothesis caches what it reads from the source files on disk, even with
# its example database off; keep that cache out of the working tree.
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "wordrep-hypothesis")


@pytest.fixture
def c5() -> Graph:
    return cycle_graph(5)


@pytest.fixture
def w5() -> Graph:
    return wheel_graph(5)


@pytest.fixture
def p3() -> Graph:
    return path_graph(3)


@pytest.fixture
def p4() -> Graph:
    return path_graph(4)


@pytest.fixture
def k4() -> Graph:
    return complete_graph(4)


@pytest.fixture
def h8() -> Graph:
    return extremal8()


@pytest.fixture
def matching() -> Graph:
    """1100 disjoint edges: the orientation search makes 1100 nested
    decisions, deeper than the interpreter's default recursion limit."""
    return Graph.from_edges(2200, [(2 * i, 2 * i + 1) for i in range(1100)])


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


def planted_w5(rng: random.Random, n: int) -> Graph:
    """W5 on vertices 0..5 plus random edges at the other pairs."""
    extra = [(u, v) for u in range(n) for v in range(max(u + 1, 6), n) if rng.random() < 0.5]
    return Graph.from_edges(n, wheel_graph(5).edges() + extra)


def record_calls(monkeypatch, owner, name: str) -> list:
    """A list that records the first argument of every call to the function
    `owner.name` while the test runs."""
    calls = []
    real = getattr(owner, name)

    def recording(first, *rest):
        calls.append(first)
        return real(first, *rest)

    monkeypatch.setattr(owner, name, recording)
    return calls


def lex_product_missing_a_cross_edge(g1: Graph, g2: Graph) -> LexProduct:
    """lex_product with one cross edge left out: for the first edge (i, j)
    of g1, the second vertex of block i loses its edge to the first vertex
    of block j. Every other pair of vertices keeps its adjacency."""
    p = lex_product(g1, g2)
    st = p.structure
    i, j = g1.edges()[0]
    dropped = (st.flat(i, 1), st.flat(j, 0))
    edges = [e for e in p.graph.edges() if e != dropped]
    return replace(p, graph=Graph.from_edges(st.n, edges))
