import itertools

import pytest

from subexpr.coxeter import named_system
from subexpr.expressions import SubexprGraph


@pytest.fixture(scope="session")
def a2():
    return named_system("A2")


@pytest.fixture(scope="session")
def b2():
    return named_system("B2")


@pytest.fixture(scope="session")
def g2():
    return named_system("G2")


@pytest.fixture(scope="session")
def a3():
    return named_system("A3")


def words_up_to(rank, max_len):
    for L in range(max_len + 1):
        yield from itertools.product(range(rank), repeat=L)


def graph_with_edges(g, edges):
    """g's vertices joined by the given edges (a, b, color), a < b, with
    the edge count and the vertices without an edge down counted from them."""
    h = SubexprGraph(g.expr, g.target_eid, g.vertices, g.vertex_index,
                     len(edges), g.n_vertices - len({b for _, b, _ in edges}))
    h.edges = edges
    return h
