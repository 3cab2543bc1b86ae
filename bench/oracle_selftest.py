"""Tests of the benchmark's oracle on its own, without the program.

Run with `python3 -m pytest bench/oracle_selftest.py`; the file name keeps
them out of a plain `pytest` run from the root.
"""

import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle  # noqa: E402


def test_coxeter_relations_with_minimal_orders():
    for t, cox in oracle.COXETER_MATRICES.items():
        assert oracle.relations_hold(oracle.group(t), cox), t


def test_wrong_orders_are_rejected():
    assert not oracle.relations_hold(oracle.Dihedral(4), ((1, 8), (8, 1)))   # not minimal
    assert not oracle.relations_hold(oracle.Dihedral(4), ((1, 2), (2, 1)))   # not a relation
    a2t = oracle.group("A2~")
    assert not oracle.relations_hold(a2t, ((1, 6, 3), (6, 1, 3), (3, 3, 1)))


def test_a2_affine_is_infinite_along_a_translation():
    g = oracle.group("A2~")
    t = g.mul(g.mul(g.gens[0], g.gens[1]), g.gens[2])
    power = t
    for _ in range(50):
        assert power != g.identity
        power = g.mul(power, t)


def test_class_sizes_sum_and_identity_class_agrees():
    rng = random.Random(7)
    for t, length in (("B2", 7), ("G2", 8), ("A2~", 10)):
        g = oracle.group(t)
        for _ in range(5):
            word = tuple(rng.randrange(len(g.gens)) for _ in range(length))
            cl = oracle.classes(g, word)
            assert sum(len(m) for m in cl.values()) == 2 ** length
            assert oracle.identity_class(g, word) == cl.get(g.identity, [])


def test_small_graph_by_hand():
    # In B2 the word s t s has s at positions 0 and 2 alone: one edge.
    g = oracle.group("B2")
    cl = oracle.classes(g, (0, 1, 0))
    assert cl[g.gens[0]] == [0b001, 0b100]
    cg = oracle.ClassGraph(cl[g.gens[0]], 3)
    assert cg.edges == [(0b001, 0b100)] and cg.components == 1 and cg.dim == 0


def test_forest_cycles_are_an_even_basis():
    g = oracle.group("G2")
    word = tuple(z % 2 for z in range(8))
    for masks in oracle.classes(g, word).values():
        cg = oracle.ClassGraph(masks, len(word))
        cycles = cg.spanning_forest_cycles()
        assert len(cycles) == cg.dim
        for cycle in cycles:
            degree = {}
            for a, b in cycle:
                assert (a, b) in set(cg.edges)
                degree[a] = degree.get(a, 0) + 1
                degree[b] = degree.get(b, 0) + 1
            assert all(d == 2 for d in degree.values())


def test_closed_cycles_and_edge_sums():
    masks = [0b0011, 0b0101, 0b0110, 0b1001, 0b1010, 0b1100]
    cg = oracle.ClassGraph(masks, 4)
    assert cg.is_closed_cycle((0b0011, 0b0101, 0b0110))
    assert not cg.is_closed_cycle((0b0011, 0b1100, 0b0101))       # 0011-1100 is no edge
    assert not cg.is_closed_cycle((0b0011, 0b0101))
    tri1 = (0b0011, 0b0101, 0b0110)
    tri2 = (0b0011, 0b0110, 0b1010)
    assert oracle.edge_sum([tri1, tri2]) == frozenset(
        {(0b0011, 0b0101), (0b0101, 0b0110), (0b0110, 0b1010), (0b0011, 0b1010)})
