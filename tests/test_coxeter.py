import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from subexpr import coxeter
from subexpr.coxeter import (CoxeterSystem, Element, MalformedMatrix,
                             MixedSigns, NotUnit, act, elements_equal,
                             named_system, new_system, reflect,
                             reflection_order, root_sign_vec)


def test_gram_a2():
    s = new_system([[1, 3], [3, 1]])
    assert np.allclose(s.gram, [[1, -0.5], [-0.5, 1]])


def test_gram_commuting():
    s = new_system([[1, 2], [2, 1]])
    assert np.allclose(s.gram, np.eye(2))


def test_gram_infinite():
    s = new_system([[1, "inf"], ["inf", 1]])
    assert np.allclose(s.gram, [[1, -1], [-1, 1]])
    s2 = new_system([[1, math.inf], [math.inf, 1]])
    assert np.allclose(s2.gram, s.gram)


@pytest.mark.parametrize("matrix", [
    [[1, 3], [2, 1]],            # asymmetric
    [[2, 3], [3, 1]],            # bad diagonal
    [[1, 1], [1, 1]],            # off-diagonal < 2
    [[1, 3, 3], [3, 1, 3]],      # not square
])
def test_malformed_matrices(matrix):
    with pytest.raises(MalformedMatrix):
        new_system(matrix)


@pytest.mark.parametrize("family, low", [("A", 1), ("B", 2), ("D", 3)])
def test_family_minimum_rank(family, low):
    # below its smallest rank a family's formula would give another type
    assert len(coxeter.coxeter_matrix_for(f"{family}{low}")) == low
    assert len(coxeter.coxeter_matrix_for(f"{family}n", low)) == low
    for n in range(-1, low):
        with pytest.raises(ValueError, match="rank"):
            coxeter.coxeter_matrix_for(f"{family}{n}")
        with pytest.raises(ValueError, match="rank"):
            coxeter.coxeter_matrix_for(f"{family}n", n)


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3", "B3", "F4", "A2~"])
def test_generator_matrices_involutive_and_isometric(name):
    s = named_system(name)
    for g in s.gen_matrices:
        assert np.allclose(g @ g, np.eye(s.rank), atol=coxeter.EPS)
        assert np.allclose(g.T @ s.gram @ g, s.gram, atol=coxeter.EPS)


def test_act_examples(a2):
    e = np.eye(2)
    ident = a2.identity()
    s = a2.element_from_word((0,))
    assert np.allclose(act(ident, e[0]), e[0])
    assert np.allclose(act(s, e[0]), -e[0])
    assert np.allclose(act(s, e[1]), e[0] + e[1])


def test_reflect_examples(a2):
    e = np.eye(2)
    assert np.allclose(reflect(a2, e[0], e[0]), -e[0])
    assert np.allclose(reflect(a2, e[1], e[0]), e[0] + e[1])
    c = new_system([[1, 2], [2, 1]])
    assert np.allclose(reflect(c, np.eye(2)[1], np.eye(2)[0]), np.eye(2)[1])


def test_reflect_requires_unit(a2):
    with pytest.raises(NotUnit):
        reflect(a2, np.eye(2)[0], 2.0 * np.eye(2)[0])


def test_root_sign(a2):
    e = np.eye(2)
    assert root_sign_vec(e[0]) == 1
    assert root_sign_vec(-e[0]) == -1
    assert root_sign_vec(e[0] + e[1]) == 1
    with pytest.raises(MixedSigns):
        root_sign_vec(e[0] - e[1])
    with pytest.raises(MixedSigns):
        root_sign_vec(np.zeros(2))


def test_elements_equal_braid(a2):
    assert elements_equal(a2.element_from_word((0, 1) * 3), a2.identity())
    assert not elements_equal(a2.element_from_word((0,)),
                              a2.element_from_word((1,)))
    assert elements_equal(a2.element_from_word((0, 1, 0)),
                          a2.element_from_word((1, 0, 1)))


def test_reflection_order(a2):
    s = a2.element_from_word((0,))
    t = a2.element_from_word((1,))
    assert reflection_order(s, s) == 1
    assert reflection_order(s, t) == 3
    inf = new_system([[1, "inf"], ["inf", 1]])
    assert reflection_order(inf.element_from_word((0,)),
                            inf.element_from_word((1,))) == math.inf


def test_interning_roundtrip(b2):
    eid = 0
    for g in (0, 1, 0, 1):
        eid = b2.multiply_gen(eid, g)
    w = b2.element_from_word((0, 1, 0, 1))
    assert b2.element_id(w.matrix) == eid
    rid = b2.root_id(w.matrix @ np.eye(2)[0])
    assert np.allclose(b2.root_vec(rid), w.matrix @ np.eye(2)[0])


def test_inverse_and_mul(a3):
    w = a3.element_from_word((0, 1, 2, 1))
    assert elements_equal(w * w.inverse(), a3.identity())


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 2), max_size=8))
def test_word_action_preserves_gram(word):
    s = named_system("A3")
    m = s.element_from_word(tuple(word)).matrix
    assert np.allclose(m.T @ s.gram @ m, s.gram, atol=1e-9)


def _element_lengths(system, cap=10):
    """BFS word lengths of all elements reachable within cap letters."""
    lengths = {0: 0}
    frontier = [0]
    k = 0
    while frontier and k < cap:
        k += 1
        nxt = []
        for eid in frontier:
            for g in range(system.rank):
                other = system.multiply_gen(eid, g)
                if other not in lengths:
                    lengths[other] = k
                    nxt.append(other)
        frontier = nxt
    return lengths


@pytest.mark.parametrize("name", ["A2", "B2"])
def test_root_sign_matches_length_criterion_rank2(name):
    system = named_system(name)
    lengths = _element_lengths(system)
    for eid, lw in lengths.items():
        m = system.elem_matrix(eid)
        for g in range(system.rank):
            ws = system.multiply_gen(eid, g)
            sign = root_sign_vec(m @ np.eye(system.rank)[g])
            assert (sign > 0) == (lengths[ws] > lw)
