import math

import pytest

from subexpr.coxeter import coxeter_matrix_for
from subexpr.sweeps import table1_row

INF = math.inf


@pytest.mark.parametrize("name, ranks, row", [
    ("A1", [None], {3}),
    ("An", range(2, 9), {3, 4, 5}),
    ("B2", [None], {3, 4, 6}),
    ("Bn", range(3, 9), {3, 4, 5, 6}),
    ("Dn", range(3, 9), {3, 4, 5}),
    ("F4", [None], {3, 4, 5, 6}),
    ("G2", [None], {3, 4, 5, 8}),
    ("A2~", [None], {3, 4, 5}),
], ids=["A1", "An", "B2", "Bn", "Dn", "F4", "G2", "A2~"])
def test_table1_row_of_named_types(name, ranks, row):
    for rank in ranks:
        assert table1_row(coxeter_matrix_for(name, rank)) == row


@pytest.mark.parametrize("matrix, row", [
    ([[1, 5], [5, 1]], {3, 4, 7}),
    ([[1, 8], [8, 1]], {3, 4, 6, 10}),
    ([[1, 2], [2, 1]], {3, 4}),
    ([[1, INF, INF], [INF, 1, INF], [INF, INF, 1]], {3, 4}),
], ids=["I2(5)", "I2(8)", "A1xA1", "universal-rank3"])
def test_table1_row_of_raw_matrices(matrix, row):
    assert table1_row(matrix) == row
