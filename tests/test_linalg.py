from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nilcomplex import linalg


def test_mat_mul():
    A = [[1, Fraction(1, 2)], [0, 3]]
    assert linalg.mat_mul(A, [[2, 0], [4, 1]]) == [[4, Fraction(1, 2)], [12, 3]]


@pytest.mark.parametrize("A, B", [([[1, 2]], [[1, 2]]), ([[1], [2]], [[1, 2], [3, 4]])])
def test_mat_mul_refuses_mismatched_shapes(A, B):
    # an assert here vanished under python -O, and [[1, 2]] x [[1, 2]] gave [[1, 2]]
    with pytest.raises(ValueError, match="cannot multiply"):
        linalg.mat_mul(A, B)


@st.composite
def int_matrices(draw):
    """Small int matrices, often with zero rows and columns, rows that are
    combinations of others and repeated columns."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                         min_size=m, max_size=m))
    for kind in draw(st.lists(st.sampled_from(["zero row", "combination", "zero column",
                                               "repeated column"]), max_size=4)):
        if kind == "zero row":
            rows.insert(draw(st.integers(0, len(rows))), [0] * len(rows[0]))
        elif kind == "combination":
            f, g = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            p, q = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            rows.insert(draw(st.integers(0, len(rows))), [f * a + g * b for a, b in zip(p, q)])
        else:
            c = draw(st.integers(0, len(rows[0]) - 1))
            for row in rows:
                row.insert(c, 0 if kind == "zero column" else row[c])
    return rows


@settings(max_examples=200, deadline=None)
@given(int_matrices())
def test_integer_rank_equals_the_rational_rank(rows):
    assert linalg.integer_rank(rows) == linalg.rank([[Fraction(x) for x in r] for r in rows])


def test_integer_rank_of_empty_and_zero_matrices():
    assert linalg.integer_rank([]) == 0
    assert linalg.integer_rank([[0, 0], [0, 0]]) == 0


def test_a_division_by_the_wrong_pivot_raises(monkeypatch):
    rows = [[2, 1, 1], [1, 1, 0], [1, 0, 1], [3, 2, 5]]
    assert linalg.integer_rank(rows) == 3
    eliminate = linalg._eliminate
    # divide by the current pivot, not the previous one
    monkeypatch.setattr(linalg, "_eliminate",
                        lambda rows, r, c, prev: eliminate(rows, r, c, rows[r][c]))
    with pytest.raises(ArithmeticError, match="inexact division"):
        linalg.integer_rank(rows)
