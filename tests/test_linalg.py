from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from nilcomplex import linalg
from nilcomplex.exactnum import GaussianRational, I


def oracle_rref(rows):
    """Gauss-Jordan elimination over Fraction or GaussianRational scalars,
    with first-nonzero pivoting: (reduced rows, pivot columns).  The
    package's elimination before it ran in ints, kept as the oracle."""
    rows = [list(r) for r in rows]
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = rows[r][c]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        if len(pivots) == len(rows):
            break
    return rows, pivots


def oracle_rank(rows) -> int:
    return len(oracle_rref(rows)[1])


def oracle_inverse(A):
    """The exact inverse of a square Fraction matrix, by oracle_rref of [A | 1]."""
    n = len(A)
    red, pivots = oracle_rref([[Fraction(x) for x in row] + [Fraction(i == j) for j in range(n)]
                               for i, row in enumerate(A)])
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red]


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
def test_rref_is_the_rational_rref_scaled_to_ints(rows):
    red, pivots = linalg.rref(rows)
    want, want_pivots = oracle_rref([[Fraction(x) for x in r] for r in rows])
    assert pivots == want_pivots
    assert all(type(x) is int for r in red for x in r)
    if pivots:
        d = red[len(pivots) - 1][pivots[-1]]
        assert all(red[k][c] == d for k, c in enumerate(pivots))
        assert [[Fraction(x, d) for x in r] for r in red[:len(pivots)]] == want[:len(pivots)]
    assert not any(x for r in red[len(pivots):] for x in r)


@settings(max_examples=100, deadline=None)
@given(int_matrices(), st.integers(1, 6))
def test_the_rank_of_fraction_rows_is_the_rational_rank(rows, den):
    fractions = [[Fraction(x, den + k) for k, x in enumerate(r)] for r in rows]
    gaussian = [[GaussianRational(x) for x in r] for r in fractions]
    with mock.patch.object(linalg, "common_denominator", None):  # int rows go to rref as they are
        int_rank = linalg.rank(rows)
    assert linalg.rank(fractions) == int_rank == linalg.rank(gaussian) == oracle_rank(fractions)


@settings(max_examples=100, deadline=None)
@given(int_matrices(), int_matrices(), st.integers(1, 3))
def test_the_rank_of_gaussian_rows_is_the_complex_rank(re, im, den):
    rows = [[GaussianRational(Fraction(a, den), b) for a, b in zip(p, q)]
            for p, q in zip(re, im)]
    rows.append([I * x for x in rows[0]])  # a complex multiple of a row
    assert linalg.rank(rows) == oracle_rank(rows)


@pytest.mark.parametrize("rows, expected", [
    ([[1, I], [I, -1]], 1),  # w and i*w: one complex line; their parts span a real plane
    ([[1, I], [1, -I]], 2),  # w and its conjugate
    ([[GaussianRational(1, 2), Fraction(1, 3)],
      [GaussianRational(Fraction(-5, 2)), GaussianRational(Fraction(-1, 6), Fraction(1, 3))]], 1),
    ([[I, 0, 0], [0, 0, 1], [0, 0, 2 * I]], 2),
], ids=["w-and-iw", "w-and-conjugate", "complex-multiple", "zero-column"])
def test_the_complex_rank(rows, expected):
    assert linalg.rank(rows) == oracle_rank([[GaussianRational.coerce(x) for x in r]
                                             for r in rows]) == expected


def test_rref_and_rank_of_empty_and_zero_matrices():
    assert linalg.rref([]) == ([], []) and linalg.rank([]) == 0
    assert linalg.rref([[0, 0], [0, 0]]) == ([[0, 0], [0, 0]], [])
    assert linalg.rank([[0, 0], [0, 0]]) == linalg.rank([[I * 0, 0]]) == 0


def test_rref_copies_its_input():
    rows = [[2, 1], [4, 3]]  # the last pivot row is never rewritten
    for row in linalg.rref(rows)[0]:
        row[0] = 7
    assert rows == [[2, 1], [4, 3]]


def test_a_division_by_the_wrong_pivot_raises(monkeypatch):
    rows = [[2, 1, 1], [1, 1, 0], [1, 0, 1], [3, 2, 5]]
    assert linalg.rank(rows) == 3
    eliminate = linalg._eliminate
    # divide by the current pivot, not the previous one
    monkeypatch.setattr(linalg, "_eliminate",
                        lambda rows, r, c, prev: eliminate(rows, r, c, rows[r][c]))
    with pytest.raises(ArithmeticError, match="inexact division"):
        linalg.rref(rows)


@settings(max_examples=200, deadline=None)
@given(int_matrices())
def test_the_modular_pivots_name_a_nonzero_minor(rows):
    # the named minor of the input is nonsingular over the rationals; with
    # the entries far below 2^31 - 1 its size is the rank
    prows, pcols = linalg.modular_pivots(rows)
    assert len(set(prows)) == len(prows) and pcols == sorted(set(pcols))
    minor = [[Fraction(rows[r][c]) for c in pcols] for r in prows]
    assert oracle_rank(minor) == len(pcols) == linalg.rank(rows)


@pytest.mark.parametrize("rows, expected", [
    ([[linalg.PRIME]], ([], [])),                      # nonzero over Z, zero mod p
    ([[2, 4], [1, 2 + linalg.PRIME]], ([0], [0])),     # rank 2 over Z, 1 mod p
    ([[0, 0], [0, 3], [5, 1]], ([2, 1], [0, 1])),      # rows named as given
    ([[3, 1, 2], [6, 2, 5], [1, 1, 1]], ([0, 2, 1], [0, 1, 2])),  # and after a swap
    ([], ([], [])),
], ids=["multiple-of-p", "rank-drop", "row-indices", "swapped-rows", "empty"])
def test_the_modular_pivots_are_a_lower_bound(rows, expected):
    assert linalg.modular_pivots(rows) == expected

