from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nilcomplex import catalogue
from nilcomplex.liecore import JacobiError, LieAlgebra

fractions = st.fractions(min_value=-6, max_value=6, max_denominator=6)
vectors = st.lists(fractions, min_size=6, max_size=6)


def e(i):
    return [Fraction(1) if k == i - 1 else Fraction(0) for k in range(6)]


def test_bracket_examples():
    g63 = catalogue.get("G6,3").algebra
    assert g63.bracket(e(1), e(2)) == e(4)
    m10 = catalogue.get("M10").algebra
    assert m10.bracket(e(2), e(3)) == [-c for c in e(6)]


@given(vectors)
def test_bracket_alternating(u):
    g63 = catalogue.get("G6,3").algebra
    assert all(c == 0 for c in g63.bracket(u, u))


@settings(max_examples=40)
@given(vectors, vectors, vectors, fractions)
def test_bracket_bilinear(u, v, w, a):
    L = catalogue.get("G6,5").algebra
    au_v = [a * x + y for x, y in zip(u, v)]
    lhs = L.bracket(au_v, w)
    rhs = [a * x + y for x, y in zip(L.bracket(u, w), L.bracket(v, w))]
    assert lhs == rhs


def test_jacobi_all_catalogue():
    for entry in catalogue.entries():
        assert entry.algebra.jacobi_check()


def test_jacobi_abelian():
    assert LieAlgebra(6, {}).jacobi_check()


def test_jacobi_rejects_bad_table():
    # cyclic sum on (x1, x2, x3) is x3 here, so construction must fail
    with pytest.raises(JacobiError):
        LieAlgebra(3, {(1, 2): {3: 1}, (1, 3): {1: 1}})


def test_central_series():
    assert LieAlgebra(6, {}).nilpotency_class() == 1
    assert catalogue.get("M10").algebra.nilpotency_class() == 3
    assert catalogue.get("M18").algebra.nilpotency_class() == 4
    assert catalogue.get("M18").algebra.central_series() == [6, 4, 3, 1, 0]


def test_class_at_most_four_everywhere():
    for entry in catalogue.entries():
        assert entry.algebra.nilpotency_class() <= 4
