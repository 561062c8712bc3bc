import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nilcomplex import catalogue
from nilcomplex.exactnum import GaussianRational, MultiPoly
from nilcomplex.liecore import DimensionMismatch, JacobiError, LieAlgebra

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


ALGEBRAS = [e.algebra for e in catalogue.entries()] + [
    algebra for algebra, _ in catalogue._SPOTCHECK.values()]


def _dense_bracket(L, u, v):
    """The reference: u_i v_j - u_j v_i formed for every table row."""
    zero = u[0] * 0
    out = [zero] * L.dim
    for (i, j), row in L.table.items():
        coef = u[i - 1] * v[j - 1] - u[j - 1] * v[i - 1]
        if not coef:
            continue
        for k, c in row.items():
            out[k - 1] = out[k - 1] + coef * c
    return out


def _with_zeros(scalars, zero):
    return st.lists(st.one_of(st.just(zero), scalars), min_size=6, max_size=6)


_small = st.fractions(min_value=-3, max_value=3, max_denominator=3)
_monomials = st.tuples(_small, st.integers(0, 2), st.integers(0, 2)).map(
    lambda t: MultiPoly.var("s") ** t[1] * MultiPoly.var("t") ** t[2] * t[0])
RINGS = {
    "fraction": _with_zeros(fractions, Fraction(0)),
    "gaussian": _with_zeros(st.builds(GaussianRational, _small, _small), GaussianRational(0)),
    "multipoly": _with_zeros(st.lists(_monomials, min_size=1, max_size=3).map(sum),
                             MultiPoly.const(0)),
}


@pytest.mark.parametrize("ring", sorted(RINGS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_bracket_equals_the_dense_formula(ring, data):
    L = data.draw(st.sampled_from(ALGEBRAS))
    u, v = data.draw(RINGS[ring]), data.draw(RINGS[ring])
    got, dense = L.bracket(u, v), _dense_bracket(L, u, v)
    assert got == dense and repr(got) == repr(dense)


@pytest.mark.parametrize("length", [5, 7])
def test_a_vector_of_the_wrong_length_is_a_dimension_mismatch(length):
    L = catalogue.get("M18+1").algebra
    for u, v in (([Fraction(1)] * length, e(1)), (e(1), [Fraction(1)] * length)):
        with pytest.raises(DimensionMismatch):
            L.bracket(u, v)


def test_jacobi_all_catalogue():
    # the eleven entries and the two twins: all 13 registry algebras
    assert len(ALGEBRAS) == 13
    for L in ALGEBRAS:
        assert L.jacobi_check()


def test_jacobi_abelian():
    assert LieAlgebra(6, {}).jacobi_check()


def test_jacobi_rejects_bad_table():
    # cyclic sum on (x1, x2, x3) is x3 here, so construction must fail
    with pytest.raises(JacobiError):
        LieAlgebra(3, {(1, 2): {3: 1}, (1, 3): {1: 1}})


def _dense_jacobi(dim, table) -> bool:
    """The oracle: the cyclic sum of dense brackets of every basis triple."""
    L = object.__new__(LieAlgebra)  # the table, unchecked
    L.dim, L.table = dim, table
    basis = [[Fraction(int(k == i)) for k in range(dim)] for i in range(dim)]
    for a in range(dim):
        for b in range(a + 1, dim):
            for c in range(b + 1, dim):
                x, y, z = basis[a], basis[b], basis[c]
                if any(p + q + r for p, q, r in zip(L.bracket(x, L.bracket(y, z)),
                                                    L.bracket(y, L.bracket(z, x)),
                                                    L.bracket(z, L.bracket(x, y)))):
                    return False
    return True


# sl(2) + sl(2), on the bases (e, h, f) and (e, f, h): its Jacobi sums
# vanish only by cancellation between terms, which the nilpotent catalogue
# tables never need
SL2_SL2 = {(1, 2): {1: -2}, (1, 3): {2: 1}, (2, 3): {3: -2},
           (4, 5): {6: 1}, (4, 6): {4: -2}, (5, 6): {5: 2}}


def test_jacobi_agrees_with_dense_brackets_on_perturbed_tables():
    rng = random.Random(0)
    assert LieAlgebra(6, SL2_SL2).jacobi_check() and _dense_jacobi(6, SL2_SL2)
    tables = [e.algebra.table for e in catalogue.entries()] + [SL2_SL2] * 4
    verdicts = []
    for _ in range(300):
        table = {pair: dict(row) for pair, row in rng.choice(tables).items()}
        for _ in range(rng.randint(1, 2)):  # one or two constants set anew
            i = rng.randint(1, 5)
            k, c = rng.randint(1, 6), Fraction(rng.randint(-2, 2), rng.randint(1, 2))
            table.setdefault((i, rng.randint(i + 1, 6)), {})[k] = c
        expected = _dense_jacobi(6, table)
        try:
            LieAlgebra(6, table)
            built = True
        except JacobiError:
            built = False
        assert built == expected, table
        verdicts.append(built)
    assert 50 < sum(verdicts) < 250  # both verdicts occur often


def test_central_series():
    assert LieAlgebra(6, {}).nilpotency_class() == 1
    assert catalogue.get("M10").algebra.nilpotency_class() == 3
    assert catalogue.get("M18").algebra.nilpotency_class() == 4
    assert catalogue.get("M18").algebra.central_series() == [6, 4, 3, 1, 0]


def test_class_at_most_four_everywhere():
    for entry in catalogue.entries():
        assert entry.algebra.nilpotency_class() <= 4
