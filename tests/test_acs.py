import contextlib
import functools
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from nilcomplex import acs, catalogue, linalg, moduli, orbits
from nilcomplex.acs import (ABELIAN, HEISENBERG, AlmostComplexStructure,
                            BadSquare, NotClosed, Unclassifiable, check_m_table,
                            classify_m, is_integrable, m_subalgebra, nijenhuis)
from nilcomplex.exactnum import common_denominator
from nilcomplex.liecore import DimensionMismatch, LieAlgebra

ABELIAN_ALG = LieAlgebra(6, {})

J0 = AlmostComplexStructure([
    [0, -1, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0],
    [0, 0, 0, -1, 0, 0], [0, 0, 1, 0, 0, 0],
    [0, 0, 0, 0, 0, -1], [0, 0, 0, 0, 1, 0]])

IDENTITY = AlmostComplexStructure(
    [[1 if i == j else 0 for j in range(6)] for i in range(6)])


def test_square_check():
    assert J0.square_check()
    assert not IDENTITY.square_check()
    e = catalogue.get("G6,7")
    Ja = e.representative("J_alpha").instantiate({"alpha": Fraction(2)})
    assert Ja.square_check()


def test_nijenhuis_examples():
    g63 = catalogue.get("G6,3").algebra
    for i in range(1, 7):
        for j in range(i + 1, 7):
            assert all(c == 0 for c in nijenhuis(ABELIAN_ALG, J0, i, j))
    assert all(c == 0 for c in nijenhuis(g63, J0, 1, 2))
    # flip one block's orientation: no longer torsion free
    bad = AlmostComplexStructure([
        [0, 1, 0, 0, 0, 0], [-1, 0, 0, 0, 0, 0],
        [0, 0, 0, -1, 0, 0], [0, 0, 1, 0, 0, 0],
        [0, 0, 0, 0, 0, -1], [0, 0, 0, 0, 1, 0]])
    assert any(any(c != 0 for c in nijenhuis(g63, bad, i, j))
               for i in range(1, 7) for j in range(i + 1, 7))


def test_nijenhuis_antisymmetric():
    g65 = catalogue.get("G6,5").algebra
    rng = random.Random(0)
    fam = catalogue.get("G6,5").families[0]
    J = fam.instantiate(fam.random_admissible(rng))
    for i in range(1, 7):
        for j in range(i + 1, 7):
            nij = nijenhuis(g65, J, i, j)
            nji = nijenhuis(g65, J, j, i)
            assert nij == [-c for c in nji]


def test_is_integrable():
    g63 = catalogue.get("G6,3")
    g67 = catalogue.get("G6,7")
    assert is_integrable(g63.algebra, J0)
    # the right matrix on the wrong algebra
    assert not is_integrable(g67.algebra, J0)
    assert not is_integrable(g63.algebra, IDENTITY)


def test_m_subalgebra_j0():
    g63 = catalogue.get("G6,3")
    m = m_subalgebra(g63.algebra, J0)
    assert linalg.rank(m) == 3
    rep = g63.representative("J0")
    assert check_m_table(g63.algebra, J0, rep.claimed_m_table({}))


def test_m_subalgebra_abelian_example():
    e = catalogue.get("G6,1")
    J = e.representative("J_abelian").instantiate({})
    m = m_subalgebra(e.algebra, J)
    assert all(c == 0 for u in m for v in m for c in e.algebra.bracket(u, v))
    assert all(c == 0 for c in sum((e.algebra.bracket(
        m[0], m[i]) for i in range(6)), []))


def test_m_subalgebra_dim_three_whenever_square_holds():
    assert linalg.rank(m_subalgebra(ABELIAN_ALG, J0)) == 3


def test_m_subalgebra_errors():
    g63 = catalogue.get("G6,3").algebra
    with pytest.raises(BadSquare):
        m_subalgebra(g63, IDENTITY)
    bad = AlmostComplexStructure([
        [0, 1, 0, 0, 0, 0], [-1, 0, 0, 0, 0, 0],
        [0, 0, 0, -1, 0, 0], [0, 0, 1, 0, 0, 0],
        [0, 0, 0, 0, 0, -1], [0, 0, 0, 0, 1, 0]])
    with pytest.raises(NotClosed):
        m_subalgebra(g63, bad)


def test_classify_examples():
    g63 = catalogue.get("G6,3")
    assert classify_m(g63.algebra, J0) == HEISENBERG
    m10 = catalogue.get("M10")
    Jb = m10.representative("J_case21").instantiate(
        {"j21": Fraction(1), "j65": Fraction(1, 2)})
    assert classify_m(m10.algebra, Jb) == ABELIAN
    m14 = catalogue.get("M14+1")
    Jc = m14.representative("J_pm").instantiate({"j36": Fraction(1)})
    assert classify_m(m14.algebra, Jc) == HEISENBERG
    assert classify_m(ABELIAN_ALG, J0) == ABELIAN


# Two non-nilpotent algebras on which J0 is integrable but m is neither abelian
# nor Heisenberg: the realified r_2(C) + C and the realified sl(2, C).
R2C_PLUS_C = {(1, 3): {3: 1}, (1, 4): {4: 1}, (2, 3): {4: 1}, (2, 4): {3: -1}}
SL2C = {(1, 3): {3: 2}, (1, 4): {4: 2}, (2, 3): {4: 2}, (2, 4): {3: -2},
        (1, 5): {5: -2}, (1, 6): {6: -2}, (2, 5): {6: -2}, (2, 6): {5: 2},
        (3, 5): {1: 1}, (3, 6): {2: 1}, (4, 5): {2: 1}, (4, 6): {1: -1}}


@pytest.mark.parametrize("table, message", [
    (R2C_PLUS_C, "derived algebra of m is not central in m"),
    (SL2C, "derived algebra of m has dimension 3"),
], ids=["r2C+C", "sl2C"])
def test_classify_m_rejects_m_of_other_types(table, message):
    L = LieAlgebra(6, table)
    assert is_integrable(L, J0)
    with pytest.raises(Unclassifiable) as ex:
        classify_m(L, J0)
    assert str(ex.value) == message


def test_equivariance_under_automorphisms():
    rng = random.Random(5)
    for name in ("G6,3", "G6,7", "M10", "M5"):
        e = catalogue.get(name)
        fam = e.families[0]
        aut = e.automorphisms[0]
        for _ in range(5):
            J = fam.instantiate(fam.random_admissible(rng))
            phi = aut.instantiate_matrix(aut.random_admissible(rng))
            J2 = orbits.act(e.algebra, phi, J)
            assert is_integrable(e.algebra, J2)
            assert classify_m(e.algebra, J2) == classify_m(e.algebra, J)


def test_all_representative_tables():
    """Acceptance-grade check at one admissible point per representative."""
    rng = random.Random(12)
    for e in catalogue.entries():
        for rep in e.representatives:
            values = rep.random_admissible(rng)
            J = rep.instantiate(values)
            assert is_integrable(e.algebra, J), (e.name, rep.name)
            if rep.expected_m:
                assert classify_m(e.algebra, J) == rep.expected_m
            if rep.m_table:
                assert check_m_table(e.algebra, J, rep.claimed_m_table(values)), \
                    (e.name, rep.name)


# Every catalogued algebra and both gamma = -1 twins, each with a family to
# draw J from (a twin borrows its gamma = +1 family, so its J are not
# integrable there).
ALGEBRAS = {e.name: (e.algebra, e.families[0]) for e in catalogue.entries()}
ALGEBRAS.update((name, (L, catalogue.get(family_of).families[0]))
                for name, (L, family_of) in catalogue._SPOTCHECK.items())


def _dense(rng):
    """A rational matrix with no zero entry, so every term of the map counts."""
    return AlmostComplexStructure([[Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                                             rng.randint(1, 5)) for _ in range(6)]
                                   for _ in range(6)])


def _mutant(rng, J):
    """J with one entry moved."""
    m = [row[:] for row in J.m]
    m[rng.randrange(6)][rng.randrange(6)] += Fraction(rng.choice((-1, 1)), rng.randint(1, 3))
    return AlmostComplexStructure(m)


def _oracle(L, J):
    """Entry (k, j) of J*J + 1 at row 6j + k, then the nijenhuis components."""
    sq = [sum(J.m[k][r] * J.m[r][j] for r in range(6)) + (k == j)
          for j in range(6) for k in range(6)]
    return sq + [c for i in range(1, 7) for j in range(i + 1, 7) for c in nijenhuis(L, J, i, j)]


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_constraint_map_matches_its_oracle(name):
    L, fam = ALGEBRAS[name]
    rng = random.Random(name)
    for J in (fam.instantiate(fam.random_admissible(rng)), _dense(rng)):
        assert moduli.constraint_eval(L, J) == _oracle(L, J)


@pytest.mark.parametrize("row", [0, 57, 125])
@pytest.mark.parametrize("part", ["coefficient", "constant"])
def test_perturbed_map_fails_its_oracle(monkeypatch, part, row):
    L = catalogue.get("M18+1").algebra
    J = _dense(random.Random(row))
    assert moduli.constraint_eval(L, J) == _oracle(L, J)
    cmap = list(acs.constraint_map(L))
    const, terms = cmap[row]
    if part == "constant":
        cmap[row] = (const + 1, terms)
    else:
        (p, q, c), *rest = terms
        cmap[row] = (const, ((p, q, c + 1), *rest))
    rows, floats = moduli.jacobian_matrix(L, J), _svd_input(L, J)
    for reader in (acs, moduli):
        monkeypatch.setattr(reader, "constraint_map", lambda _: cmap)
    # the SVD reads the map through its cached pattern: build a fresh one
    monkeypatch.setattr(moduli, "_gradient_pattern",
                        functools.cache(moduli._gradient_pattern.__wrapped__))
    assert acs.constraint_map(L) is cmap
    assert moduli.constraint_eval(L, J) != _oracle(L, J)
    # a constant has no derivative; a coefficient moves both Jacobian views
    moved = part == "coefficient"
    assert (moduli.jacobian_matrix(L, J) != rows) == moved
    assert (not np.array_equal(_svd_input(L, J), floats)) == moved


def _svd_input(L, J):
    """The matrix that moduli.jacobian_rank hands to its one SVD."""
    with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd, \
            contextlib.suppress(moduli.RankUnstable):
        moduli.jacobian_rank(L, J)
    (A,), _ = svd.call_args
    return A


def test_the_map_has_int_coefficients():
    """The forms are evaluated in ints: a Fraction here would leave that path."""
    forms = [f for e in catalogue.entries() for f in acs.constraint_map(e.algebra)]
    for const, terms in forms + list(acs._square_forms(6)):
        assert type(const) is int
        assert all(type(x) is int for t in terms for x in t)


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_square_check_is_the_dense_square(name):
    L, fam = ALGEBRAS[name]
    rng = random.Random(name)
    verdicts = set()
    for _ in range(3):
        J = fam.instantiate(fam.random_admissible(rng))
        for P in (J, _mutant(rng, J)):
            square = not any(_oracle(L, P)[:36])
            assert P.square_check() == square
            verdicts.add(square)
    assert verdicts == {True, False}


@pytest.mark.parametrize("row", [0, 14, 35])
def test_perturbed_square_forms_fail_the_dense_square(monkeypatch, row):
    forms = list(acs._square_forms(6))
    const, terms = forms[row]
    f = [x for r in J0.m for x in r]
    t = next(t for t, (p, q, _) in enumerate(terms) if f[p] and f[q])
    p, q, c = terms[t]
    forms[row] = (const, terms[:t] + ((p, q, c + 1),) + terms[t + 1:])
    assert J0.square_check() and not any(_oracle(ABELIAN_ALG, J0)[:36])
    monkeypatch.setattr(acs, "_square_forms", lambda n: forms)
    assert not J0.square_check()


def test_is_integrable_is_square_and_torsion():
    rng = random.Random(8)
    verdicts = set()
    for name, (L, fam) in sorted(ALGEBRAS.items()):
        for _ in range(3):
            J = fam.instantiate(fam.random_admissible(rng))
            for P in (J, _mutant(rng, J)):
                square = P.square_check()
                torsion_free = all(c == 0 for i in range(1, 7) for j in range(i + 1, 7)
                                   for c in nijenhuis(L, P, i, j))
                assert is_integrable(L, P) == (square and torsion_free), name
                verdicts.add((square, torsion_free))
    # both ways to fail occur: a bad square, and a good square with torsion
    assert {(True, True), (True, False), (False, False)} <= verdicts


def test_constraint_values_need_a_matrix_of_the_algebra_dimension():
    with pytest.raises(DimensionMismatch):
        is_integrable(LieAlgebra(4, {}), J0)


def _read(J, how):
    """Read J through one of the read-only accessors, or not at all."""
    if how == "column":
        J.column(1)
    elif how == "to_json":
        J.to_json()
    elif how == "index":
        J[1, 1]
    elif how == "repr":
        repr(J)


@pytest.mark.parametrize("how", [None, "column", "to_json", "index", "repr"])
def test_a_changed_entry_reaches_every_check(how):
    # reading J.m hands out the rows, so an entry changed through them is
    # what square_check, is_integrable and integer_point then read
    for e in catalogue.entries():
        for fam in (f for f in e.families if f.samplable):
            J = fam.instantiate(fam.random_admissible(random.Random(fam.name)))
            M, D = acs.integer_point(J, 6)
            assert J.square_check() and is_integrable(e.algebra, J), fam.name
            _read(J, how)
            J.m[0][0] += 1
            assert acs.integer_point(J, 6) == common_denominator(
                [Fraction(M[0], D) + 1] + [Fraction(x, D) for x in M[1:]]), fam.name
            assert not J.square_check() and not is_integrable(e.algebra, J), fam.name


def test_a_member_holds_its_integers_until_its_rows_are_handed_out():
    fam = catalogue.get("G6,3").families[0]
    J = fam.instantiate(fam.random_admissible(random.Random(3)))
    stored = J._ints
    assert stored is not None and J._rows is None
    _read(J, "column")
    assert J._ints is stored and J._rows is not None
    assert J.m is J.m and J._ints is None
    assert acs.integer_point(J, 6) == (list(stored[0]), stored[1])


def test_from_integers_is_m_over_d():
    J = AlmostComplexStructure.from_integers([0, -1, 1, 0], 2, 2)
    assert J == AlmostComplexStructure([[0, Fraction(-1, 2)], [Fraction(1, 2), 0]])
