import random
from fractions import Fraction

import pytest

from nilcomplex import catalogue, orbits
from nilcomplex.acs import (ABELIAN, HEISENBERG, AlmostComplexStructure,
                            BadSquare, NotClosed, check_m_table, classify_m,
                            is_integrable, m_subalgebra, nijenhuis,
                            torsion_report)
from nilcomplex.liecore import LieAlgebra

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


def test_torsion_report_schema():
    rep = torsion_report(catalogue.get("G6,3").algebra, J0)
    assert len(rep) == 15
    assert rep[0]["pair"] == [1, 2]
    assert all(len(r["vector"]) == 6 for r in rep)


def test_m_subalgebra_j0():
    g63 = catalogue.get("G6,3")
    m = m_subalgebra(g63.algebra, J0)
    assert m.complex_dim() == 3
    rep = g63.representative("J0")
    assert check_m_table(g63.algebra, J0, rep.claimed_m_table({}))


def test_m_subalgebra_abelian_example():
    e = catalogue.get("G6,1")
    J = e.representative("J_abelian").instantiate({})
    m = m_subalgebra(e.algebra, J)
    assert all(not any(not c.is_zero() for c in coeffs)
               for coeffs in m.bracket_table().values())
    assert all(c == 0 for c in sum((e.algebra.bracket(
        m.generators[0], m.generators[i]) for i in range(6)), []))


def test_m_subalgebra_dim_three_whenever_square_holds():
    assert m_subalgebra(ABELIAN_ALG, J0).complex_dim() == 3


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
