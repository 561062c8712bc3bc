import dataclasses
import random
from fractions import Fraction

import pytest

from nilcomplex import catalogue, moduli
from nilcomplex.acs import AlmostComplexStructure
from nilcomplex.catalogue import JFamily, ParamSpec
from nilcomplex.liecore import LieAlgebra

J0 = AlmostComplexStructure([
    [0, -1, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0],
    [0, 0, 0, -1, 0, 0], [0, 0, 1, 0, 0, 0],
    [0, 0, 0, 0, 0, -1], [0, 0, 0, 0, 1, 0]])


def test_constraint_eval_zero_iff_integrable():
    g63 = catalogue.get("G6,3").algebra
    vals = moduli.constraint_eval(g63, J0)
    assert len(vals) == 126
    assert all(v == 0 for v in vals)
    identity = AlmostComplexStructure([[1 if i == j else 0 for j in range(6)]
                                       for i in range(6)])
    vals = moduli.constraint_eval(g63, identity)
    # J^2 + 1 block contributes 2 on the diagonal rows
    assert vals[0] == 2 and any(v != 0 for v in vals)
    rng = random.Random(0)
    fam = catalogue.get("G6,3").families[0]
    J = fam.instantiate(fam.random_admissible(rng))
    assert all(v == 0 for v in moduli.constraint_eval(g63, J))


def test_rank_and_tangent_examples():
    rng = random.Random(1)
    g63 = catalogue.get("G6,3")
    J = g63.families[0].instantiate(g63.families[0].random_admissible(rng))
    assert moduli.jacobian_rank(g63.algebra, J) == 24
    assert moduli.tangent_dim(g63.algebra, J) == 12
    m14 = catalogue.get("M14+1")
    J = m14.families[0].instantiate(m14.families[0].random_admissible(rng))
    assert moduli.jacobian_rank(m14.algebra, J) == 28
    assert moduli.tangent_dim(m14.algebra, J) == 8


def test_abelian_square_manifold_dimension():
    # with no brackets only J^2 = -1 constrains J: an 18-dimensional manifold
    abelian = LieAlgebra(6, {})
    assert moduli.tangent_dim(abelian, J0) == 18


def test_tangent_requires_zero_set_membership():
    g63 = catalogue.get("G6,3").algebra
    identity = AlmostComplexStructure([[1 if i == j else 0 for j in range(6)]
                                       for i in range(6)])
    with pytest.raises(ValueError):
        moduli.tangent_dim(g63, identity)


def test_dimension_report_all_algebras():
    for e in catalogue.entries():
        rep = moduli.dimension_report(e, samples=3, seed=2)
        assert rep["agree"] == 3, (e.name, rep["tangent_dims"])
        # family rank equals the number of free parameters and is bounded
        # by the tangent dimension
        for s in rep["samples"]:
            assert s["family_rank"] == rep["n_free_params"]
            assert s["family_rank"] <= s["tangent_dim"] <= 36


def test_strata_of_m10_have_expected_dims():
    e = catalogue.get("M10")
    for fam, expected_rank in (("case-21", 8), ("case-22", 9)):
        rep = moduli.dimension_report(e, family=e.family(fam), samples=2, seed=3)
        # every smooth point of the moduli set has tangent dimension 10
        assert rep["tangent_dims"] == [10, 10]
        assert all(s["family_rank"] == expected_rank for s in rep["samples"])


def _random_direction(rng, n=6):
    """A rational matrix with no zero entry."""
    return [[Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5))
             for _ in range(n)] for _ in range(n)]


def _central_difference(L, J, H):
    """(c(J + H) - c(J - H)) / 2, which is exactly dc_J(H) for a quadratic c."""
    plus = moduli.constraint_eval(L, AlmostComplexStructure(
        [[a + b for a, b in zip(r, h)] for r, h in zip(J.m, H)]))
    minus = moduli.constraint_eval(L, AlmostComplexStructure(
        [[a - b for a, b in zip(r, h)] for r, h in zip(J.m, H)]))
    return [(p - q) / 2 for p, q in zip(plus, minus)]


def _apply(rows, H):
    vecH = [x for row in H for x in row]  # column r*n + c is entry (r, c)
    return [sum(a * h for a, h in zip(row, vecH) if a) for row in rows]


def test_jacobian_is_the_exact_derivative_on_every_algebra():
    rng = random.Random(5)
    for e in catalogue.entries():
        fam = e.families[0]
        J = fam.instantiate(fam.random_admissible(rng))
        rows = moduli.jacobian_matrix(e.algebra, J)
        assert len(rows) == 126 and all(len(r) == 36 for r in rows)
        for _ in range(2):
            H = _random_direction(rng)
            assert _apply(rows, H) == _central_difference(e.algebra, J, H), e.name


def test_perturbed_jacobian_fails_its_oracle():
    rng = random.Random(6)
    e = catalogue.get("M10")
    fam = e.families[0]
    J = fam.instantiate(fam.random_admissible(rng))
    H = _random_direction(rng)
    rows = moduli.jacobian_matrix(e.algebra, J)
    expected = _central_difference(e.algebra, J, H)
    assert _apply(rows, H) == expected
    for r, c in ((3, 17), (40, 7), (125, 35)):
        bad = [row[:] for row in rows]
        bad[r][c] += Fraction(1, 3)
        assert _apply(bad, H) != expected, (r, c)


@pytest.mark.parametrize("name, seed", [("M18+1", 421811493), ("G6,4", 1267734702),
                                        ("G6,7", 2939367331)])
def test_m18_defect_seed_gives_the_paper_dimension(name, seed):
    # The SVD misses rank here: it gives tangent 9 on M18+1, 12 on G6,4 and
    # 11 on G6,7.  Exact elimination decides.
    e = catalogue.get(name)
    rep = moduli.dimension_report(e, samples=1, seed=seed)
    assert rep["tangent_dims"] == [e.expected_dim]
    assert rep["samples"][0]["family_rank"] == rep["n_free_params"]


def test_family_rank_counts_directions_not_parameters():
    # the entries see a and b only through a + b: one direction, two
    # parameters, and no cell certifies either, so the rank is refused
    fam = JFamily(name="sum", params=(ParamSpec("a"), ParamSpec("b")),
                  defs=(("t", "a + b"),), entries=(("t", "t^2", "1/t", "t*t - t"),))
    assert fam.continuous_params() == ["a", "b"]
    with pytest.raises(ValueError, match="parameter a "):
        moduli.family_rank(fam)


@pytest.mark.parametrize("mutation", ["scaled cell", "shadowing def"])
def test_family_rank_refuses_a_family_without_its_certificate(mutation):
    fam = catalogue.get("G6,3").family("case-rest")
    assert moduli.family_rank(fam) == len(fam.continuous_params())
    if mutation == "scaled cell":
        rows = [["2*j12" if c == "j12" else c for c in r] for r in fam.entries]
        mutant = dataclasses.replace(fam, entries=tuple(tuple(r) for r in rows))
    else:
        mutant = dataclasses.replace(fam, defs=fam.defs + (("j12", "2*j11"),))
    with pytest.raises(ValueError, match="parameter j12 "):
        moduli.family_rank(mutant)
