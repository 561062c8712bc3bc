import dataclasses
import random
from fractions import Fraction

import pytest

from nilcomplex import catalogue, charts, group
from nilcomplex.catalogue import Chart, Representative
from nilcomplex.exactnum import GaussianRational, MultiPoly


def all_chart_reps():
    for e in catalogue.entries():
        for r in e.representatives:
            if r.chart is not None:
                yield e, r


@pytest.mark.parametrize("entry,rep", [(e, r) for e, r in all_chart_reps()],
                         ids=lambda v: getattr(v, "name", None))
def test_chart_identities_and_multiplication(entry, rep):
    rng = random.Random(42)
    values = rep.random_admissible(rng, extra_conditions=rep.chart.conditions)
    phis = charts.chart_polys(rep, values)
    report = charts.verify_chart(entry, rep, values, jacobian_points=3, phis=phis)
    assert report["identities"] == 18
    charts.verify_chart_multiplication(entry, rep, values, pairs=10, phis=phis)


def test_antiholo_field_shapes():
    e = catalogue.get("G6,3")
    J = e.representative("J0").instantiate({})
    # X~_3^- is 2 d/d(conj z2): kills z2 = x2 + i y2 but not its conjugate
    f3 = charts.build_antiholo(e, J, 3)
    z2 = MultiPoly.var("x2") + MultiPoly.var("y2") * GaussianRational(0, 1)
    assert charts.apply_derivation(f3, z2).is_zero()
    res = charts.apply_derivation(f3, z2.conj())
    assert res == MultiPoly.const(2)
    # constants die under every antiholomorphic field
    for j in range(1, 7):
        fj = charts.build_antiholo(e, J, j)
        assert charts.apply_derivation(fj, MultiPoly.const(5)).is_zero()


def test_bare_coordinate_is_not_holomorphic_when_w3_mixes():
    # on G6,6 the third chart function involves x3 - i y3, so x3 alone fails
    e = catalogue.get("G6,6")
    J = e.representative("J").instantiate({})
    f5 = charts.build_antiholo(e, J, 5)
    assert not charts.apply_derivation(f5, MultiPoly.var("x3")).is_zero()


def test_bad_square_rejected():
    from nilcomplex.acs import AlmostComplexStructure, BadSquare
    e = catalogue.get("G6,3")
    I6 = AlmostComplexStructure([[1 if i == j else 0 for j in range(6)]
                                 for i in range(6)])
    with pytest.raises(BadSquare):
        charts.build_antiholo(e, I6, 1)


def test_mutation_detected():
    # flipping the sign of one phi^2 term must break annihilation
    e = catalogue.get("G6,3")
    rep = e.representative("J0")
    chart = rep.chart
    mutated = Chart(defs=chart.defs,
                    phis=(chart.phis[0],
                          "w2 + w1*conj(w1)/4 + conj(w1)^2/8",
                          chart.phis[2]),
                    generators=chart.generators, chi=chart.chi)
    bad_rep = Representative(name="J0m", params=(), entries=rep.entries,
                             chart=mutated)
    with pytest.raises(charts.NotAnnihilated):
        charts.verify_chart(e, bad_rep, {}, jacobian_points=1)


@pytest.mark.parametrize("entry,rep", [(e, r) for e, r in all_chart_reps()],
                         ids=lambda v: getattr(v, "name", None))
def test_mutation_detected_everywhere(entry, rep):
    """A sign flip in the first nonconstant term of phi^2 is caught."""
    rng = random.Random(7)
    values = rep.random_admissible(rng, extra_conditions=rep.chart.conditions)
    phis = list(charts.chart_polys(rep, values))
    p = phis[1]
    target = max(p.terms, key=lambda t: sum(t))
    terms = dict(p.terms)
    terms[target] = -terms[target]
    phis[1] = MultiPoly(p.vars, terms)
    with pytest.raises((charts.NotAnnihilated, AssertionError)):
        charts.verify_chart(entry, rep, values, jacobian_points=1, phis=phis)


def test_left_translation_holomorphy():
    rng = random.Random(11)
    for entry, rep in all_chart_reps():
        values = rep.random_admissible(rng, extra_conditions=rep.chart.conditions)
        a = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(6)]
        assert charts.translated_chart_is_holomorphic(entry, rep, values, a), \
            (entry.name, rep.name)


def test_chi_depends_on_conjugate_except_m5_canonical():
    # at least one representative has a genuinely non-holomorphic correction
    assert charts.chi_depends_on_conjugate(
        catalogue.get("G6,3").representative("J0"), {})
    # ... while the canonical multiplication on the complex Heisenberg group
    # is holomorphic: the w3 correction of the matrix model is z1_a * z2_x
    a = [MultiPoly.var(c) for c in group.COORDS]
    x = [Fraction(1), Fraction(2), Fraction(3), Fraction(-1), Fraction(0), Fraction(2)]
    prod = group.m5_matrix_multiply(a, x)
    i = GaussianRational(0, 1)
    z3 = lambda c: MultiPoly.coerce(c[4]) + MultiPoly.coerce(c[5]) * i
    chi = z3(prod) - z3(a) - z3(x)
    # z1_a * z2_x with z1_a = x1 + i y1: holomorphic in the a-coordinates
    assert chi.wirtinger("x1", "y1", conjugate=True).is_zero()


def test_g67_chart_annihilation_example():
    # the classical example: X~_1^- kills phi^2 for J_alpha at alpha = 2
    e = catalogue.get("G6,7")
    rep = e.representative("J_alpha")
    values = {"alpha": Fraction(2)}
    phis = charts.chart_polys(rep, values)
    J = rep.instantiate(values)
    f1 = charts.build_antiholo(e, J, 1)
    assert charts.apply_derivation(f1, phis[1]).is_zero()


def test_real_jacobian_nonzero_at_origin():
    e = catalogue.get("M14+1")
    rep = e.representative("J_pm")
    phis = charts.chart_polys(rep, {"j36": Fraction(1)})
    origin = {c: Fraction(0) for c in group.COORDS}
    assert charts.real_jacobian_det(phis, origin) != 0


def test_chi_skips_only_coordinate_dependent_defs():
    # a def that needs the coordinates is skipped; any other error is a bug
    # in the data and must surface instead of silently dropping the def
    rep = catalogue.get("G6,3").representative("J0")
    values = {}
    phis = charts.chart_polys(rep, values)
    fa = charts._phi_values(phis, [Fraction(1)] * 6)
    fx = charts._phi_values(phis, [Fraction(2)] * 6)
    assert set(charts.chi_corrections(rep, values, fa, fx)) == {2, 3}
    broken = dataclasses.replace(rep, chart=dataclasses.replace(
        rep.chart, defs=rep.chart.defs + (("broken", "1/0"),)))
    with pytest.raises(ZeroDivisionError):
        charts.chi_corrections(broken, values, fa, fx)
    with pytest.raises(ZeroDivisionError):
        charts.chi_depends_on_conjugate(broken, values)


def test_not_annihilated_lists_every_failing_identity():
    # the phi^2 mutation of test_mutation_detected, checked against an
    # independent pass over all 18 identities
    e = catalogue.get("G6,3")
    rep = e.representative("J0")
    phis = list(charts.chart_polys(rep, {}))
    phis[1] = charts.chart_polys(dataclasses.replace(rep, chart=dataclasses.replace(
        rep.chart, phis=(rep.chart.phis[0], "w2 + w1*conj(w1)/4 + conj(w1)^2/8",
                         rep.chart.phis[2]))), {})[1]
    with pytest.raises(charts.NotAnnihilated) as ex:
        charts.verify_chart(e, rep, {}, jacobian_points=1, phis=phis)
    ahf = charts.antiholo_fields(e, rep.instantiate({}))
    expected = [(j, k) for j in range(1, 7) for k in range(1, 4)
                if not charts.apply_derivation(ahf[j - 1], phis[k - 1]).is_zero()]
    assert len(expected) > 1 and ex.value.failing == expected
    assert ex.value.residual == charts.apply_derivation(ahf[expected[0][0] - 1], phis[1])
