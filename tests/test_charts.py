import dataclasses
import random
from fractions import Fraction

import pytest

from nilcomplex import catalogue, charts, group, linalg
from nilcomplex.catalogue import Chart, DomainViolation, Representative
from nilcomplex.exactnum import GaussianRational, MultiPoly
from nilcomplex.expr import ExprError


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
    ahf = charts.antiholo_fields(e, J)
    f3 = ahf[2]
    z2 = MultiPoly.var("x2") + MultiPoly.var("y2") * GaussianRational(0, 1)
    assert not charts.apply_derivation(f3, z2)
    res = charts.apply_derivation(f3, z2.conj())
    assert res == MultiPoly.const(2)
    # constants die under every antiholomorphic field
    for fj in ahf:
        assert not charts.apply_derivation(fj, MultiPoly.const(5))


def test_bare_coordinate_is_not_holomorphic_when_w3_mixes():
    # on G6,6 the third chart function involves x3 - i y3, so x3 alone fails
    e = catalogue.get("G6,6")
    J = e.representative("J").instantiate({})
    f5 = charts.antiholo_fields(e, J)[4]
    assert charts.apply_derivation(f5, MultiPoly.var("x3"))


def test_bad_square_rejected():
    from nilcomplex.acs import AlmostComplexStructure, BadSquare
    e = catalogue.get("G6,3")
    I6 = AlmostComplexStructure([[1 if i == j else 0 for j in range(6)]
                                 for i in range(6)])
    with pytest.raises(BadSquare):
        charts.antiholo_fields(e, I6)


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
    assert not chi.wirtinger("x1", "y1", conjugate=True)


def test_g67_chart_annihilation_example():
    # the classical example: X~_1^- kills phi^2 for J_alpha at alpha = 2
    e = catalogue.get("G6,7")
    rep = e.representative("J_alpha")
    values = {"alpha": Fraction(2)}
    phis = charts.chart_polys(rep, values)
    J = rep.instantiate(values)
    f1 = charts.antiholo_fields(e, J)[0]
    assert not charts.apply_derivation(f1, phis[1])


def test_real_jacobian_nonzero_at_origin():
    e = catalogue.get("M14+1")
    rep = e.representative("J_pm")
    phis = charts.chart_polys(rep, {"j36": Fraction(1)})
    origin = {c: Fraction(0) for c in group.COORDS}
    assert linalg.rank(charts.real_jacobian(charts.gradient(phis))(origin)) == 6


def test_verify_chart_hands_the_rank_int_rows(monkeypatch):
    ranked, rank = [], linalg.rank
    monkeypatch.setattr(linalg, "rank", lambda rows: ranked.append(rows) or rank(rows))
    e = catalogue.get("M14+1")
    charts.verify_chart(e, e.representative("J_pm"), {"j36": Fraction(1)}, jacobian_points=3)
    assert len(ranked) == 3 and all(type(x) is int for rows in ranked for row in rows for x in row)


def _term_by_term(p, point):
    """p at point through the ring operations, one term at a time."""
    out = GaussianRational(0)
    for e, c in p.terms.items():
        for v, x in zip(p.vars, e):
            c = c * point[v] ** x
        out = out + c
    return out


def test_the_compiled_jacobian_is_the_gradient_at_each_point():
    # int rows: the Fraction Jacobian times one positive scale
    rng = random.Random(5)
    for rep in (r for e in catalogue.entries() for r in e.representatives if r.chart):
        values = rep.random_admissible(rng, extra_conditions=rep.chart.conditions)
        grads = charts.gradient(charts.chart_polys(rep, values))
        jacobian = charts.real_jacobian(grads)
        for _ in range(2):
            point = {c: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for c in group.COORDS}
            expected = []
            for grad in grads:
                d = [_term_by_term(g, point) for g in grad]
                expected += [[x.re for x in d], [x.im for x in d]]
            rows = jacobian(point)
            assert all(type(x) is int for row in rows for x in row), rep.name
            scale = next(Fraction(x) / y for row, exp in zip(rows, expected)
                         for x, y in zip(row, exp) if y)
            assert scale > 0 and rows == [[y * scale for y in exp] for exp in expected], rep.name


def test_chi_skips_only_coordinate_dependent_defs():
    # a def that needs the coordinates stays out of the chi scope; any other
    # error is a bug in the data and must surface instead of silently
    # dropping the def
    e = catalogue.get("G6,3")
    rep = e.representative("J0")
    values = {}
    _, scope, phis = charts._chart_at(rep, frozenset(values.items()))
    assert [nm for nm, _ in rep.chart.defs if nm not in scope] == ["w1", "w2", "w3"]
    fa = charts._phi_values(phis, [Fraction(1)] * 6)
    fx = charts._phi_values(phis, [Fraction(2)] * 6)
    assert set(charts.chi_corrections(rep.chart, scope, fa, fx)) == {2, 3}
    for bad, error in (("1/0", ZeroDivisionError), ("alpah + 1", ExprError)):
        broken = dataclasses.replace(rep, chart=dataclasses.replace(
            rep.chart, defs=rep.chart.defs + (("broken", bad),)))
        with pytest.raises(error):
            charts.verify_chart_multiplication(e, broken, values, pairs=1, phis=phis)
        with pytest.raises(error):
            charts.chi_depends_on_conjugate(broken, values)


def test_coordinate_dependence_passes_through_defs():
    # u names no coordinate but is built from w1, so it is a coordinate def
    rep = catalogue.get("G6,3").representative("J0")
    chart = dataclasses.replace(rep.chart, defs=rep.chart.defs + (("u", "2*w1"), ("k", "3")))
    _, scope, _ = charts._chart_at(dataclasses.replace(rep, chart=chart), frozenset())
    assert [nm for nm, _ in chart.defs if nm not in scope] == ["w1", "w2", "w3", "u"]
    assert scope["k"] == 3


@pytest.mark.parametrize("algebra, name, values", [
    ("G6,1", "J_alpha", {"alpha": 1}),
    ("M5", "J_case1", {"j13": 0, "j14": 1, "j55": 2, "j65": 3}),
], ids=["G6,1", "M5"])
def test_chart_off_its_domain_is_a_domain_violation(algebra, name, values):
    # the point passes the representative's domain but not the chart's
    e = catalogue.get(algebra)
    rep = e.representative(name)
    rep.instantiate(values)
    with pytest.raises(DomainViolation):
        charts.chart_polys(rep, values)
    with pytest.raises(DomainViolation):
        charts.verify_chart(e, rep, values, jacobian_points=1)


@pytest.mark.parametrize("entry,rep", [(e, r) for e, r in all_chart_reps()],
                         ids=lambda v: getattr(v, "name", None))
def test_residuals_match_the_derivation_oracle(entry, rep):
    # the conjugated chart functions give nonzero residuals to compare too
    values = rep.random_admissible(random.Random(3), extra_conditions=rep.chart.conditions)
    phis = charts.chart_polys(rep, values)
    J = rep.instantiate(values)
    ahf = charts.antiholo_fields(entry, J)
    for polys in (phis, [p.conj() for p in phis]):
        residuals = charts.annihilation_residuals(entry, J, charts.gradient(polys))
        assert residuals == {(j, k): charts.apply_derivation(ahf[j - 1], polys[k - 1])
                             for j in range(1, 7) for k in range(1, 4)}
    assert any(residuals.values())


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
                if charts.apply_derivation(ahf[j - 1], phis[k - 1])]
    assert len(expected) > 1 and ex.value.failing == expected
    assert ex.value.residual == charts.apply_derivation(ahf[expected[0][0] - 1], phis[1])


def test_a_chart_point_is_validated_once(check_domain_calls):
    e = catalogue.get("M10")
    rep = e.representative("J_case1")
    values = rep.random_admissible(0, extra_conditions=rep.chart.conditions)
    check_domain_calls.clear()  # the draw
    charts.verify_chart(e, rep, values, jacobian_points=1)
    assert check_domain_calls == ["J_case1"]
    assert charts.translated_chart_is_holomorphic(e, rep, values, [Fraction(1, 2)] * 6)
    charts.chi_depends_on_conjugate(rep, values)
    assert check_domain_calls == ["J_case1"]


def test_multiplication_checks_at_one_point_validate_it_once(check_domain_calls):
    e = catalogue.get("G6,4")
    rep = e.representative("J_alpha_beta")
    values = rep.random_admissible(1, extra_conditions=rep.chart.conditions)
    check_domain_calls.clear()  # the draw
    for seed in range(5):
        charts.verify_chart_multiplication(e, rep, values, pairs=1, seed=seed)
    assert check_domain_calls == ["J_alpha_beta"]


@pytest.mark.parametrize("entry,rep", [(e, r) for e, r in all_chart_reps()],
                         ids=lambda v: getattr(v, "name", None))
def test_a_changed_chart_is_not_served_from_the_cache(entry, rep):
    # the good point is derived and cached first; a copy of the representative
    # whose phi^2 formula differs is a different key, so both checks fail
    values = rep.random_admissible(random.Random(5), extra_conditions=rep.chart.conditions)
    charts.verify_chart(entry, rep, values, jacobian_points=1)
    charts.verify_chart_multiplication(entry, rep, values, pairs=1)
    phis = rep.chart.phis
    bad = dataclasses.replace(rep, chart=dataclasses.replace(
        rep.chart, phis=(phis[0], f"{phis[1]} + x1^2", phis[2])))
    with pytest.raises(charts.NotAnnihilated):
        charts.verify_chart(entry, bad, values, jacobian_points=1)
    with pytest.raises(charts.Mismatch):
        charts.verify_chart_multiplication(entry, bad, values, pairs=3)


def test_the_chart_polys_list_is_the_callers_own():
    e = catalogue.get("G6,3")
    rep = e.representative("J0")
    phis = charts.chart_polys(rep, {})
    phis[1] = phis[1].conj()
    assert charts.verify_chart(e, rep, {}, jacobian_points=1)["identities"] == 18
    assert charts.chart_polys(rep, {})[1] == phis[1].conj()


@pytest.mark.parametrize("entry,rep", [(e, r) for e, r in all_chart_reps()],
                         ids=lambda v: getattr(v, "name", None))
def test_rational_points_match_the_ring_loop(entry, rep):
    # phi and its gradient at int/Fraction points against the same values
    # bound as GaussianRational, which evaluates term by term
    values = rep.random_admissible(random.Random(4), extra_conditions=rep.chart.conditions)
    phis = charts.chart_polys(rep, values)
    polys = phis + [g for grad in charts.gradient(phis) for g in grad]
    rng = random.Random(20)
    for _ in range(20):
        point = {c: rng.choice([rng.randint(-4, 4), Fraction(rng.randint(-9, 9), rng.randint(1, 9))])
                 for c in group.COORDS}
        ring = {c: GaussianRational(v) for c, v in point.items()}
        assert [p.eval(point) for p in polys] == [p.eval(ring) for p in polys]


@pytest.mark.parametrize("entry,rep", [(e, r) for e, r in all_chart_reps()],
                         ids=lambda v: getattr(v, "name", None))
def test_derived_chi_matches_chi_corrections(entry, rep):
    # chi_corrections evaluated at the phi values is the definition of chi
    values = rep.random_admissible(random.Random(9), extra_conditions=rep.chart.conditions)
    point = frozenset(values.items())
    _, scope, phis = charts._chart_at(rep, point)
    derived = charts._chi_polys(rep, point)
    assert set(derived) == {comp for comp, _ in rep.chart.chi}
    rng = random.Random(10)
    for _ in range(5):
        fa = charts._phi_values(phis, [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(6)])
        fx = charts._phi_values(phis, [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(6)])
        assert charts._chi_values(derived, fa, fx) == charts.chi_corrections(rep.chart, scope, fa, fx)


@pytest.mark.parametrize("entry,rep", [(e, r) for e, r in all_chart_reps()],
                         ids=lambda v: getattr(v, "name", None))
def test_multiplication_mutations_after_chi_is_cached(entry, rep):
    # the good chart point derives and caches chi first; a changed chi formula
    # is a different chart, and phis passed in are always the ones evaluated
    values = rep.random_admissible(random.Random(8), extra_conditions=rep.chart.conditions)
    phis = charts.chart_polys(rep, values)
    charts.verify_chart_multiplication(entry, rep, values, pairs=3, phis=phis)
    comp, formula = rep.chart.chi[-1]
    bad_chi = rep.chart.chi[:-1] + ((comp, f"{formula} + f1a*f1x"),)
    bad = dataclasses.replace(rep, chart=dataclasses.replace(rep.chart, chi=bad_chi))
    with pytest.raises(charts.Mismatch, match=rf"in phi\^{comp} at") as ex:
        charts.verify_chart_multiplication(entry, bad, values, pairs=3, phis=phis)
    assert ex.value.component == comp
    p = phis[1]
    target = max(p.terms, key=lambda t: sum(t))
    terms = dict(p.terms)
    terms[target] = -terms[target]
    flipped = [phis[0], MultiPoly(p.vars, terms), phis[2]]
    with pytest.raises(charts.Mismatch) as ex:
        charts.verify_chart_multiplication(entry, rep, values, pairs=3, phis=flipped)
    assert ex.value.component in (2, 3)
    assert f"in phi^{ex.value.component} at" in str(ex.value)


def test_chi_is_derived_once_per_chart_point():
    e = catalogue.get("G6,4")
    rep = e.representative("J_alpha_beta")
    rng = random.Random(12)
    first = rep.random_admissible(rng, extra_conditions=rep.chart.conditions)
    second = rep.random_admissible(rng, extra_conditions=rep.chart.conditions)
    assert first != second
    charts._chi_polys.cache_clear()
    for seed in range(3):
        charts.verify_chart_multiplication(e, rep, first, pairs=2, seed=seed)
    assert charts.chi_depends_on_conjugate(rep, first)
    info = charts._chi_polys.cache_info()
    assert (info.misses, info.hits) == (1, 3)
    charts.verify_chart_multiplication(e, rep, second, pairs=2)
    info = charts._chi_polys.cache_info()
    assert (info.misses, info.hits) == (2, 3)
    assert info.maxsize is not None
