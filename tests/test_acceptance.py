"""Acceptance criteria, one test per criterion, at the stated tolerances.

Every check is exact (zero tolerance) except the moduli rank decisions,
which use the prescribed SVD threshold 1e-9 with the two-threshold
stability guard.  Each test prints one summary line; run with

    pytest -v -s tests/test_acceptance.py
"""

import random
import time
from fractions import Fraction

import pytest

from nilcomplex import catalogue, charts, group, moduli, orbits
from nilcomplex.acs import check_m_table, classify_m, is_integrable
from nilcomplex.exactnum import MultiPoly
from nilcomplex.expr import evaluate


def _line(n, text):
    print(f"\n[criterion {n}] {text}")


def test_01_master_integrability_sweep():
    t0 = time.time()
    total = 0
    for e in catalogue.entries():
        for fam in e.families:
            if not fam.samplable:
                continue
            rng = random.Random(10_000 + total)
            for _ in range(100):
                values = fam.random_admissible(rng)
                J = fam.instantiate(values)
                assert J.square_check(), (e.name, fam.name, values)
                assert is_integrable(e.algebra, J), (e.name, fam.name, values)
                total += 1
    dt = time.time() - t0
    _line(1, f"pass: {total} family samples integrable exactly ({dt:.1f}s)")
    # 23 samplable families across the 11 algebras, 100 samples each
    assert total == 2300


def test_02_representative_tables():
    rng = random.Random(2)
    checked = 0
    for e in catalogue.entries():
        for rep in e.representatives:
            values = rep.random_admissible(rng)
            J = rep.instantiate(values)
            assert is_integrable(e.algebra, J), (e.name, rep.name)
            if rep.expected_m:
                assert classify_m(e.algebra, J) == rep.expected_m, (e.name, rep.name)
            if rep.m_table:
                assert check_m_table(e.algebra, J, rep.claimed_m_table(values)), \
                    (e.name, rep.name)
                checked += 1
    _line(2, f"pass: every representative integrable; {checked} bracket "
             "tables match exactly")


def test_03_witnesses():
    e = catalogue.get("G6,3")
    J1 = e.representative("J1").instantiate({})
    J2 = e.representative("J2").instantiate({})
    J0 = e.representative("J0").instantiate({})
    M = [[0, 1, 0, 0, 0, 0], [-1, 0, 0, 0, 0, 0], [0, 0, -1, 0, 0, 0],
         [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 0, -1], [0, 0, 0, 0, 1, 0]]
    assert orbits.verify_witness(e.algebra, J2, J1, M)
    flip = [[1, 0, 0, 0, 0, 0], [0, -1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0],
            [0, 0, 0, -1, 0, 0], [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, -1]]
    assert orbits.verify_witness(e.algebra, J0, -J0, flip)

    assert orbits.m5_case21_relation((-1, 1), (1, -1))  # J0 ~ -J0 on M5
    rep = catalogue.get("M5").representative("J_case21")
    rng = random.Random(3)
    pairs = 0
    while pairs < 20:
        v = rep.random_admissible(rng)
        p = (v["j21"], v["j43"])
        u = Fraction(rng.choice((-1, 1)))
        variants = [(u * p[0], u * p[1]), (u / p[0], u * p[1]),
                    (u * p[1], u / p[0]), (u / p[1], u / p[0])]
        q = variants[rng.randrange(4)]
        assert orbits.m5_case21_relation(p, q), (p, q)
        w = rep.random_admissible(rng)
        q2 = (w["j21"], w["j43"])
        expected = any(orbits.m5_case21_relation(p, alt) for alt in [q2])
        assert orbits.m5_case21_relation(p, q2) == expected
        pairs += 1
    _line(3, "pass: explicit witnesses and M5 case-2.1 predicate on 20 pairs")


def test_04_moduli_dimensions():
    t0 = time.time()
    expected = {"G6,3": 12, "G6,1": 12, "M5": 12, "G6,7": 10, "G6,4": 10,
                "G6,6": 10, "G6,5": 10, "G6,8": 10, "M10": 10,
                "M14+1": 8, "M18+1": 8}
    dims = {}
    for e in catalogue.entries():
        rep = moduli.dimension_report(e, samples=10, tol=1e-9, seed=4,
                                      max_resamples=1)
        assert rep["agree"] == 10, (e.name, rep["tangent_dims"])
        assert all(s["family_rank"] == rep["n_free_params"]
                   and s["family_rank"] <= s["tangent_dim"] <= 36
                   for s in rep["samples"])
        dims[e.name] = rep["tangent_dims"][0]
    assert dims == expected
    _line(4, f"pass: tangent dims {dims} at 10 samples each "
             f"({time.time()-t0:.1f}s)")


def test_05_chart_identities_and_mutations():
    t0 = time.time()
    counted = 0
    for e in catalogue.entries():
        for rep in e.representatives:
            if rep.chart is None:
                continue
            n_inst = 5 if rep.params else 1
            rng = random.Random(5)
            for k in range(n_inst):
                values = rep.random_admissible(
                    rng, extra_conditions=rep.chart.conditions)
                phis = charts.chart_polys(rep, values)
                charts.verify_chart(e, rep, values,
                                    jacobian_points=10 if k == 0 else 2,
                                    phis=phis)
                counted += 18
            # mutation check: one sign flip in phi^2 must be detected
            phis = list(charts.chart_polys(rep, values))
            p = phis[1]
            target = max(p.terms, key=lambda t: sum(t))
            terms = dict(p.terms)
            terms[target] = -terms[target]
            phis[1] = MultiPoly(p.vars, terms)
            with pytest.raises((charts.NotAnnihilated, AssertionError)):
                charts.verify_chart(e, rep, values, jacobian_points=1, phis=phis)
    _line(5, f"pass: {counted} exact annihilation identities; all mutations "
             f"detected ({time.time()-t0:.1f}s)")


def test_06_multiplication_cross_check():
    t0 = time.time()
    for e in catalogue.entries():
        for rep in e.representatives:
            if rep.chart is None:
                continue
            rng = random.Random(6)
            values = rep.random_admissible(rng,
                                           extra_conditions=rep.chart.conditions)
            phis = charts.chart_polys(rep, values)
            charts.verify_chart_multiplication(e, rep, values, pairs=50,
                                               seed=6, phis=phis)
    # M5: engine multiplication agrees with the 3x3 matrix model exactly
    L = catalogue.get("M5").algebra
    rng = random.Random(66)
    for _ in range(50):
        a = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(6)]
        x = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(6)]
        na = group.normal_order(L, group.m5_natural_to_word(a))
        nx = group.normal_order(L, group.m5_natural_to_word(x))
        lhs = group.multiply(L, na, nx)
        rhs = group.normal_order(
            L, group.m5_natural_to_word(group.m5_matrix_multiply(a, x)))
        assert lhs == rhs
    _line(6, "pass: closed-form chart multiplication matches the normal-"
             f"ordering engine at 50 pairs per chart ({time.time()-t0:.1f}s)")


def test_07_left_invariant_fields():
    env = {c: MultiPoly.var(c) for c in group.COORDS}
    for e in catalogue.entries():
        fields = (group.m5_natural_fields() if e.natural_chart
                  else group.left_invariant_fields(e.algebra))
        displayed = dict(e.fields_display)
        for j in range(1, 7):
            if j in displayed:
                claim = [MultiPoly.coerce(evaluate(cell, env))
                         for cell in displayed[j]]
            elif not e.natural_chart:
                claim = [MultiPoly.const(1 if m == j - 1 else 0)
                         for m in range(6)]
            else:
                continue
            for m in range(6):
                assert fields[j - 1][m] == claim[m], (e.name, j, m)
    _line(7, "pass: symbolically derived fields equal the displayed "
             "coordinate forms exactly")


def test_08_nonexistence_spot_checks():
    for name in ("M14-1", "M18-1"):
        report = catalogue.nonexistence_spotcheck(name, samples=20, seed=8)
        assert len(report["samples"]) == 20
        assert report["all_fail"], report
    _line(8, "pass: 20/20 borrowed-family samples fail integrability on "
             "each gamma=-1 twin")


def test_09_group_axioms():
    t0 = time.time()
    for e in catalogue.entries():
        L = e.algebra
        assert L.nilpotency_class() <= 4, e.name
        rng = random.Random(9)
        for _ in range(100):
            a, b, c = ([Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                        for _ in range(6)] for _ in range(3))
            assert group.multiply(L, a, group.multiply(L, b, c)) == \
                group.multiply(L, group.multiply(L, a, b), c)
            assert group.multiply(L, group.inverse(L, a), a) == [0] * 6
    _line(9, f"pass: associativity and inverses exact on 100 triples per "
             f"algebra; class <= 4 everywhere ({time.time()-t0:.1f}s)")
