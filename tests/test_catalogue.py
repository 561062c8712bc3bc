import dataclasses
import random
from fractions import Fraction

import pytest

from nilcomplex import catalogue, exactnum, expr, moduli
from nilcomplex.acs import integer_point, is_integrable
from nilcomplex.catalogue import (DomainViolation, JFamily, ParamSpec,
                                  SamplingExhausted, UnknownAlgebra)
from nilcomplex.exactnum import common_denominator


def test_get_and_aliases():
    assert catalogue.get("G6,3") is catalogue.get("M3")
    assert catalogue.get("g6_3") is catalogue.get("G6,3")
    assert catalogue.get("M14+1") is catalogue.get("m14_1")
    entry = catalogue.get("M5")
    assert entry.algebra.table[(2, 3)] == {6: Fraction(-1)}


def test_unknown_algebra():
    with pytest.raises(UnknownAlgebra):
        catalogue.get("M14-1")
    with pytest.raises(UnknownAlgebra):
        catalogue.get("M2")


def test_eleven_entries():
    assert len(catalogue.entries()) == 11


def test_every_continuous_parameter_is_a_cell_up_to_sign():
    # so d(entries)/d(params) has a +-identity minor: the family rank is the
    # parameter count at every admissible point
    families = [f for e in catalogue.entries() for f in e.families if f.samplable]
    for fam in families:
        cells = {cell.replace(" ", "") for row in fam.entries for cell in row}
        for p in fam.continuous_params():
            assert p in cells or "-" + p in cells, (fam.name, p)
            assert p not in dict(fam.defs), (fam.name, p)
        assert moduli.family_rank(fam) == len(fam.continuous_params()), fam.name
    assert len(families) == 23


def _sampled_members():
    """Every member random_admissible can draw from, with the extra
    conditions to draw under: samplable families, automorphism families,
    and representatives with and without their chart conditions."""
    for e in catalogue.entries():
        for f in e.families:
            if f.samplable:
                yield f, ()
        for a in e.automorphisms:
            yield a, ()
        for r in e.representatives:
            yield r, ()
            if r.chart is not None and r.chart.conditions:
                yield r, r.chart.conditions


def _undefined_entries(member, extra=(), draws=20, seed=0):
    """Draws that pass check_domain but whose entries do not evaluate."""
    rng = random.Random(seed)
    bad = []
    for _ in range(draws):
        values = member.random_admissible(rng, extra_conditions=extra)
        try:
            member.instantiate(values)
        except DomainViolation as err:
            bad.append((values, str(err)))
    return bad


def test_entries_are_defined_wherever_the_domain_holds():
    # random_admissible only checks the domain; the entries must then evaluate
    members = list(_sampled_members())
    assert len(members) == 62
    for member, extra in members:
        assert _undefined_entries(member, extra) == [], (member.name, extra)


def test_an_entry_undefined_on_the_domain_is_caught():
    fam = catalogue.get("G6,3").family("case-rest")
    assert not any("j11" in c for c in fam.conditions)
    rows = [list(r) for r in fam.entries]
    rows[0][5] = "1/j11"
    mutant = dataclasses.replace(fam, entries=tuple(tuple(r) for r in rows))
    bad = _undefined_entries(mutant)
    assert bad and all(v["j11"] == 0 and "1/j11" in msg for v, msg in bad)


def _integer_mismatches(members, draws, seed=0):
    """Entries whose integer form differs from the generic evaluation at
    seeded admissible points of the members, and the entries compared; a
    member whose (M, D) is not that of the generic Fractions is named too."""
    bad, compared = [], 0
    for member in members:
        rng = random.Random(f"{seed}:{member.name}")
        for _ in range(draws):
            env = member.check_domain(member.random_admissible(rng))
            J = member.matrix(env)
            generic = [catalogue._as_real(expr.evaluate(cell, env))
                       for row in member.entries for cell in row]
            if integer_point(J, len(member.entries)) != common_denominator(generic):
                bad.append((member.name, "integer_point"))
            for r, row in enumerate(member.entries):
                for c, cell in enumerate(row):
                    compared += 1
                    if J[r + 1, c + 1] != generic[r * len(row) + c]:
                        bad.append((member.name, cell))
    return bad, compared


def _all_matrix_members():
    for e in catalogue.entries():
        yield from (f for f in e.families if f.samplable)
        yield from e.representatives
        yield from e.automorphisms


def test_integer_entries_equal_the_generic_evaluation():
    members = list(_all_matrix_members())
    kinds = {p.kind for m in members for p in m.params}
    assert len(members) == 60 and kinds == {"rational", "unit", "pm_one"}
    bad, compared = _integer_mismatches(members, draws=6)
    assert bad == [] and compared == 60 * 6 * 36


def test_every_catalogued_entry_has_an_integer_form():
    # matrix has no other path, so no entry may use i (the metadata-only
    # family included)
    cells = {cell for e in catalogue.entries()
             for m in e.families + e.representatives + e.automorphisms
             for row in m.entries for cell in row}
    assert len(cells) == 452
    for cell in cells:
        expr._compile_ints(cell)


def test_an_off_by_one_power_of_the_denominator_fails_the_oracle(monkeypatch):
    scaled = expr._scaled
    monkeypatch.setattr(expr, "_scaled", lambda p, k: scaled(p, k + 1 if k else 0))
    expr._compile_ints.cache_clear()
    try:
        bad, _ = _integer_mismatches(catalogue.get("G6,3").families, draws=3)
    finally:
        expr._compile_ints.cache_clear()
    assert bad


def _unreduced(pairs):
    return exactnum._over_lcm(list(pairs))


def _sign_dropped(pairs):
    return exactnum.reduced_common_denominator([(p, abs(q)) for p, q in pairs])


@pytest.mark.parametrize("helper", [None, _unreduced, _sign_dropped],
                         ids=["reduced", "unreduced", "sign-dropped"])
def test_a_negative_denominator_over_the_reduced_lcm(monkeypatch, helper):
    # 1/(a - b) at a = 1/2, b = 5/6 is the pair (6, -2) over D = 6, and
    # b - a is (2, 6): reduced, the member is (-9, 1, 0, 3)/3, unreduced
    # its D is 6, and a dropped sign turns -3 into 3
    toy = JFamily(name="toy", params=(ParamSpec("a"), ParamSpec("b")),
                  entries=(("1/(a - b)", "b - a"), ("0", "1")))
    env = toy.check_domain({"a": Fraction(1, 2), "b": Fraction(5, 6)})
    assert expr.evaluate_ints("1/(a - b)", expr.over_one_denominator(env)) == (6, -2)
    if helper:
        monkeypatch.setattr(catalogue, "reduced_common_denominator", helper)
    J = toy.matrix(env)
    ok = (integer_point(J, 2) == ([-9, 1, 0, 3], 3)
          and J.m == [[Fraction(-3), Fraction(1, 3)], [0, 1]])
    assert ok == (helper is None)


@pytest.mark.parametrize("cell", ["1/(a - a/(a - a))", "(a - 1)^-2", "a/((a - 1)^-1)"])
def test_an_entry_with_a_zero_divisor_is_named(cell):
    fam = JFamily(name="toy", params=(ParamSpec("a"),), entries=(("a", cell), ("1", "a")))
    with pytest.raises(DomainViolation) as err:
        fam.instantiate({"a": Fraction(1)})
    assert str(err.value) == f"toy: entry {cell} undefined here"


def test_sample_family_g67():
    e = catalogue.get("G6,7")
    fam = e.families[0]
    values = {p: Fraction(0) for p in fam.param_names()}
    values.update({"j12": Fraction(1), "j34": Fraction(2)})
    J = fam.instantiate(values)
    assert is_integrable(e.algebra, J)


def test_rep_domain_violation():
    e = catalogue.get("G6,7")
    rep = e.representative("J_alpha")
    with pytest.raises(DomainViolation):
        rep.instantiate({"alpha": Fraction(1)})
    with pytest.raises(DomainViolation):
        rep.instantiate({"alpha": Fraction(0)})


def test_family_domain_violation_named():
    e = catalogue.get("M10")
    fam = e.family("case-1")
    values = {p: Fraction(1, 2) for p in fam.param_names()}
    values["j43"] = values["j21"]
    with pytest.raises(DomainViolation) as err:
        fam.instantiate(values)
    assert "j21" in str(err.value)


def test_random_admissible_predicates():
    rng = random.Random(1)
    fam = catalogue.get("G6,3").family("case-xi16")
    values = fam.random_admissible(rng)
    assert values["j16"] != 0
    assert values["j46"] * values["j26"] + values["j45"] * values["j16"] != 0


def test_random_admissible_unit_interval():
    rng = random.Random(2)
    rep = catalogue.get("M5").representative("J_abelian")
    for _ in range(20):
        v = rep.random_admissible(rng)
        assert 0 < v["beta"] <= 1


def test_sampling_exhausted():
    fam = JFamily(name="impossible", params=(ParamSpec("t"),),
                  entries=tuple(tuple("0" for _ in range(6)) for _ in range(6)),
                  conditions=("t - t",))
    with pytest.raises(SamplingExhausted):
        fam.random_admissible(random.Random(0), attempts=50)


def test_metadata_only_family():
    fam = catalogue.get("M5").family("case-xi21-xi24")
    assert not fam.samplable
    with pytest.raises(SamplingExhausted):
        fam.random_admissible(random.Random(0))


def test_pm_one_kind():
    rng = random.Random(3)
    fam = catalogue.get("M14+1").families[0]
    for _ in range(10):
        assert fam.random_admissible(rng)["j21"] in (1, -1)


def test_nonexistence_spotcheck():
    names = catalogue.spotcheck_names()
    assert names == [name for name, _, _ in catalogue._data.SPOTCHECKS] == ["M14-1", "M18-1"]
    for name in names:
        rep = catalogue.nonexistence_spotcheck(name, samples=6, seed=0)
        assert rep["all_fail"]
        assert len(rep["samples"]) == 6
    # and the same structures pass on the +1 twins (consistency)
    rng = random.Random(0)
    fam = catalogue.get("M14+1").families[0]
    L = catalogue.get("M14+1").algebra
    for _ in range(6):
        J = fam.instantiate(fam.random_admissible(rng))
        assert is_integrable(L, J)


def test_random_admissible_validates_once_per_attempt(monkeypatch):
    fam = JFamily(name="toy", params=(ParamSpec("a"), ParamSpec("s", "pm_one")),
                  entries=(("a", "s / a"), ("1", "s")), conditions=("a",))
    calls = []
    check_domain = catalogue.MatrixFamily.check_domain

    def counted(self, values, extra_conditions=()):
        calls.append(dict(values))
        return check_domain(self, values, extra_conditions)

    monkeypatch.setattr(catalogue.MatrixFamily, "check_domain", counted)
    # s + 1 != 0 rejects s = -1; every rejected draw is one attempt
    values = fam.random_admissible(random.Random(5), extra_conditions=("s + 1",))
    assert values["s"] == 1
    assert calls[-1] == values
    assert len(calls) > 1 and all(c["s"] == -1 or c["a"] == 0 for c in calls[:-1])
    del calls[:]
    with pytest.raises(SamplingExhausted):
        fam.random_admissible(random.Random(5), attempts=7, extra_conditions=("a - a",))
    assert len(calls) == 7


def test_each_sampled_member_is_validated_once(check_domain_calls):
    # the draw runs check_domain once per attempt; instantiating the draw,
    # or reading a representative's claimed table at it, runs it no more
    tables = 0
    for member, extra in _sampled_members():
        rng = random.Random(member.name)
        for _ in range(3):
            values = member.random_admissible(rng, extra_conditions=extra)
            drawn = len(check_domain_calls)
            member.instantiate(values)
            if getattr(member, "m_table", ()):
                tables += bool(member.claimed_m_table(values))
            assert len(check_domain_calls) == drawn and drawn > 0, member.name
        check_domain_calls.clear()
    assert tables > 0
    fam = catalogue.get("G6,3").families[0]
    fam.instantiate(fam.random_admissible(random.Random(0)))
    assert check_domain_calls == [fam.name]  # admissible at the first attempt


def _violation(fam, values) -> str:
    with pytest.raises(DomainViolation) as err:
        fam.instantiate(values)
    return str(err.value)


CASE_1_CONDITION = "j21*j43*(j21 - j43)"


def test_a_mutated_draw_is_validated_again(check_domain_calls):
    fam = catalogue.get("M10").family("case-1")
    values = fam.random_admissible(random.Random(0))
    values["j43"] = values["j21"]
    check_domain_calls.clear()
    assert _violation(fam, values) == f"case-1: condition {CASE_1_CONDITION} != 0 violated"
    assert check_domain_calls == ["case-1"]
    assert _violation(fam, values) == _violation(fam, dict(values))


def test_a_draw_moved_inside_the_domain_gives_the_moved_member():
    fam = catalogue.get("M10").family("case-1")
    values = fam.random_admissible(random.Random(0))
    before = fam.instantiate(values)
    values["j11"] += 1
    assert fam.instantiate(values) == fam.instantiate(dict(values)) != before


def test_a_merged_draw_is_validated_again(check_domain_calls):
    fam = catalogue.get("M10").family("case-1")
    values = fam.random_admissible(random.Random(0))
    merged = {**values, "j21": Fraction(0)}
    check_domain_calls.clear()
    assert _violation(fam, merged) == f"case-1: condition {CASE_1_CONDITION} != 0 violated"
    assert check_domain_calls == ["case-1"]
    # a merge that changes nothing is still a plain dict, and is validated
    assert fam.instantiate({**values}) == fam.instantiate(values)
    assert check_domain_calls == ["case-1", "case-1"]


def test_a_draw_handed_to_another_family_is_validated_again(check_domain_calls):
    fam = catalogue.get("M10").family("case-1")
    values = fam.random_admissible(random.Random(0))
    cond = f"j21 - ({exactnum.rational_str(values['j21'])})"  # zero at this draw
    mutant = dataclasses.replace(fam, conditions=fam.conditions + (cond,))
    check_domain_calls.clear()
    assert _violation(mutant, values) == f"case-1: condition {cond} != 0 violated"
    # an equal family is another object: it validates the draw too
    twin = dataclasses.replace(fam)
    assert twin == fam and twin.instantiate(values) == fam.instantiate(values)
    assert check_domain_calls == ["case-1", "case-1"]


@pytest.mark.parametrize("kind", ["rational", "pm_one", "unit"])
def test_a_sampled_value_is_the_fraction_of_the_same_draws(kind):
    spec = ParamSpec("t", kind)
    if kind == "rational":
        def oracle(rng):
            return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    elif kind == "pm_one":
        def oracle(rng):
            return Fraction(rng.choice((-1, 1)))
    else:
        def oracle(rng):
            den = rng.randint(1, 9)
            return Fraction(rng.randint(1, den), den)
    rng, twin = random.Random(kind), random.Random(kind)
    values = [spec.sample(rng) for _ in range(2000)]
    assert values == [oracle(twin) for _ in range(2000)]
    assert all(type(v) is Fraction for v in values)
    assert rng.getstate() == twin.getstate()
    reach = {"rational": {Fraction(p, q) for p in range(-9, 10) for q in range(1, 10)},
             "pm_one": {Fraction(1), Fraction(-1)},
             "unit": {Fraction(p, q) for q in range(1, 10) for p in range(1, q + 1)}}
    assert set(values) == reach[kind]  # every value of the kind is drawn
