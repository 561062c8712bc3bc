import dataclasses
import json
import random
from fractions import Fraction

import pytest

from nilcomplex import catalogue, moduli
from nilcomplex.acs import is_integrable
from nilcomplex.catalogue import (DomainViolation, JFamily, ParamSpec,
                                  SamplingExhausted, UnknownAlgebra)


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
    assert len(catalogue.names()) == 11


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


def test_json_dump_load_round_trip():
    doc = json.loads(json.dumps(catalogue.dump_json()))
    rebuilt = catalogue.load_json(doc)
    assert [e.name for e in rebuilt] == catalogue.names()
    rng = random.Random(4)
    for entry in rebuilt:
        orig = catalogue.get(entry.name)
        for fam in entry.families:
            if not fam.samplable:
                continue
            values = fam.random_admissible(rng)
            assert fam.instantiate(values) == orig.family(fam.name).instantiate(values)
        break


def test_nonexistence_spotcheck():
    for name in ("M14-1", "M18-1"):
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
