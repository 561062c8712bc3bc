import dataclasses
import random
from fractions import Fraction

import pytest

from nilcomplex import catalogue, linalg, orbits
from nilcomplex.catalogue import DomainViolation
from nilcomplex.expr import ExprError

G63_WITNESS_M = [
    [0, 1, 0, 0, 0, 0], [-1, 0, 0, 0, 0, 0], [0, 0, -1, 0, 0, 0],
    [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 0, -1], [0, 0, 0, 0, 1, 0]]

FLIP = [[1, 0, 0, 0, 0, 0], [0, -1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0],
        [0, 0, 0, -1, 0, 0], [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, -1]]


def test_is_automorphism():
    e = catalogue.get("G6,3")
    I6 = [[1 if i == j else 0 for j in range(6)] for i in range(6)]
    assert orbits.is_automorphism(e.algebra, I6)
    rng = random.Random(0)
    aut = e.automorphisms[0]
    phi = aut.instantiate_matrix(aut.random_admissible(rng))
    assert orbits.is_automorphism(e.algebra, phi)
    scrambled = [row[:] for row in phi]
    scrambled[0][3] = Fraction(7)  # break the derived block structure
    assert not orbits.is_automorphism(e.algebra, scrambled)


def test_catalogue_automorphism_families():
    rng = random.Random(1)
    for e in catalogue.entries():
        for fam in e.automorphisms:
            for _ in range(4):
                phi = fam.instantiate_matrix(fam.random_admissible(rng))
                assert orbits.is_automorphism(e.algebra, phi), (e.name, fam.name)


def test_act_examples():
    e = catalogue.get("G6,3")
    J1 = e.representative("J1").instantiate({})
    J2 = e.representative("J2").instantiate({})
    J0 = e.representative("J0").instantiate({})
    I6 = [[1 if i == j else 0 for j in range(6)] for i in range(6)]
    assert orbits.act(e.algebra, I6, J1) == J1
    # the explicit equivalence J2 -> J1
    assert orbits.act(e.algebra, G63_WITNESS_M, J2) == J1
    assert orbits.verify_witness(e.algebra, J2, J1, G63_WITNESS_M)
    # conjugation to the opposite structure
    assert orbits.act(e.algebra, FLIP, J0) == -J0
    # identity witness and mismatched witness
    assert orbits.verify_witness(e.algebra, J1, J1, I6)
    assert not orbits.verify_witness(e.algebra, J1, J2, I6)


def test_verify_witness_checks_the_automorphism_once(monkeypatch):
    e = catalogue.get("G6,3")
    J1 = e.representative("J1").instantiate({})
    J2 = e.representative("J2").instantiate({})
    calls = []
    check = orbits.is_automorphism

    def counted(L, phi):
        calls.append(phi)
        return check(L, phi)

    monkeypatch.setattr(orbits, "is_automorphism", counted)
    assert orbits.verify_witness(e.algebra, J2, J1, G63_WITNESS_M)
    assert len(calls) == 1
    # the zero matrix preserves every bracket; only its rank rejects it
    assert not orbits.verify_witness(e.algebra, J2, J1, [[0] * 6 for _ in range(6)])
    assert len(calls) == 2


def test_not_automorphism_raises():
    e = catalogue.get("G6,3")
    J1 = e.representative("J1").instantiate({})
    bad = [[1, 1, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0],
           [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]]
    with pytest.raises(orbits.NotAutomorphism):
        orbits.act(e.algebra, bad, J1)


def test_group_action_composition():
    rng = random.Random(2)
    for name in ("G6,1", "G6,8", "M18"):
        e = catalogue.get(name)
        fam = e.families[0]
        aut = e.automorphisms[0]
        for _ in range(5):
            J = fam.instantiate(fam.random_admissible(rng))
            p1 = aut.instantiate_matrix(aut.random_admissible(rng))
            p2 = aut.instantiate_matrix(aut.random_admissible(rng))
            lhs = orbits.act(e.algebra, p2, orbits.act(e.algebra, p1, J))
            rhs = orbits.act(e.algebra, linalg.mat_mul(p1, p2), J)
            assert lhs == rhs


def test_orbit_invariants():
    e = catalogue.get("G6,7")
    J = e.representative("J_alpha").instantiate({"alpha": Fraction(2)})
    inv = orbits.orbit_invariants(e, J)
    assert inv == {"m": "heisenberg", "representative": "J_alpha",
                   "params": {"alpha": Fraction(2)}}
    m10 = catalogue.get("M10")
    J = m10.representative("J_case21").instantiate(
        {"j21": Fraction(1), "j65": Fraction(1, 2)})
    inv = orbits.orbit_invariants(m10, J)
    assert inv["m"] == "abelian"
    assert inv["params"] == {"j21": Fraction(1), "j65": Fraction(1, 2)}
    # a family point is generally not in canonical form
    rng = random.Random(3)
    fam = m10.families[0]
    Jf = fam.instantiate(fam.random_admissible(rng))
    inv = orbits.orbit_invariants(m10, Jf)
    assert inv["representative"] is None and "params" not in inv


def test_g61_abelian_not_confused_with_j_alpha():
    e = catalogue.get("G6,1")
    J = e.representative("J_abelian").instantiate({})
    inv = orbits.orbit_invariants(e, J)
    assert inv["m"] == "abelian" and inv["representative"] == "J_abelian"


def test_m10_equivalence_relation():
    p = (Fraction(1, 2), Fraction(2), Fraction(3))
    assert orbits.m10_equivalence_relation(p, p)
    assert not orbits.m10_equivalence_relation(p, (Fraction(1), Fraction(2), Fraction(3)))
    with pytest.raises(DomainViolation):
        orbits.m10_equivalence_relation((Fraction(2), 0, 1), p)


def test_m5_case21_relation():
    # J0 ~ -J0
    assert orbits.m5_case21_relation((-1, 1), (1, -1))
    # reciprocal in the first slot
    assert orbits.m5_case21_relation((Fraction(1, 2), 3), (2, 3))
    # swap + sign
    assert orbits.m5_case21_relation((Fraction(1, 2), 3), (-3, -2))
    assert not orbits.m5_case21_relation((Fraction(1, 2), 3), (2, 5))
    with pytest.raises(DomainViolation):
        orbits.m5_case21_relation((1, 1), (2, 3))


def test_m5_case21_relation_sampled_pairs():
    rng = random.Random(4)
    rep = catalogue.get("M5").representative("J_case21")
    for _ in range(20):
        v = rep.random_admissible(rng)
        p = (v["j21"], v["j43"])
        u = Fraction(rng.choice((-1, 1)))
        q = (u / p[0], u * p[1])
        assert orbits.m5_case21_relation(p, q)
        assert orbits.m5_case21_relation(p, (u * p[1], u / p[0]))


def test_m5_complex_subgroup_fixes_canonical_structure():
    e = catalogue.get("M5")
    J0 = e.representative("J0").instantiate({})
    aut = e.automorphisms[0]
    rng = random.Random(5)
    hits = 0
    while hits < 8:
        v = aut.random_admissible(rng)
        v["u"] = Fraction(-1)
        v["b62"] = -v["b51"]
        v["b52"] = v["b61"]
        v["b64"] = v["b53"]
        v["b54"] = -v["b63"]
        try:
            phi = aut.instantiate_matrix(v)
        except DomainViolation:
            continue
        assert orbits.act(e.algebra, phi, J0) == J0
        hits += 1


def test_randomized_search():
    e = catalogue.get("G6,3")
    J0 = e.representative("J0").instantiate({})
    found = orbits.randomized_equivalence_search(e, J0, -J0, seed=0, attempts=150)
    # -J0 is in the orbit; the sampler may or may not hit a witness, but a
    # claimed witness must verify, and no claim of inequivalence is allowed
    assert found["status"] in ("equivalent", "inconclusive")
    if found["status"] == "equivalent":
        phi = [[Fraction(x) for x in row] for row in found["witness"]]
        assert orbits.verify_witness(e.algebra, J0, -J0, phi)
    e7 = catalogue.get("G6,7")
    J2 = e7.representative("J_alpha").instantiate({"alpha": Fraction(2)})
    J3 = e7.representative("J_alpha").instantiate({"alpha": Fraction(3)})
    assert orbits.randomized_equivalence_search(
        e7, J2, J3, seed=0, attempts=60)["status"] == "inconclusive"


def test_randomized_search_propagates_non_domain_errors():
    # an exhausted sampler ends the search as "inconclusive", but a broken
    # family (here a condition with an unbound symbol) is a bug, not a verdict
    e = catalogue.get("G6,3")
    J0 = e.representative("J0").instantiate({})
    fam = e.automorphisms[0]
    broken = dataclasses.replace(fam, conditions=fam.conditions + ("no_such_symbol",))
    with pytest.raises(ExprError):
        orbits.randomized_equivalence_search(
            dataclasses.replace(e, automorphisms=(broken,)), J0, -J0, attempts=5)


@pytest.mark.parametrize("predicate, algebra, rep, names, point", [
    (orbits.m10_equivalence_relation, "M10", "J_case1", ("j21", "j33", "j43"),
     (Fraction(1, 2), 1, Fraction(1, 2))),                        # j21 = j43
    (orbits.m5_case21_relation, "M5", "J_case21", ("j21", "j43"), (2, 2)),  # j21 = j43
    (orbits.m5_case21_relation, "M5", "J_case21", ("j21", "j43"),
     (2, Fraction(1, 2))),                                         # j43*j21 = 1
], ids=["m10-j21=j43", "m5-j21=j43", "m5-j43*j21=1"])
def test_predicate_and_representative_share_a_domain(predicate, algebra, rep, names, point):
    member = catalogue.get(algebra).representative(rep)
    inside = point[:-1] + (point[-1] + Fraction(1, 7),)
    member.check_domain(dict(zip(names, map(Fraction, inside))))
    assert predicate(inside, inside)
    with pytest.raises(DomainViolation):
        member.check_domain(dict(zip(names, map(Fraction, point))))
    for pair in ((point, inside), (inside, point)):
        with pytest.raises(DomainViolation):
            predicate(*pair)
