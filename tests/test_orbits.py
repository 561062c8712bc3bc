import dataclasses
import functools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nilcomplex import acs, catalogue, cli, linalg, orbits
from nilcomplex.acs import AlmostComplexStructure
from nilcomplex.catalogue import DomainViolation
from nilcomplex.exactnum import common_denominator
from nilcomplex.expr import ExprError
from test_linalg import oracle_inverse, oracle_rank

G63_WITNESS_M = [
    [0, 1, 0, 0, 0, 0], [-1, 0, 0, 0, 0, 0], [0, 0, -1, 0, 0, 0],
    [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 0, -1], [0, 0, 0, 0, 1, 0]]

FLIP = [[1, 0, 0, 0, 0, 0], [0, -1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0],
        [0, 0, 0, -1, 0, 0], [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, -1]]

I6 = [[1 if i == j else 0 for j in range(6)] for i in range(6)]

FAMILIES = {f"{e.name}/{fam.name}": (e.algebra, fam)
            for e in catalogue.entries() for fam in e.automorphisms}


def _oracle(L, phi):
    """The oracle of orbits.is_automorphism, its former Fraction loop: rank
    n, and phi[x_i, x_j] = [phi x_i, phi x_j] on every basis pair."""
    n = L.dim
    if isinstance(phi, AlmostComplexStructure):  # a family member, as report passes it
        phi = phi.rows()
    phi = [[Fraction(x) for x in row] for row in phi]
    if len(phi) != n or any(len(r) != n for r in phi):
        return False
    if oracle_rank(phi) < n:
        return False
    cols = [[phi[r][c] for r in range(n)] for c in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            lhs = linalg.mat_vec(phi, L.bracket_basis(i + 1, j + 1))
            rhs = L.bracket(cols[i], cols[j])
            if lhs != rhs:
                return False
    return True


def _agrees(L, phi, seed):
    """The verdicts on phi (a family member as built, or rows) and on phi
    with one entry moved through .m of a member built from its ints (a move
    drawn from its own seed), after asserting that their rows and the
    oracle give the same."""
    rng = random.Random(seed)
    member = phi if isinstance(phi, AlmostComplexStructure) else AlmostComplexStructure(phi)
    mutant = AlmostComplexStructure.from_integers(*acs.integer_point(member, 6), 6)
    step = Fraction(rng.choice((-1, 1)), rng.randint(1, 3))
    mutant.m[rng.randrange(6)][rng.randrange(6)] += step
    verdicts = [orbits.is_automorphism(L, P) for P in (phi, mutant)]
    rows = [[row[:] for row in P.rows()] for P in (member, mutant)]
    assert verdicts == [orbits.is_automorphism(L, P) for P in rows] \
        == [_oracle(L, P) for P in rows], rows
    return verdicts


def test_is_automorphism():
    e = catalogue.get("G6,3")
    assert orbits.is_automorphism(e.algebra, I6)
    rng = random.Random(0)
    aut = e.automorphisms[0]
    phi = aut.instantiate(aut.random_admissible(rng))
    assert orbits.is_automorphism(e.algebra, phi)
    _agrees(e.algebra, phi, 0)
    scrambled = [row[:] for row in phi.rows()]
    scrambled[0][3] = Fraction(7)  # break the derived block structure
    assert not orbits.is_automorphism(e.algebra, scrambled)


def test_the_forms_agree_with_the_oracle_on_the_report_draws():
    # report checks five draws of each family, at seeds 0-4, as built
    mutants = set()
    for name, (L, fam) in FAMILIES.items():
        for seed in range(5):
            phi = fam.instantiate(fam.random_admissible(seed))
            verdict, mutant = _agrees(L, phi, f"{name}/{seed}")
            assert verdict, name
            mutants.add(mutant)
    assert mutants == {True, False}  # a move along a free parameter stays inside


@pytest.mark.parametrize("phi", [
    [[0] * 6 for _ in range(6)],  # preserves every bracket, but of rank 0
    I6[:5],
    [row[:5] for row in I6],
    I6[:5] + [[0, 0, 0, 0, 0, 1, 0]],
], ids=["zero", "five-rows", "five-columns", "ragged"])
def test_a_singular_or_misshapen_matrix_is_no_automorphism(phi):
    for e in catalogue.entries():
        assert not orbits.is_automorphism(e.algebra, phi) and not _oracle(e.algebra, phi)


@pytest.mark.parametrize("where", ["first", "last"])
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_a_perturbed_automorphism_form_fails_a_known_automorphism(monkeypatch, name, where):
    """One coefficient of acs.automorphism_forms(L) moved before compiling,
    at a term that is nonzero at phi: is_automorphism must then refuse phi."""
    L, fam = FAMILIES[name]
    phi = fam.instantiate(fam.random_admissible(0)).m
    assert orbits.is_automorphism(L, phi) and _oracle(L, phi)
    M, D = common_denominator([x for row in phi for x in row])
    point, forms = M + [D], list(acs.automorphism_forms(L))
    moved = [(r, t) for r, (_, terms) in enumerate(forms)
             for t, (p, q, _) in enumerate(terms) if point[p] and point[q]]
    r, t = moved[0 if where == "first" else -1]
    const, terms = forms[r]
    p, q, c = terms[t]
    forms[r] = (const, terms[:t] + ((p, q, c + 1),) + terms[t + 1:])
    monkeypatch.setattr(acs, "automorphism_forms", lambda _: tuple(forms))
    monkeypatch.setattr(orbits, "automorphism_code",
                        functools.cache(acs.automorphism_code.__wrapped__))
    assert not orbits.is_automorphism(L, phi)


def test_the_forms_are_the_nonzero_ones():
    for e in catalogue.entries():
        forms = acs.automorphism_forms(e.algebra)
        assert 42 <= len(forms) <= 70
        assert all(const == 0 and terms for const, terms in forms)


CELLS = st.integers(0, 35)
STEPS = st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2),
                         Fraction(-3, 2)])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(FAMILIES)), st.integers(0, 10 ** 6), CELLS, STEPS)
def test_the_forms_agree_with_the_oracle_on_moved_members(name, seed, cell, step):
    L, fam = FAMILIES[name]
    phi = fam.instantiate(fam.random_admissible(seed)).m
    phi[cell // 6][cell % 6] += step
    assert orbits.is_automorphism(L, phi) == _oracle(L, phi)


def _identity_plus(moves):
    """The identity with small ints added at a few cells."""
    phi = [row[:] for row in I6]
    for cell, step in moves:
        phi[cell // 6][cell % 6] += step
    return phi


SMALL = st.integers(-2, 2)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from([e.algebra for e in catalogue.entries()]),
       st.one_of(st.lists(st.lists(SMALL, min_size=6, max_size=6), min_size=6, max_size=6),
                 st.lists(st.tuples(CELLS, SMALL), max_size=3).map(_identity_plus)))
def test_the_forms_agree_with_the_oracle_on_small_integer_matrices(L, phi):
    assert orbits.is_automorphism(L, phi) == _oracle(L, phi)


def test_act_keeps_the_integer_form_of_a_member():
    e = catalogue.get("G6,3")
    fam, aut = e.families[0], e.automorphisms[0]
    J = fam.instantiate(fam.random_admissible(random.Random(6)))
    stored = J._ints
    rows = AlmostComplexStructure([[Fraction(x) for x in row] for row in J.to_json()])
    member = aut.instantiate(aut.random_admissible(6))
    kept = member._ints
    for phi in (I6, member):
        out = orbits.act(e.algebra, phi, J)
        assert J._ints is stored and member._ints is kept
        assert out == orbits.act(e.algebra, phi, rows)
    # a member acts as its Fraction rows do
    assert orbits.act(e.algebra, member, J) == orbits.act(
        e.algebra, [[Fraction(x) for x in row] for row in member.to_json()], J)
    assert orbits.act(e.algebra, I6, J) == J


def test_the_cli_prints_the_same_with_the_oracle(monkeypatch, capsys, tmp_path):
    e = catalogue.get("G6,3")
    J0, J1, J2 = (e.representative(r).instantiate({}) for r in ("J0", "J1", "J2"))
    aut = e.automorphisms[0]  # the first matrix the search below samples
    found = orbits.act(e.algebra, aut.instantiate(aut.random_admissible(0)).m, J1)

    def strings(matrix):
        return [[str(x) for x in row] for row in matrix]

    files = {"j": J1.to_json(), "flip": strings(FLIP),
             "bad": strings([[1, 1, 0, 0, 0, 0]] + I6[1:]),
             "witness": {"algebra": "G6,3", "J1": J2.to_json(), "J2": J1.to_json(),
                         "phi": strings(G63_WITNESS_M)},
             "wrong": {"algebra": "G6,3", "J1": J1.to_json(), "J2": J2.to_json(),
                       "phi": strings(I6)},
             "pair": {"algebra": "G6,3", "J1": J0.to_json(), "J2": (-J0).to_json()},
             "found": {"algebra": "G6,3", "J1": J1.to_json(), "J2": found.to_json()}}
    for name, doc in files.items():
        files[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    commands = [["report", name, "--json"] for name in ("G6,3", "M5", "M18+1")] + [
        ["act", "--algebra", "G6,3", "--j", files["j"], "--phi", files[phi]]
        for phi in ("flip", "bad")] + [
        ["verify-witness", files[doc]] for doc in ("witness", "wrong")] + [
        ["verify-witness", files[doc], "--search", "40"] for doc in ("pair", "found")]

    def outputs():
        return [(cli.main(argv), capsys.readouterr().out) for argv in commands]

    shipped = outputs()
    assert [code for code, _ in shipped] == [0, 0, 0, 0, 1, 0, 1, 1, 0]
    monkeypatch.setattr(orbits, "is_automorphism", _oracle)
    assert outputs() == shipped


def test_the_search_acts_with_members_as_built(monkeypatch, capsys, tmp_path):
    # the search hands act each automorphism as built, (M, D) and all;
    # through its Fraction rows instead, verify-witness --search prints the same
    e = catalogue.get("G6,3")
    J0, J1 = (e.representative(r).instantiate({}) for r in ("J0", "J1"))
    aut = e.automorphisms[0]
    found = orbits.act(e.algebra, aut.instantiate(aut.random_admissible(0)), J1)
    argv = [["verify-witness", _write_json(tmp_path, name, doc), "--search", "40"]
            for name, doc in (("pair", {"algebra": "G6,3", "J1": J0.to_json(),
                                        "J2": (-J0).to_json()}),
                              ("found", {"algebra": "G6,3", "J1": J1.to_json(),
                                         "J2": found.to_json()}))]
    act, handed = orbits.act, []

    def spy(L, phi, J):
        handed.append(phi)
        return act(L, phi, J)

    def outputs():
        return ([(cli.main(a), capsys.readouterr().out) for a in argv],
                orbits.randomized_equivalence_search(e, J1, found, attempts=40))

    monkeypatch.setattr(orbits, "act", spy)
    shipped = outputs()
    assert handed and all(isinstance(phi, AlmostComplexStructure) and phi._ints is not None
                          for phi in handed)
    assert [code for code, _ in shipped[0]] == [1, 0]
    assert shipped[0][1][1] == "randomized search: equivalent\n"
    assert shipped[1]["status"] == "equivalent"
    monkeypatch.setattr(orbits, "act", lambda L, phi, J: act(
        L, [[Fraction(x) for x in row] for row in phi.to_json()], J))
    assert outputs() == shipped


def _write_json(tmp_path, name, doc):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_act_examples():
    e = catalogue.get("G6,3")
    J1 = e.representative("J1").instantiate({})
    J2 = e.representative("J2").instantiate({})
    J0 = e.representative("J0").instantiate({})
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
    # one elimination of [P | M P] and one run of the bracket forms: act
    # neither puts phi over one denominator again nor takes a second rank
    e = catalogue.get("G6,3")
    J1 = e.representative("J1").instantiate({})
    J2 = e.representative("J2").instantiate({})
    eliminations, brackets = [], []
    rref, preserves = linalg.rref, orbits._preserves_brackets
    monkeypatch.setattr(linalg, "rref", lambda rows: eliminations.append(rows) or rref(rows))
    monkeypatch.setattr(orbits, "_preserves_brackets",
                        lambda L, M, D: brackets.append(M) or preserves(L, M, D))
    assert orbits.verify_witness(e.algebra, J2, J1, G63_WITNESS_M)
    assert (len(eliminations), len(brackets)) == (1, 1)
    # the zero matrix preserves every bracket; the pivots reject it first
    assert not orbits.verify_witness(e.algebra, J2, J1, [[0] * 6 for _ in range(6)])
    assert (len(eliminations), len(brackets)) == (2, 1)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_act_is_the_oracles_conjugation(name):
    e = catalogue.get(name.split("/")[0])
    _, aut = FAMILIES[name]
    fam = next(f for f in e.families if f.samplable)
    for seed in range(3):
        J = fam.instantiate(fam.random_admissible(random.Random(seed)))
        phi = aut.instantiate(aut.random_admissible(random.Random(seed))).m
        want = linalg.mat_mul(oracle_inverse(phi), linalg.mat_mul(J.rows(), phi))
        assert orbits.act(e.algebra, phi, J) == AlmostComplexStructure(want), (name, seed)


@pytest.mark.parametrize("name", [e.name for e in catalogue.entries()])
def test_a_singular_matrix_is_refused_as_singular(name):
    # the zero matrix preserves every bracket, so only its rank rejects it
    e = catalogue.get(name)
    fam = next(f for f in e.families if f.samplable)
    J = fam.instantiate(fam.random_admissible(random.Random(0)))
    with pytest.raises(orbits.NotAutomorphism, match="^matrix is singular$"):
        orbits.act(e.algebra, [[0] * 6 for _ in range(6)], J)


def test_a_misshapen_matrix_is_refused_by_its_shape():
    e = catalogue.get("G6,3")
    J1 = e.representative("J1").instantiate({})
    with pytest.raises(orbits.NotAutomorphism, match="^matrix is not 6x6$"):
        orbits.act(e.algebra, I6[:5], J1)


def test_not_automorphism_raises():
    e = catalogue.get("G6,3")
    J1 = e.representative("J1").instantiate({})
    bad = [[1, 1, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0],
           [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]]
    with pytest.raises(orbits.NotAutomorphism):
        orbits.act(e.algebra, bad, J1)


def not_a_complex_structure(name):
    """A 6x6 J that is no complex structure on G6,3: J^2 != -1, or G6,1's
    J_alpha1, whose J^2 = -1 but which is not integrable on G6,3."""
    if name == "G6,1 J_alpha1":
        return catalogue.get("G6,1").representative("J_alpha1").instantiate({})
    return AlmostComplexStructure({"zero": [[0] * 6 for _ in range(6)], "identity": I6}[name])


@pytest.mark.parametrize("name, error", [
    ("zero", acs.BadSquare), ("identity", acs.BadSquare), ("G6,1 J_alpha1", acs.NotClosed)])
def test_a_j_that_is_no_complex_structure_is_refused(name, error):
    # the action, a witness and the search all start from act's check of J
    e = catalogue.get("G6,3")
    J = not_a_complex_structure(name)
    with pytest.raises(error):
        orbits.act(e.algebra, I6, J)
    with pytest.raises(error):
        orbits.verify_witness(e.algebra, J, J, I6)
    with pytest.raises(error):
        orbits.randomized_equivalence_search(e, J, J, attempts=2)


def test_group_action_composition():
    rng = random.Random(2)
    for name in ("G6,1", "G6,8", "M18"):
        e = catalogue.get(name)
        fam = e.families[0]
        aut = e.automorphisms[0]
        for _ in range(5):
            J = fam.instantiate(fam.random_admissible(rng))
            p1 = aut.instantiate(aut.random_admissible(rng)).m
            p2 = aut.instantiate(aut.random_admissible(rng)).m
            _agrees(e.algebra, p1, f"{name}/{_}/p1")
            _agrees(e.algebra, p2, f"{name}/{_}/p2")
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
            phi = aut.instantiate(v).m
        except DomainViolation:
            continue
        assert orbits.act(e.algebra, phi, J0) == J0
        _agrees(e.algebra, phi, hits)
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
