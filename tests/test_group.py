import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from nilcomplex import catalogue, exactnum, group
from nilcomplex.exactnum import GaussianRational, MultiPoly
from nilcomplex.expr import evaluate
from nilcomplex.liecore import LieAlgebra

fractions = st.fractions(min_value=-5, max_value=5, max_denominator=4)
coords = st.lists(fractions, min_size=6, max_size=6)


def e(i, c=Fraction(1)):
    v = [Fraction(0)] * 6
    v[i - 1] = c
    return v


def brackets_of(name):
    return catalogue.get(name).algebra


class TestCommutatorCorrection:
    def test_commuting(self):
        L = brackets_of("G6,3")
        assert group.commutator_correction(L, e(4), e(5)) == [0] * 6

    def test_g63_basic(self):
        L = brackets_of("G6,3")
        assert group.commutator_correction(L, e(1), e(2)) == e(4)

    def test_m18_depth(self):
        # literal expansion: C = [X,Y] + (1/2)([X,[X,Y]] + [Y,[X,Y]])
        #                      + (1/6)([X,[X,[X,Y]]] + [Y,[Y,[X,Y]]]) + (1/4)[X,[Y,[X,Y]]]
        L = brackets_of("M18")
        X, Y = e(1), e(2)
        br = L.bracket
        xy = br(X, Y)
        expected = [xy[k]
                    + Fraction(1, 2) * (br(X, xy)[k] + br(Y, xy)[k])
                    + Fraction(1, 6) * (br(X, br(X, xy))[k] + br(Y, br(Y, xy))[k])
                    + Fraction(1, 4) * br(X, br(Y, xy))[k]
                    for k in range(6)]
        got = group.commutator_correction(L, X, Y)
        assert got == expected
        # x3 plus corrections in x4, x5 and x6
        assert got[2:] == [1, Fraction(1, 2), Fraction(1, 2), Fraction(1, 3)]

    def test_class_too_high(self):
        filiform = LieAlgebra(6, {(1, 2): {3: 1}, (1, 3): {4: 1},
                                  (1, 4): {5: 1}, (1, 5): {6: 1}})
        assert filiform.nilpotency_class() == 5
        with pytest.raises(group.ClassTooHigh):
            group.commutator_correction(filiform, e(1), e(2))


class TestNormalOrder:
    def test_ordered_word_unchanged(self):
        L = brackets_of("G6,3")
        word = [e(1, Fraction(2)), e(3, Fraction(-1)), e(6, Fraction(5))]
        assert group.normal_order(L, word) == [2, 0, -1, 0, 0, 5]

    def test_swap_example(self):
        # exp(x2) exp(x1) picks up a correction in the y^2 slot
        L = brackets_of("G6,3")
        got = group.normal_order(L, [e(2), e(1)])
        assert got == [1, 1, 0, -1, 0, 0]

    def test_empty_word(self):
        assert group.normal_order(brackets_of("M10"), []) == [0] * 6

    @settings(max_examples=25, deadline=None)
    @given(coords, coords)
    def test_swap_rule_consistency(self, X, Y):
        L = brackets_of("M18")
        C = group.commutator_correction(L, X, Y)
        assert group.normal_order(L, [X, Y]) == group.normal_order(L, [C, Y, X])


class TestMultiply:
    def test_identity(self):
        L = brackets_of("G6,6")
        a = [Fraction(1, 2), 3, -1, 0, 2, 5]
        assert group.multiply(L, [0] * 6, a) == a
        assert group.multiply(L, a, [0] * 6) == a

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            group.multiply(brackets_of("G6,6"), [0] * 5, [0] * 6)

    @settings(max_examples=20, deadline=None)
    @given(coords, coords, coords)
    def test_associativity(self, a, b, c):
        L = brackets_of("M10")
        lhs = group.multiply(L, a, group.multiply(L, b, c))
        rhs = group.multiply(L, group.multiply(L, a, b), c)
        assert lhs == rhs

    @settings(max_examples=20, deadline=None)
    @given(coords)
    def test_inverse(self, a):
        L = brackets_of("G6,5")
        assert group.multiply(L, group.inverse(L, a), a) == [0] * 6

    def test_exp_coords_of_basis_vectors(self):
        L = brackets_of("M18")
        for j in range(1, 7):
            assert group.exp_coords(L, e(j, Fraction(3, 2))) == e(j, Fraction(3, 2))

    def test_exp_coords_consistent_with_flow_composition(self):
        # exp(v) * exp(-v) = identity for general v
        L = brackets_of("M18")
        rng = random.Random(0)
        for _ in range(5):
            v = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(6)]
            c = group.exp_coords(L, v)
            cinv = group.exp_coords(L, [-x for x in v])
            assert group.multiply(L, c, cinv) == [0] * 6


class TestLeftInvariantFields:
    def test_standard_derivations(self):
        for name in ("G6,3", "M10", "M18"):
            F = group.left_invariant_fields(brackets_of(name))
            for j in (3, 4, 5, 6):
                for m in range(6):
                    expected = 1 if m == j - 1 else 0
                    assert F[j - 1][m] == expected

    def test_displayed_fields_all_algebras(self):
        env = {c: MultiPoly.var(c) for c in group.COORDS}
        for entry in catalogue.entries():
            fields = (group.m5_natural_fields() if entry.natural_chart
                      else group.left_invariant_fields(entry.algebra))
            for j, display in entry.fields_display:
                for m, cell in enumerate(display):
                    assert fields[j - 1][m] == MultiPoly.coerce(evaluate(cell, env)), \
                        (entry.name, j, m)


class TestM5Model:
    def test_identity_and_shape(self):
        a = [Fraction(1), 2, 3, 4, 5, 6]
        assert group.m5_matrix_multiply([0] * 6, a) == a
        assert group.m5_matrix_multiply(a, [0] * 6) == a

    def test_chi_closed_form(self):
        # w3_{ax} - w3_a - w3_x = a1*x2 - b1*y2 + ((i - j55)/j65)*(a1*y2 + b1*x2)
        rng = random.Random(1)
        for _ in range(10):
            j55 = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            j65 = Fraction(rng.randint(1, 4), rng.randint(1, 3))
            a = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(6)]
            x = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(6)]
            prod = group.m5_matrix_multiply(a, x)

            def w3(c):
                re = c[4] - j55 / j65 * c[5]
                im = c[5] / j65
                return re, im

            pr, pi = w3(prod)
            ar, ai = w3(a)
            xr, xi = w3(x)
            # chi = a1*x2 - b1*y2 + ((i - j55)/j65)*(a1*y2 + b1*x2)
            s = a[0] * x[3] + a[1] * x[2]
            chi_re = a[0] * x[2] - a[1] * x[3] - j55 / j65 * s
            chi_im = s / j65
            assert (pr - ar - xr, pi - ai - xi) == (chi_re, chi_im)

    @settings(max_examples=20, deadline=None)
    @given(coords, coords)
    def test_model_matches_engine(self, a, x):
        L = brackets_of("M5")
        na = group.normal_order(L, group.m5_natural_to_word(a))
        nx = group.normal_order(L, group.m5_natural_to_word(x))
        lhs = group.multiply(L, na, nx)
        rhs = group.normal_order(
            L, group.m5_natural_to_word(group.m5_matrix_multiply(a, x)))
        assert lhs == rhs


# -- the compiled laws against the normal-ordering collector -----------------

ALGEBRAS = [e.name for e in catalogue.entries()]
A = [MultiPoly.var(f"a{i}") for i in range(6)]
B = [MultiPoly.var(f"b{i}") for i in range(6)]
V = [MultiPoly.var(f"v{i}") for i in range(6)]
LAW_ARGS = {"mul": (A, B), "inv": (A,), "exp": (V,)}
PUBLIC = {"mul": group.multiply, "inv": group.inverse, "exp": group.exp_coords}


def mul_matches_collector(L):
    return group.multiply(L, A, B) == group.collect(L, A, B)


def inverse_is_formal_inverse(L):
    return group.multiply(L, group.inverse(L, A), A) == [0] * 6


def collector_fields(L):
    """The t-linear part of a * exp(t x_j), collected on a formal base point."""
    base = [MultiPoly.var(c) for c in group.COORDS]
    t = MultiPoly.var("t")
    fields = []
    for j in range(6):
        x = [MultiPoly.const(0)] * 6
        x[j] = t
        fields.append([MultiPoly.coerce(p).coefficient_of("t", 1)
                       for p in group.collect(L, base, x)])
    return fields


def exp_solves_flow(L, fields):
    """c(t) = exp(t v) has c(0) = 0 and c'(t) = sum_k v_k X_k(c(t)) exactly,
    which determines it."""
    t = MultiPoly.var("t")
    c = [MultiPoly.coerce(p) for p in group.exp_coords(L, [t * v for v in V])]
    env = dict(zip(group.COORDS, c))
    for m in range(6):
        rhs = MultiPoly.const(0)
        for k in range(6):
            rhs = rhs + MultiPoly.coerce(fields[k][m].eval(env)) * V[k]
        if c[m].coefficient_of("t", 0) != 0 or c[m].partial("t") != rhs:
            return False
    return True


ORACLES = {"mul": mul_matches_collector, "inv": inverse_is_formal_inverse,
           "exp": lambda L: exp_solves_flow(L, collector_fields(L))}


@pytest.mark.parametrize("name", ALGEBRAS)
def test_laws_match_collector(name):
    L = brackets_of(name)
    assert mul_matches_collector(L)
    assert inverse_is_formal_inverse(L)
    fields = collector_fields(L)
    assert group.left_invariant_fields(L) == fields
    assert exp_solves_flow(L, fields)


@pytest.mark.parametrize("law", sorted(ORACLES))
def test_perturbed_law_fails_its_oracle(monkeypatch, law):
    L = brackets_of("M18+1")
    polys, names, _ = getattr(group, "_" + law)(L)
    p = polys[-1]
    e, c = max(p.terms.items())
    bad = polys[:-1] + [MultiPoly(p.vars, {**p.terms, e: c + 1})]
    assert ORACLES[law](L)
    monkeypatch.setattr(group, "_" + law, lambda _: group._compile(bad, names))
    assert not ORACLES[law](L)


def _coordinate(rng, kind):
    """One coordinate: an int, a small or a large fraction, often zero or negative."""
    if rng.random() < 0.2:
        return 0 if kind != "fraction" else Fraction(0)
    if kind == "int" or kind == "mixed" and rng.random() < 0.5:
        return rng.randint(-9, 9)
    den = rng.choice([rng.randint(1, 4), rng.randint(1, 10 ** 6)])
    return Fraction(rng.randint(-10 ** 6, 10 ** 6), den)


def rational_points(seed, count=9):
    """Seeded coordinate tuples of ints, of Fractions and of both, with the
    all-zero tuple first; denominators reach 10^6."""
    rng = random.Random(seed)
    points = [[0] * 6]
    for n in range(count):
        kind = ("int", "fraction", "mixed")[n % 3]
        points.append([_coordinate(rng, kind) for _ in range(6)])
    return points


def integer_law_mismatches(L, seed):
    """(law, arguments) wherever a law's integer code differs from the
    collector or from MultiPoly.eval of its polynomials."""
    bad = []
    points = rational_points(seed)
    for a, x in zip(points, points[1:] + points[:1]):
        for law, args in (("mul", (a, x)), ("inv", (a,)), ("exp", (a,))):
            got = PUBLIC[law](L, *args)
            polys, names, _ = getattr(group, "_" + law)(L)
            env = dict(zip(names, (v for c in args for v in c)))
            # Gaussian values take MultiPoly.eval's generic loop, rational ones its integer sum
            generic = {k: GaussianRational(v) for k, v in env.items()}
            if law == "mul":
                collected = got == group.collect(L, a, x)
            elif law == "inv":  # a^-1 a = a a^-1 = 1
                collected = not any(group.collect(L, got, a) + group.collect(L, a, got))
            else:  # exp(a) = exp(a/2) exp(a/2)
                half = group.exp_coords(L, [Fraction(v, 2) for v in a])
                collected = got == group.collect(L, half, half)
            if not (collected and got == [p.eval(env) for p in polys]
                    == [p.eval(generic) for p in polys]):
                bad.append((law, args))
    return bad


@pytest.mark.parametrize("name", ALGEBRAS)
def test_integer_laws_equal_their_oracles(name):
    L = brackets_of(name)
    assert integer_law_mismatches(L, seed=ALGEBRAS.index(name)) == []
    for law in ("mul", "inv", "exp"):
        assert PUBLIC[law](L, *([0] * 6 for _ in LAW_ARGS[law])) == [0] * 6
        assert all(type(v) is Fraction for v in PUBLIC[law](L, *([1] * 6 for _ in LAW_ARGS[law])))


@pytest.mark.parametrize("name", ALGEBRAS)
def test_formal_coordinates_give_the_law_polynomials(name):
    L = brackets_of(name)
    for law, args in LAW_ARGS.items():
        assert PUBLIC[law](L, *args) == getattr(group, "_" + law)(L)[0]


@pytest.mark.parametrize("length", [5, 7])
@pytest.mark.parametrize("law", sorted(PUBLIC))
def test_every_law_checks_the_length(law, length):
    L = brackets_of("M10")
    for k in range(len(LAW_ARGS[law])):
        args = [[Fraction(1, 2)] * 6 for _ in LAW_ARGS[law]]
        args[k] = [Fraction(1, 2)] * length
        with pytest.raises(ValueError, match="must match the algebra dimension"):
            PUBLIC[law](L, *args)


def test_an_off_by_one_power_of_the_denominator_fails_the_oracle(monkeypatch):
    term = exactnum._term
    monkeypatch.setattr(exactnum, "_term", lambda k, factors, pad: term(k, factors, pad + bool(factors)))
    L = LieAlgebra(6, brackets_of("M18+1").table)  # a fresh algebra: its laws compile here
    bad = integer_law_mismatches(L, seed=0)
    assert {law for law, _ in bad} == {"mul", "inv", "exp"}


def test_a_law_with_an_imaginary_coefficient_is_refused():
    a0 = MultiPoly.var("a0")
    assert group._evaluate(group._compile([a0 * Fraction(1, 2)], ["a0"]), [3]) == [Fraction(3, 2)]
    with pytest.raises(ValueError, match="coefficients must be rational"):
        group._compile([a0 * GaussianRational(1, 2)], ["a0"])


def test_a_law_that_is_not_triangular_is_refused(monkeypatch):
    # exp's flow is solved coordinate by coordinate: it needs triangular fields
    L = LieAlgebra(6, brackets_of("G6,3").table)  # a fresh algebra: nothing derived yet
    fields = [[MultiPoly.const(int(j == m)) for m in range(6)] for j in range(6)]
    fields[1][0] = MultiPoly.var("x1")
    monkeypatch.setattr(group, "left_invariant_fields", lambda L: fields)
    with pytest.raises(ValueError, match="field 2 is not triangular"):
        group.exp_coords(L, [1] * 6)


def test_each_law_is_derived_once():
    L = LieAlgebra(6, brackets_of("M18+1").table)  # a fresh algebra: nothing derived yet
    x = [Fraction(k, 3) for k in range(1, 7)]
    with mock.patch.object(group, "collect", wraps=group.collect) as collect:
        for _ in range(3):
            group.multiply(L, x, x), group.inverse(L, x), group.exp_coords(L, x)
            group.left_invariant_fields(L)
    assert collect.call_count == 1


# -- the swap table against the swap rule ------------------------------------

REGISTRY = {e.name: e.algebra for e in catalogue.entries()}
REGISTRY.update((algebra.name, algebra) for algebra, _ in catalogue._SPOTCHECK.values())
C, R = MultiPoly.var("c"), MultiPoly.var("r")


def swap_table_mismatches(L):
    """Basis pairs (g, k), g > k, where the swap table at formal c, r differs
    from the swap rule C(c x_g, r x_k)."""
    return [(g, k) for g in range(2, L.dim + 1) for k in range(1, g)
            if group._swap_correction(L, g, k, C, R)
            != group.commutator_correction(L, e(g, C), e(k, R))]


def swap_degrees(L):
    """The degrees (i, j) in c, r of the terms of L's swap table."""
    return {ij for rows in group._swap_table(L).values() for terms in rows for ij, _ in terms}


@pytest.mark.parametrize("name", REGISTRY)
def test_the_swap_table_is_the_swap_rule(name):
    assert swap_table_mismatches(REGISTRY[name]) == []


def test_a_mutated_weight_fails_the_swap_table_oracle(monkeypatch):
    halves = {(2, 1), (1, 2)}
    mutated = {}
    for name, L in REGISTRY.items():  # the table with 1/2 turned into 1/3
        mutated[L] = {gk: [[(ij, q * Fraction(2, 3) if ij in halves else q) for ij, q in terms]
                           for terms in rows]
                      for gk, rows in group._swap_table(L).items()}
    monkeypatch.setattr(group, "_swap_table", mutated.__getitem__)
    failing = {name for name, L in REGISTRY.items() if swap_table_mismatches(L)}
    assert failing == {name for name, L in REGISTRY.items() if swap_degrees(L) & halves}
    assert len(failing) == 10


def test_no_algebra_reaches_the_quarter_term_and_only_m18_the_sixths():
    # [x_g, [x_k, [x_g, x_k]]] vanishes on every basis pair of the registry
    degrees = {name: swap_degrees(L) for name, L in REGISTRY.items()}
    assert not any((2, 2) in d for d in degrees.values())
    assert {name for name, d in degrees.items() if d & {(3, 1), (1, 3)}} == {"M18+1", "M18-1"}


@pytest.mark.parametrize("name", REGISTRY)
def test_the_law_is_collected_from_the_swap_table(name):
    L = LieAlgebra(6, REGISTRY[name].table)  # a fresh algebra: nothing derived yet
    seen = set()
    bracket = L.bracket

    def spy(u, v):
        seen.update(map(type, [*u, *v]))
        return bracket(u, v)

    L.bracket = spy
    misses = group._swap_table.cache_info().misses
    with mock.patch.object(group, "commutator_correction") as rule:
        group.multiply(L, A, B)
    assert group._swap_table.cache_info().misses == misses + 1
    assert rule.call_count == 0 and seen == {Fraction}
