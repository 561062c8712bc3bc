import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from nilcomplex import acs, exactnum
from nilcomplex.exactnum import (GaussianRational, MultiPoly, common_denominator, rational_str,
                                 reduced_common_denominator)

X = MultiPoly.var("x")
Y = MultiPoly.var("y")
I = GaussianRational(0, 1)


class NaivePoly:
    """The oracle: a dict from exponent tuples to GaussianRational
    coefficients, with schoolbook arithmetic, term by term."""

    def __init__(self, vars, terms):
        self.vars = tuple(vars)
        self.terms = {tuple(e): c for e, c in terms.items() if c}

    @staticmethod
    def of(p: MultiPoly) -> "NaivePoly":
        return NaivePoly(p.vars, dict(p.terms))

    def on_vars(self, vs):
        pos = {v: i for i, v in enumerate(vs)}
        terms = {}
        for e, c in self.terms.items():
            ee = [0] * len(vs)
            for v, x in zip(self.vars, e):
                ee[pos[v]] = x
            terms[tuple(ee)] = c
        return NaivePoly(vs, terms)

    def aligned(self, other):
        vs = tuple(sorted(set(self.vars) | set(other.vars)))
        return self.on_vars(vs), other.on_vars(vs)

    def __add__(self, other):
        p, q = self.aligned(other)
        terms = dict(p.terms)
        for e, c in q.terms.items():
            terms[e] = terms.get(e, GaussianRational(0)) + c
        return NaivePoly(p.vars, terms)

    def __mul__(self, other):
        p, q = self.aligned(other)
        terms = {}
        for e1, c1 in p.terms.items():
            for e2, c2 in q.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, GaussianRational(0)) + c1 * c2
        return NaivePoly(p.vars, terms)

    def scaled(self, c):
        return NaivePoly(self.vars, {e: k * c for e, k in self.terms.items()})

    def __eq__(self, other):
        p, q = self.aligned(other)
        return p.terms == q.terms

    def partial(self, var):
        if var not in self.vars:
            return NaivePoly(self.vars, {})
        i = self.vars.index(var)
        terms = {}
        for e, c in self.terms.items():
            if e[i]:
                terms[e[:i] + (e[i] - 1,) + e[i + 1:]] = c * e[i]
        return NaivePoly(self.vars, terms)

    def wirtinger(self, x_var, y_var, conjugate=False):
        s = I if conjugate else -I
        return (self.partial(x_var) + self.partial(y_var).scaled(s)).scaled(Fraction(1, 2))

    def eval(self, env):
        """Each term as a repeated product; with a NaivePoly among the
        values, every value and coefficient is lifted to a constant one."""
        poly = any(isinstance(x, NaivePoly) for x in env.values())

        def lift(x):
            return NaivePoly((), {(): x}) if poly and not isinstance(x, NaivePoly) else x

        out = lift(GaussianRational(0))
        for e, c in self.terms.items():
            term = lift(c)
            for v, x in zip(self.vars, e):
                for _ in range(x):
                    term = term * lift(env[v])
            out = out + term
        return out

    def __repr__(self):
        if not self.terms:
            return "MultiPoly(0)"
        return " + ".join(
            f"({c!r})" + "".join(f"*{v}^{x}" if x > 1 else f"*{v}" for v, x in zip(self.vars, e) if x)
            for e, c in sorted(self.terms.items()))


def agree(p: MultiPoly, naive: NaivePoly) -> bool:
    """p is the oracle's value over the same variables, structurally: the
    same store as the constructor builds from the oracle's terms."""
    built = MultiPoly(naive.vars, naive.terms)
    return p.vars == naive.vars and p == built and repr(p) == repr(naive)

fractions = st.fractions(min_value=-9, max_value=9, max_denominator=9)
gaussians = st.builds(GaussianRational, fractions, fractions)


def poly_strategy(var_names=("x", "y", "z")):
    mono = st.tuples(*[st.integers(min_value=0, max_value=3)] * len(var_names))
    return st.dictionaries(mono, gaussians, max_size=4).map(
        lambda terms: MultiPoly(tuple(sorted(var_names)), terms))


polys = poly_strategy()


class TestGaussianRational:
    def test_field_ops(self):
        a = GaussianRational(Fraction(1, 2), Fraction(-3))
        b = GaussianRational(2, Fraction(1, 5))
        assert (a + b) - b == a
        assert (a * b) / b == a
        assert a * (GaussianRational(1) / a) == GaussianRational(1)

    def test_modulus_identity(self):
        # (x + iy)(x - iy) = x^2 + y^2
        z = X + Y * I
        zbar = X - Y * I
        assert z * zbar == X * X + Y * Y

    @given(gaussians)
    def test_conjugation_involution(self, z):
        assert z.conj().conj() == z

    @given(gaussians, gaussians)
    def test_conj_multiplicative(self, a, b):
        assert (a * b).conj() == a.conj() * b.conj()

    @pytest.mark.parametrize("re, im", [(3, -4), (0.5, 0.25), (Fraction(2, 6), Fraction(-1, 3)),
                                        (Fraction(1), 2), (True, 0)],
                             ids=["int", "float", "Fraction", "mixed", "bool"])
    def test_parts_are_fractions(self, re, im):
        z = GaussianRational(re, im)
        assert type(z.re) is Fraction and type(z.im) is Fraction
        assert (z.re, z.im) == (Fraction(re), Fraction(im))
        assert type(GaussianRational().re) is Fraction

    def test_serialization(self):
        assert rational_str(Fraction(-4, 6)) == "-2/3"
        assert Fraction(rational_str(Fraction(-2, 3))) == Fraction(-2, 3)


class TestPolyArith:
    def test_cancellation(self):
        assert (X + Y) + (X - Y) == X * 2

    def test_square(self):
        assert X * X == X ** 2

    def test_sub(self):
        assert not (X - X)

    @settings(max_examples=60)
    @given(polys, polys, polys)
    def test_distributivity(self, p, q, r):
        assert (p + q) * r == p * r + q * r

    @settings(max_examples=60)
    @given(polys, polys)
    def test_commutativity(self, p, q):
        assert p * q == q * p
        assert p + q == q + p

    def test_division_by_constant_only(self):
        assert (X * 2) / 2 == X
        with pytest.raises(ZeroDivisionError):
            (X * 2) / X


class TestDerivatives:
    def test_partial_examples(self):
        assert (X ** 2 * Y).partial("x") == X * Y * 2
        assert not (X ** 2).partial("y")
        assert not MultiPoly.const(5).partial("x")

    @settings(max_examples=60)
    @given(polys, polys)
    def test_leibniz(self, p, q):
        assert (p * q).partial("x") == p.partial("x") * q + p * q.partial("x")

    def test_wirtinger_examples(self):
        z = X + Y * I
        zbar = X - Y * I
        assert not z.wirtinger("x", "y", conjugate=True)
        assert not zbar.wirtinger("x", "y", conjugate=False)
        assert (X * X + Y * Y).wirtinger("x", "y", conjugate=True) == z

    @settings(max_examples=60)
    @given(polys)
    def test_wirtinger_composition(self, p):
        dz = p.wirtinger("x", "y", False)
        dzbar = p.wirtinger("x", "y", True)
        assert dz + dzbar == p.partial("x")
        assert (dz - dzbar) * I == p.partial("y")


class TestProtocol:
    """The scalar protocol shared by Fraction, GaussianRational and MultiPoly."""

    @pytest.mark.parametrize("a, b", [
        (GaussianRational(3), 3),
        (GaussianRational(Fraction(-2, 7)), Fraction(-2, 7)),
        (X + Y - Y, X),
        (MultiPoly.const(0), MultiPoly(("x",))),
        (MultiPoly.const(5, ("x", "y")), GaussianRational(5)),
        (MultiPoly.const(I, ("y",)), I),
        (X * X * Y - (Y - I) * X * X, I * X * X),
    ])
    def test_equal_values_hash_alike(self, a, b):
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_bool_is_the_zero_test(self):
        assert not MultiPoly.const(0)
        assert not X - X
        assert X and MultiPoly.const(I)
        assert not GaussianRational(0) and I

    @pytest.mark.parametrize("p", [Fraction(-2, 3), GaussianRational(Fraction(1, 2), -1),
                                   X - Y * I + 2], ids=["Q", "Q(i)", "Q(i)[x,y]"])
    def test_power_is_the_repeated_product(self, p):
        one = product = p * 0 + 1
        for n in range(10):
            assert p ** n == exactnum._power(p, n, one) == product
            product = product * p

    @pytest.mark.parametrize("n", range(1, 10))
    def test_power_squares_only_while_bits_remain(self, n):
        squarings = []

        class Power:
            """x ** e that records each product of a value with itself."""
            def __init__(self, e):
                self.e = e

            def __mul__(self, other):
                if other is self:
                    squarings.append(self.e)
                return Power(self.e + other.e)

        assert exactnum._power(Power(1), n, Power(0)).e == n
        assert len(squarings) == n.bit_length() - 1  # floor(log2 n)

    def test_negative_powers(self):
        z = GaussianRational(Fraction(1, 2), -1)
        assert z ** -3 == GaussianRational(1) / (z * z * z)
        with pytest.raises(TypeError):
            X ** -1


class TestRationalEval:
    """MultiPoly.eval at int/Fraction points runs in integers; the oracle's
    term-by-term ring loop checks it."""

    @staticmethod
    def oracle(p, env):
        return NaivePoly.of(p).eval(env)

    @settings(max_examples=80)
    @given(polys, st.lists(fractions, min_size=3, max_size=3))
    def test_gaussian_coefficients(self, p, point):
        env = dict(zip(("x", "y", "z"), point))
        value = p.eval(env)
        assert type(value) is GaussianRational
        assert value == self.oracle(p, env)

    @pytest.mark.parametrize("p", [MultiPoly(("x", "y")), MultiPoly.const(Fraction(-3, 4), ("x",)),
                                   MultiPoly.const(I * 2)], ids=["zero", "constant", "imaginary"])
    def test_zero_and_constants(self, p):
        env = {"x": Fraction(5, 3), "y": -2}
        assert p.eval(env) == self.oracle(p, env) == p.constant_value()

    def test_unused_variable_needs_no_value(self):
        p = MultiPoly(("x", "y", "z"), {(2, 0, 1): Fraction(3, 2), (0, 0, 0): I})
        env = {"x": Fraction(-1, 2), "z": 3}
        assert p.eval(env) == self.oracle(p, env) == Fraction(9, 8) + I
        with pytest.raises(KeyError, match="y"):
            (p * Y).eval(env)
        with pytest.raises(KeyError, match="y"):
            self.oracle(p * Y, env)

    def test_mixed_int_and_fraction_values(self):
        p = (X - Y * I + Fraction(1, 3)) ** 3 * (X * Y - 2) + X ** 4 / 7
        for x, y in ((0, 0), (0, Fraction(-2, 5)), (-3, Fraction(7, 4)),
                     (Fraction(-1, 6), 4), (Fraction(9, 8), Fraction(-8, 9))):
            env = {"x": x, "y": y}
            assert p.eval(env) == self.oracle(p, env)

    def test_variable_names_do_not_reach_the_code(self):
        names = ("D1", "F", "args", "code", "n0", "x-1")
        p = MultiPoly.const(1)
        for k, v in enumerate(names, 1):
            p = p * (MultiPoly.var(v) * GaussianRational(k, Fraction(-1, k)) + Fraction(1, k))
        env = dict(zip(names, (Fraction(-3, 2), 2, Fraction(5, 7), 0, Fraction(1, 9), -4)))
        assert p.eval(env) == self.oracle(p, env)

    def test_ten_thousand_terms_evaluate(self):
        names = tuple(f"x{i:03d}" for i in range(140))
        monomials = itertools.chain([()], ((i,) for i in range(140)),
                                    itertools.combinations_with_replacement(range(140), 2))
        terms = {}
        for n, mono in enumerate(itertools.islice(monomials, 10_000)):
            e = [0] * len(names)
            for i in mono:
                e[i] += 1
            terms[tuple(e)] = GaussianRational(Fraction(n % 7 - 7, n % 5 + 1), n % 3 - 1)
        p = MultiPoly(names, terms)
        assert len(p.terms) == 10_000
        env = {v: Fraction(i % 11 - 5, i % 4 + 1) for i, v in enumerate(names)}
        assert p.eval(env) == self.oracle(p, env)

    def test_each_polynomial_compiles_once(self, monkeypatch):
        calls = []
        compile_ = exactnum.integer_code
        monkeypatch.setattr(exactnum, "integer_code", lambda *a: calls.append(a) or compile_(*a))
        p = (X * Fraction(1, 3) + Y * I) ** 2
        first, second = p.eval({"x": 1, "y": Fraction(1, 2)}), p.eval({"x": Fraction(-2, 5), "y": 3})
        assert len(calls) == 1
        assert first == self.oracle(p, {"x": 1, "y": Fraction(1, 2)})
        assert second == self.oracle(p, {"x": Fraction(-2, 5), "y": 3})

    def test_an_off_by_one_power_of_the_denominator_fails_the_oracle(self, monkeypatch):
        term = exactnum._term
        monkeypatch.setattr(exactnum, "_term", lambda k, factors, pad: term(k, factors, pad + bool(factors)))
        p = (X * GaussianRational(Fraction(1, 2), -1) + Y * I) * (X - Fraction(1, 3))
        env = {"x": Fraction(3, 4), "y": Fraction(-1, 5)}
        assert p.eval(env) != self.oracle(p, env)

    def test_polynomial_values_give_a_polynomial(self):
        p = X * X * 3 + Y * I
        value = p.eval({"x": Y + 1, "y": Fraction(1, 2)})
        assert type(value) is MultiPoly
        assert value == (Y + 1) * (Y + 1) * 3 + I / 2


exponents = st.integers(min_value=0, max_value=3)
wide_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=60)
wide_gaussians = st.builds(GaussianRational, wide_fractions, wide_fractions)
# polynomials over any subset of x, y, z: the operands of a binary operation
# are aligned first
mixed_polys = st.sets(st.sampled_from("xyz")).map(lambda vs: tuple(sorted(vs))).flatmap(
    lambda vs: st.dictionaries(st.tuples(*[exponents] * len(vs)), wide_gaussians, max_size=5)
    .map(lambda terms: MultiPoly(vs, terms)))


class TestAgainstTheOracle:
    """The packed store against NaivePoly: each result is the oracle's value
    over the same variables, with the same store and the same repr."""

    @settings(max_examples=80)
    @given(mixed_polys, mixed_polys)
    def test_sum_and_difference(self, p, q):
        assert agree(p + q, NaivePoly.of(p) + NaivePoly.of(q))
        assert agree(p - q, NaivePoly.of(p) + NaivePoly.of(q).scaled(-1))

    @settings(max_examples=80)
    @given(mixed_polys, mixed_polys)
    def test_product(self, p, q):
        assert agree(p * q, NaivePoly.of(p) * NaivePoly.of(q))

    @settings(max_examples=60)
    @given(mixed_polys, wide_gaussians)
    def test_scalar_product_and_quotient(self, p, c):
        assert agree(p * c, NaivePoly.of(p).scaled(c))
        if c:
            assert agree(p / c, NaivePoly.of(p).scaled(GaussianRational(1) / c))

    @settings(max_examples=60)
    @given(mixed_polys, st.sampled_from("xyzw"))
    def test_partial(self, p, v):
        assert agree(p.partial(v), NaivePoly.of(p).partial(v))

    @settings(max_examples=60)
    @given(mixed_polys, st.sampled_from([("x", "y"), ("y", "z"), ("z", "x")]), st.booleans())
    def test_wirtinger(self, p, pair, conjugate):
        v = tuple(sorted(set(p.vars) | set(pair)))
        assert agree(p.on_vars(v).wirtinger(*pair, conjugate),
                     NaivePoly.of(p).on_vars(v).wirtinger(*pair, conjugate))

    @settings(max_examples=60)
    @given(mixed_polys, st.lists(wide_fractions, min_size=3, max_size=3),
           st.lists(wide_gaussians, min_size=3, max_size=3))
    def test_eval_at_rational_and_gaussian_points(self, p, point, gaussian_point):
        for values in (point, gaussian_point):
            env = dict(zip("xyz", values))
            assert p.eval(env) == NaivePoly.of(p).eval(env)

    @settings(max_examples=40)
    @given(mixed_polys, mixed_polys, mixed_polys, wide_gaussians)
    def test_eval_at_polynomials(self, p, q, r, c):
        env = {"x": q, "y": r, "z": c}
        naive = NaivePoly.of(p).eval({"x": NaivePoly.of(q), "y": NaivePoly.of(r), "z": c})
        naive = naive if isinstance(naive, NaivePoly) else NaivePoly((), {(): naive})
        assert p.eval(env) == MultiPoly(naive.vars, naive.terms)

    @settings(max_examples=60)
    @given(mixed_polys, mixed_polys)
    def test_equality_and_hash(self, p, q):
        assert (p == q) == (NaivePoly.of(p) == NaivePoly.of(q))
        same = (p + q) - q
        assert same == p and hash(same) == hash(p) == hash(p.on_vars(("w", "x", "y", "z")))
        if p.constant_value() is not None:
            assert hash(p) == hash(p.constant_value())


def test_a_field_shifted_by_one_bit_fails_the_oracle(monkeypatch):
    # partial reads and decrements each field one bit too high
    monkeypatch.setattr(exactnum, "_BITS", exactnum._BITS + 1)
    p = MultiPoly(("x", "y"), {(2, 1): GaussianRational(Fraction(1, 2), 3), (0, 3): 1})
    assert not agree(p.partial("x"), NaivePoly.of(p).partial("x"))


def test_an_unnormalised_denominator_fails_the_oracle(monkeypatch):
    # the content is left in: x + 2y is stored as (2x + 4y)/2
    monkeypatch.setattr(exactnum, "_normal", lambda num, den: (num, den))
    p = X * Fraction(1, 2) + Y
    assert not agree(p * 2, NaivePoly.of(p).scaled(2))


def test_an_exponent_past_its_field_is_refused_not_wrapped():
    top = exactnum._TOP
    p = MultiPoly(("x", "y"), {(top, 0): 1, (0, top): Fraction(1, 2)})
    with pytest.raises(OverflowError, match="exponent of x"):
        p * X
    with pytest.raises(OverflowError, match="exponent of y"):
        p * Y
    with pytest.raises(OverflowError, match="of x"):
        MultiPoly(("x",), {(top + 1,): 1})
    assert dict((X ** top).terms) == {(top,): 1}
    with pytest.raises(OverflowError, match="exponent of x"):
        X ** (top + 1)


@pytest.mark.parametrize("e", [(-1,), (1.5,)], ids=["negative", "float"])
def test_an_exponent_is_a_non_negative_int(e):
    with pytest.raises(ValueError, match=f"exponent {e[0]} of x"):
        MultiPoly(("x",), {e: 1})


def test_the_terms_are_a_read_view():
    p = X * Fraction(2, 3) + Y * I
    with pytest.raises(TypeError):
        p.terms[(1, 0)] = 1
    assert dict(p.terms) == {(1, 0): Fraction(2, 3), (0, 1): I}


def test_formal_arithmetic_constructs_no_fraction(monkeypatch):
    p = (X * GaussianRational(Fraction(1, 2), Fraction(-2, 3)) + Y * I / 5) ** 2
    q = X * Fraction(3, 4) - Y * GaussianRational(Fraction(1, 6), 1) + Fraction(7, 3)
    made = []
    new = Fraction.__new__

    def spy(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", spy)
    results = [p + q, p * q, p.partial("x"), q.partial("y")]
    monkeypatch.undo()
    assert made == []
    assert results == [p + q, p * q, p.partial("x"), q.partial("y")]


@pytest.mark.parametrize("values, numerators, D", [
    ([], [], 1),
    ([Fraction(1, 4), Fraction(1, 6)], [3, 2], 12),  # the lcm, not the product 24 or the max 6
    ([3, Fraction(-2, 5), 0, Fraction(7, 10), -1], [30, -4, 0, 7, -10], 10),
    ([Fraction(1, 6), Fraction(-3, 4), Fraction(2)], [2, -9, 24], 12),  # a point of expr's
], ids=["empty", "lcm", "mixed", "expr-point"])
def test_common_denominator(values, numerators, D):
    assert common_denominator(values) == (numerators, D)
    assert [Fraction(n, D) for n in numerators] == values


@given(st.lists(st.fractions(max_denominator=10 ** 6), max_size=8))
def test_common_denominator_reconstructs_over_the_lcm(values):
    N, D = common_denominator(values)
    assert [Fraction(n, D) for n in N] == values
    assert D == math.lcm(*(x.denominator for x in values))


@pytest.mark.parametrize("pairs, numerators, D", [
    ([], [], 1),
    ([(6, -2), (2, 6), (0, -5), (1, 1)], [-9, 1, 0, 3], 3),  # reduced first: D is 3, not 6
    ([(-4, -6), (3, -9)], [2, -1], 3),
], ids=["empty", "reduced", "negative"])
def test_reduced_common_denominator(pairs, numerators, D):
    assert reduced_common_denominator(pairs) == (numerators, D)
    assert [Fraction(n, D) for n in numerators] == [Fraction(p, q) for p, q in pairs]


@given(st.lists(st.tuples(st.integers(-10 ** 6, 10 ** 6),
                          st.integers(-10 ** 6, 10 ** 6).filter(bool)), max_size=8))
def test_reduced_common_denominator_is_that_of_the_fractions(pairs):
    assert reduced_common_denominator(pairs) == common_denominator(
        [Fraction(p, q) for p, q in pairs])


def test_a_zero_denominator_raises():
    with pytest.raises(ZeroDivisionError):
        reduced_common_denominator([(1, 2), (3, 0)])


def test_integer_form():
    p = MultiPoly(("x", "y"), {(2, 0): Fraction(1, 4), (0, 1): GaussianRational(Fraction(-1, 6), 3),
                               (0, 0): I / 2})
    C, deg, form = p.integer_form()
    assert (C, deg) == (12, 2)
    assert sorted(form) == [((0, 0), 0, 6), ((0, 1), -2, 36), ((2, 0), 3, 0)]
    assert MultiPoly(("x",)).integer_form() == (1, 0, [])


@given(polys)
def test_the_integer_form_is_the_polynomial_over_one_denominator(p):
    C, deg, form = p.integer_form()
    assert MultiPoly(p.vars, {e: GaussianRational(Fraction(re, C), Fraction(im, C))
                              for e, re, im in form}) == p
    assert C == math.lcm(*(x.denominator for c in p.terms.values() for x in (c.re, c.im)))
    assert deg == max(map(sum, p.terms), default=0)


ints = st.integers(min_value=-50, max_value=50)


@st.composite
def integer_rows(draw):
    """(rows, size, deg): rows of terms (k, idx), each idx at most deg
    positions below size."""
    size, deg = draw(st.integers(0, 4)), draw(st.integers(0, 3))
    idx = st.lists(st.integers(0, size - 1), max_size=deg) if size else st.just([])
    return draw(st.lists(st.lists(st.tuples(ints, idx), max_size=6), max_size=4)), size, deg


LONG_ROW = [(k % 7 - 3, [k % 3, (k + 1) % 3]) for k in range(exactnum._CHAIN + 1)]


@given(integer_rows(), st.lists(ints, min_size=4, max_size=4), st.integers(1, 30))
@example(([[]], 2, 1), [1, 2, 3, 4], 5)
@example(([[(3, [])], [(-2, [])]], 0, 0), [], 7)
@example(([[(4, []), (-1, [])], [(5, [])]], 2, 0), [3, -2, 0, 0], 1)
@example(([LONG_ROW, LONG_ROW[:exactnum._CHAIN]], 3, 2), [-4, 5, 7, 0], 9)
def test_integer_code_is_each_row_times_d_to_the_degree(case, N, D):
    rows, size, deg = case
    N = N[:size]
    code = exactnum.integer_code(rows, size, deg)
    values = code(N, D)
    assert type(values) is tuple and all(type(v) is int for v in values)
    assert list(values) == [sum(k * math.prod(N[i] for i in idx) * D ** (deg - len(idx))
                                for k, idx in row) for row in rows]
    # a long row is one flat list summed once, a short one a + chain
    assert ("sum" in code.__code__.co_names) == any(len(r) > exactnum._CHAIN for r in rows)


quadratic_forms = st.lists(st.tuples(ints, st.lists(st.tuples(
    st.integers(0, 3), st.integers(0, 3), ints), max_size=5)), max_size=4)


@given(quadratic_forms, st.lists(ints, min_size=4, max_size=4), st.integers(1, 30))
def test_quadratic_code_is_each_form_times_d_squared(forms, M, D):
    # the forms of acs compile through integer_code, one row per form
    code = acs._form_code(forms, 4)
    f = [Fraction(m, D) for m in M]
    values = code(M, D)
    assert type(values) is tuple and all(type(v) is int for v in values)
    assert [Fraction(v, D * D) for v in values] == \
        [const + sum(c * f[p] * f[q] for p, q, c in terms) for const, terms in forms]


def test_quadratic_code_of_no_forms_and_of_empty_forms():
    assert acs._form_code([], 0)([], 7) == ()
    assert acs._form_code([(0, ()), (-2, ()), (0, ((1, 1, -1),))], 2)([3, 5], 7) == \
        (0, -98, -25)


def test_polynomial_code_is_the_polynomials_over_one_denominator():
    p, q = X * X * Fraction(1, 3) - Y / 2 + 1, MultiPoly.const(Fraction(-5, 4))
    code = exactnum.polynomial_code([p, q, MultiPoly.const(0)], ("x", "y"))
    values, S = code([Fraction(2, 3), -1])
    assert S == 12 * 3 ** 2 and all(type(v) is int for v in values)
    assert [Fraction(v, S) for v in values] == \
        [p.eval({"x": Fraction(2, 3), "y": -1}).re, Fraction(-5, 4), 0]
