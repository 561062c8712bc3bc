import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nilcomplex import exactnum
from nilcomplex.exactnum import (GaussianRational, MultiPoly, common_denominator, rational_str,
                                 reduced_common_denominator)

X = MultiPoly.var("x")
Y = MultiPoly.var("y")
I = GaussianRational(0, 1)

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
    """MultiPoly.eval at int/Fraction points runs in integers; binding the same
    values as GaussianRational runs the term-by-term ring loop, the oracle."""

    @staticmethod
    def oracle(p, env):
        return p.eval({v: GaussianRational(x) for v, x in env.items()})

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
