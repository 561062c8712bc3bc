from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nilcomplex.exactnum import GaussianRational, MultiPoly, rational_str

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

    def test_serialization(self):
        assert rational_str(Fraction(-4, 6)) == "-2/3"
        assert Fraction(rational_str(Fraction(-2, 3))) == Fraction(-2, 3)


class TestPolyArith:
    def test_cancellation(self):
        assert (X + Y) + (X - Y) == X * 2

    def test_square(self):
        assert X * X == X ** 2

    def test_sub(self):
        assert (X - X).is_zero()

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
        assert (X ** 2).partial("y").is_zero()
        assert MultiPoly.const(5).partial("x").is_zero()

    @settings(max_examples=60)
    @given(polys, polys)
    def test_leibniz(self, p, q):
        assert (p * q).partial("x") == p.partial("x") * q + p * q.partial("x")

    def test_wirtinger_examples(self):
        z = X + Y * I
        zbar = X - Y * I
        assert z.wirtinger("x", "y", conjugate=True).is_zero()
        assert zbar.wirtinger("x", "y", conjugate=False).is_zero()
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
        product = p * 0 + 1
        for n in range(7):
            assert p ** n == product
            product = product * p

    def test_negative_powers(self):
        z = GaussianRational(Fraction(1, 2), -1)
        assert z ** -3 == GaussianRational(1) / (z * z * z)
        with pytest.raises(TypeError):
            X ** -1
