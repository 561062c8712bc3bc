from fractions import Fraction

import pytest

from nilcomplex import expr
from nilcomplex.exactnum import GaussianRational, MultiPoly
from nilcomplex.expr import ExprError, evaluate, free_symbols

ABC = {"a": Fraction(12), "b": Fraction(2), "c": Fraction(3)}


@pytest.mark.parametrize("s,value", [
    ("-2^2", Fraction(-4)),
    ("2^-1", Fraction(1, 2)),
    ("2*3^2", Fraction(18)),
    ("a/b/c", Fraction(2)),
    ("a-b-c", Fraction(7)),
    ("-a*b + c", Fraction(-21)),
    ("a - -b", Fraction(14)),
    ("a*-b^2", Fraction(-48)),
    ("1/2*4", Fraction(2)),
    ("2**3", Fraction(8)),
    ("(1 + 1)^3", Fraction(8)),
    ("i^2", GaussianRational(-1)),
    ("conj(1 + 2*i)", GaussianRational(1, -2)),
    ("conj(a)", Fraction(12)),
])
def test_precedence_and_associativity(s, value):
    assert evaluate(s, ABC) == value


def test_power_alias():
    assert evaluate("b**3 - b^3", ABC) == 0


@pytest.mark.parametrize("s,env", [
    ("1/2", {}),
    ("a/b", {"a": 1, "b": 2}),
    ("b^-1", {"b": 2}),
])
def test_integers_divide_exactly(s, env):
    v = evaluate(s, env)
    assert type(v) is Fraction and v == Fraction(1, 2)


@pytest.mark.parametrize("s,env", [
    ("a $ b", ABC),             # bad token
    ("a b", ABC),               # trailing input
    ("a^b", ABC),               # symbolic exponent
    ("a^(2)", ABC),             # exponent is not a literal
    ("a^-", ABC),               # missing exponent
    ("(a + b", ABC),            # unclosed parenthesis
    ("x + 1", ABC),             # unbound symbol
    ("_i + a", ABC),            # helpers are out of reach
    ("_x", {"_x": 1}),          # even when the caller binds the name
    ("lambda", {"lambda": 1}),  # a Python keyword is no symbol
    ("x^-1", {"x": MultiPoly.var("x")}),
])
def test_errors(s, env):
    with pytest.raises(ExprError):
        evaluate(s, env)


def test_unbound_symbol_is_named():
    with pytest.raises(ExprError, match="unbound symbol 'x'"):
        evaluate("a + x", ABC)


def test_negative_power_of_a_constant_polynomial():
    assert evaluate("p^-2", {"p": MultiPoly.const(2)}) == GaussianRational(Fraction(1, 4))


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        evaluate("a/(b - 2)", ABC)


def test_free_symbols():
    assert free_symbols("conj(a)*i + b^2/c - 3 + a^-1") == {"a", "b", "c"}
    assert free_symbols("i*2") == set()


def test_each_string_compiles_once():
    s = "(q1 - q2)^2/7 + conj(q1)"
    env = {"q1": Fraction(3), "q2": Fraction(1)}
    before = expr._compile.cache_info()
    values = [evaluate(s, env) for _ in range(5)]
    assert free_symbols(s) == {"q1", "q2"}
    after = expr._compile.cache_info()
    assert values == [Fraction(25, 7)] * 5
    assert after.misses - before.misses == 1
    assert after.hits - before.hits == 5


def _ints(s, **values):
    """The integer form of s at the given rational values, as a Fraction."""
    return Fraction(*expr.evaluate_ints(s, expr.over_one_denominator(values)))


PQR = {"p": Fraction(-3, 4), "q": Fraction(1), "r": Fraction(5, 6)}


@pytest.mark.parametrize("s", [
    "p", "-p", "p + q - r", "p*q*r", "p/r", "q/p - r", "-(p - q)^3/(r*q)",
    "p^-2*q + r/p", "(p/r + q/(p - r))/(r + 1/p)", "-p^2 + 3*p*q^2 - r^3/2",
    "conj(p)*r^0 - (q/r)^-2", "(p*r - 1)^2/(q + r)^3 - 7", "2*p*-r",
])
def test_the_integer_form_equals_evaluate(s):
    assert _ints(s, **PQR) == evaluate(s, PQR)


@pytest.mark.parametrize("s,value", [
    ("0", 0), ("-1", -1), ("1/2", Fraction(1, 2)), ("-3^2", -9), ("2^-3", Fraction(1, 8)),
    ("(1 - 1)^0", 1), ("4/6 - 2/3", 0),
])
def test_literal_formulas_in_integers(s, value):
    assert _ints(s) == value == _ints(s, p=Fraction(7, 3))


@pytest.mark.parametrize("s", [
    "p/(q/(r - r))", "p/(r - r)", "(r - r)^-1", "p/((r - r)^-2)", "((r - r)^-1)^0",
    "(q - 1)^-3*0", "0*(1/(p - p))", "p/(q - q)^2 + 1",
])
def test_a_zero_divisor_raises_in_both_forms(s):
    # checked where it divides: a zero factor elsewhere must not hide it
    with pytest.raises(ZeroDivisionError):
        evaluate(s, PQR)
    with pytest.raises(ZeroDivisionError):
        _ints(s, **PQR)


def test_the_integer_form_needs_a_real_formula_and_bound_symbols():
    with pytest.raises(ExprError, match="not a real formula"):
        _ints("p + i", **PQR)
    with pytest.raises(ExprError, match="unbound symbol 'x'"):
        _ints("p + x", **PQR)


def test_each_integer_form_compiles_once():
    s = "(q1 - q2)^3/11 - q1^-1"
    before = expr._compile_ints.cache_info()
    values = [_ints(s, q1=Fraction(3, 2), q2=Fraction(-1, 3)) for _ in range(5)]
    after = expr._compile_ints.cache_info()
    assert values == [evaluate(s, {"q1": Fraction(3, 2), "q2": Fraction(-1, 3)})] * 5
    assert after.misses - before.misses == 1
    assert after.hits - before.hits == 4
    assert type(after.maxsize) is int
