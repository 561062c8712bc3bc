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
