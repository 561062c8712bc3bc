import random
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nilcomplex import catalogue, expr
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
    ("  a + 1 ", Fraction(13)),       # blanks and line breaks between tokens
    ("a +\n 1", Fraction(13)),
    ("a*(b + c)", Fraction(60)),      # parentheses the emitted source must keep
    ("-(a + b)*2", Fraction(-28)),
    ("(a - b)^2", Fraction(100)),
    ("a - (b - c)", Fraction(13)),
    ("a*+b", Fraction(24)),           # unary plus after an operator
    ("a - +b^2", Fraction(8)),
    ("2*+(a - b)", Fraction(20)),
    ("(-b)^2", Fraction(4)),
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
    ("conj", {"conj": 1}),      # a bare conj is no symbol either
    ("0x10", ABC),              # only decimal integer literals
    ("1_000", ABC),
    ("1.5", ABC),
    ("1e3", ABC),
    ("True", ABC),
    ("a, b", ABC),              # Python expressions outside the language
    ("a[0]", ABC),
    ("a.b", ABC),
    ("f(a)", ABC),
    ("conj(a, b)", ABC),
    ("a < b", ABC),
    ("a % b", ABC),
    ("a // b", ABC),
    ("a @ b", ABC),
    ("a ** b ** 2", ABC),
    ("a if b else a", ABC),
    ("a # + b", ABC),           # a comment would hide the rest
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


def test_a_parse_error_names_the_formula():
    with pytest.raises(ExprError, match=r"'\(a \+ b': "):
        evaluate("(a + b", ABC)


@pytest.mark.parametrize("s", ["1if a else b", "a*2or b"])
def test_a_literal_run_into_a_keyword_is_an_error_not_a_warning(s):
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        with pytest.raises(ExprError, match="invalid decimal literal"):
            evaluate(s, ABC)
    assert [w.category for w in seen] == []


POLY = {"x": MultiPoly.var("x"), "p": MultiPoly.const(2)}


@pytest.mark.parametrize("s", ["a/x", "x/(x + 1)", "p/x", "x^-1", "(x + p)^-2"])
def test_only_a_constant_polynomial_divides(s):
    with pytest.raises(ExprError, match="non-constant polynomial"):
        evaluate(s, {**ABC, **POLY})


def test_a_constant_polynomial_divides_as_its_value():
    env = {**ABC, **POLY}
    assert evaluate("a/p", env) == 6 == evaluate("a*p^-1", env)
    assert evaluate("x/p", env) == MultiPoly.var("x") * Fraction(1, 2)
    with pytest.raises(ZeroDivisionError):
        evaluate("a/(p - 2)", env)


def _chain(op, n):
    return op.join(["a"] * n)


@pytest.mark.parametrize("op, value", [("+", 900 * 12), ("-", -898 * 12)])
def test_long_chains_evaluate(op, value):
    assert evaluate(_chain(op, 900), ABC) == value
    assert evaluate(_chain("*", 900), {"a": Fraction(-1)}) == 1
    assert _ints(_chain(op, 150), a=Fraction(1, 2)) == Fraction(150 if op == "+" else -148, 2)


@pytest.mark.parametrize("s, form", [
    ("(" * 300 + "a" + ")" * 300, "generic"),   # beyond Python's parser
    ("-" * 10000 + "a", "generic"),             # beyond its recursion limit
    (_chain("+", 5000), "generic"),
    (_chain("/", 300), "generic"),              # the emitted source nests
    (_chain("+", 250), "integer"),              # the integer form nests per term
], ids=["parentheses", "negations", "sum", "quotient", "integer-sum"])
def test_a_formula_too_deep_for_python_is_an_expr_error(s, form):
    with pytest.raises(ExprError, match="nested"):
        evaluate(s, ABC) if form == "generic" else _ints(s, a=Fraction(1, 2))


def catalogue_formulas() -> set:
    """Every formula string of the catalogue: the matrices, definitions and
    conditions of its families, representatives and automorphism families,
    the representatives' bracket tables, recognizers and charts, and the
    displayed left-invariant fields."""
    out = set()
    for e in catalogue.entries():
        for m in e.families + e.representatives + e.automorphisms:
            out.update(cell for row in m.entries for cell in row)
            out.update(f for _, f in m.defs)
            out.update(m.conditions)
        for r in e.representatives:
            out.update(f for _, terms in r.m_table for _, f in terms)
            out.update(f for _, (_, _, f) in r.recognize if f is not None)
            if r.chart is not None:
                c = r.chart
                out.update(f for _, f in c.defs + c.chi_defs + c.chi)
                out.update(c.phis + c.conditions)
                out.update(f for _, terms in c.relations for _, f in terms)
        out.update(f for _, display in e.fields_display for f in display)
    return out


def test_every_catalogue_formula_has_both_forms_and_they_agree():
    formulas = sorted(catalogue_formulas())
    real = 0
    for s in formulas:
        symbols = sorted(free_symbols(s))
        rng = random.Random(s)
        points = [{x: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for x in symbols}
                  for _ in range(3)]
        try:
            expr._compile_ints(s)
        except ExprError as ex:  # a formula in i has no integer form
            assert "not a real formula" in str(ex) and "_i" in expr._compile(s)[0].co_names
            continue
        real += 1
        for point in points:
            try:
                value = evaluate(s, point)
            except ZeroDivisionError:
                with pytest.raises(ZeroDivisionError):
                    _ints(s, **point)
                continue
            assert _ints(s, **point) == value, (s, point)
    assert (len(formulas), real) == (676, 592)


ALPHABET = ["a", "b", "c", "x", "p", "i", "0", "1", "12", " ", "(", ")", "+", "-", "*", "/",
            "^", "**", "conj(", ",", "."]
FORMULAS = st.recursive(st.sampled_from(["a", "b", "c", "2", "12"] * 2 + ["x", "p", "i"]),
                        lambda inner: st.one_of(
    st.builds("{}{}{}".format, inner, st.sampled_from(["+", " - ", "*", "/"]), inner),
    st.builds("{}({}{}{})".format, st.sampled_from(["", "-", "+", "conj"]), inner,
              st.sampled_from(["+", "-", "*"]), inner),
    st.builds("{}{}".format, inner, st.sampled_from(["^2", "^-1", "**3", "^ -2", "^0"]))),
    max_leaves=10)
RATIONAL = {"a": Fraction(3, 4), "b": Fraction(-2), "c": Fraction(0)}


@settings(max_examples=1500, deadline=None, derandomize=True)
@given(st.one_of(FORMULAS, st.lists(st.sampled_from(ALPHABET), max_size=12).map("".join)))
def test_a_string_gives_a_value_an_expr_error_or_a_zero_division(s):
    # strings over the formula alphabet, and formulas built from its grammar:
    # any other exception fails the test, and a real formula's two forms agree
    try:
        value = evaluate(s, {**RATIONAL, **POLY})
    except (ExprError, ZeroDivisionError):
        value = None
    try:
        P, Q = expr.evaluate_ints(s, expr.over_one_denominator(RATIONAL))
    except (ExprError, ZeroDivisionError):
        return
    assert value is None or Fraction(P, Q) == value, s
