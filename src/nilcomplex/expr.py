"""Tiny expression language for catalogue data.

Formulas in the catalogue (matrix entries, domain conditions, chart
functions, multiplication corrections) are stored as strings like

    "(j55^2 + 1)*(j24 - j13)/(j24*j13)"
    "conj(f1a)^2*(1 - i*alpha)/8"

Each string is parsed once into Python source and compiled; evaluating it
is one ``eval`` of that code in the caller's symbols.  Python operators keep
it exact over every scalar ring of the package (Fraction, GaussianRational,
MultiPoly, dual numbers), and integer literals are Fraction constants.

The only constant symbol is ``i`` (the imaginary unit); ``conj`` is
coefficient conjugation.  ``^`` (or ``**``) raises to an integer literal;
``/`` requires the divisor to evaluate to an exact nonzero constant.
Symbols may not start with ``_`` or be Python keywords.
"""

from __future__ import annotations

import keyword
import re
from fractions import Fraction
from functools import lru_cache

from .exactnum import GaussianRational, MultiPoly

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|(\*\*|[()+\-*/^,])|(\S))")


class ExprError(ValueError):
    pass


def _tokenize(s: str):
    out = []
    for m in _TOKEN.finditer(s):
        num, name, op, bad = m.groups()
        if bad:
            raise ExprError(f"bad token at {s[m.start(4):m.start(4) + 20]!r}")
        if num:
            out.append(("num", int(num)))
        elif name:
            out.append(("name", name))
        else:
            out.append(("op", "^" if op == "**" else op))
    out.append(("end", None))
    return out


class _Parser:
    """Recursive descent; each rule returns Python source for its value."""

    def __init__(self, tokens):
        self.toks = tokens
        self.pos = 0
        self.consts = {}

    def peek(self):
        return self.toks[self.pos]

    def take(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def accept(self, ops):
        """Take the next token if it is one of the operators ops."""
        kind, val = self.peek()
        if kind == "op" and val in ops:
            self.pos += 1
            return val
        return None

    def expect(self, op):
        if not self.accept(op):
            raise ExprError(f"expected {op!r}, got {self.peek()[1]!r}")

    def parse(self):
        e = self.expr()
        if self.peek()[0] != "end":
            raise ExprError(f"trailing input at token {self.peek()!r}")
        return e

    def expr(self):
        sign = self.accept("+-")
        src = self.term()
        if sign == "-":
            src = f"-({src})"
        while op := self.accept("+-"):
            src = f"{src} {op} {self.term()}"
        return src

    def term(self):
        src = self.factor()
        while op := self.accept("*/"):
            rhs = self.factor()
            src = f"{src} * {rhs}" if op == "*" else f"_div({src}, {rhs})"
        return src

    def factor(self):
        if self.accept("-"):
            return f"(-{self.factor()})"
        src = self.atom()
        if self.accept("^"):
            neg = self.accept("-")
            kind, n = self.take()
            if kind != "num":
                raise ExprError("exponent must be an integer literal")
            src = f"_pow({src}, -{n})" if neg and n else f"{src} ** {n}"
        return src

    def atom(self):
        kind, val = self.take()
        if kind == "num":
            self.consts[f"_{val}"] = Fraction(val)
            return f"_{val}"
        if kind == "name":
            if val == "conj":
                self.expect("(")
                inner = self.expr()
                self.expect(")")
                return f"_conj({inner})"
            if val == "i":
                return "_i"
            if val.startswith("_") or keyword.iskeyword(val):
                raise ExprError(f"reserved name {val!r}")
            return val
        if kind == "op" and val == "(":
            inner = self.expr()
            self.expect(")")
            return f"({inner})"
        raise ExprError(f"unexpected token {val!r}")


def _conj(v):
    if isinstance(v, (int, Fraction)):
        return v
    return v.conj()


def _div(a, b):
    if isinstance(b, int):
        b = Fraction(b)
    if isinstance(a, int):
        a = Fraction(a)
    return a / b


def _pow(a, n: int):
    """a ** n for a negative literal n: only an exact constant inverts."""
    if isinstance(a, MultiPoly):
        a = a.constant_value()
        if a is None:
            raise ExprError("negative power of a non-constant polynomial")
    if isinstance(a, int):
        a = Fraction(a)
    return a ** n


_HELPERS = {"__builtins__": {}, "_i": GaussianRational(0, 1),
            "_conj": _conj, "_div": _div, "_pow": _pow}


@lru_cache(maxsize=None)
def _compile(s: str):
    """(code, scope, free symbols) of a formula string, built once."""
    parser = _Parser(_tokenize(s))
    code = compile(parser.parse(), "<formula>", "eval")
    scope = {**_HELPERS, **parser.consts}
    return code, scope, frozenset(code.co_names) - scope.keys()


def evaluate(s: str, env):
    """Value of formula s in env: name -> scalar, polynomial or dual number."""
    code, scope, _ = _compile(s)
    try:
        return eval(code, scope, env)
    except NameError as ex:
        raise ExprError(f"unbound symbol {ex.name!r}") from None


def free_symbols(s: str) -> frozenset:
    return _compile(s)[2]
