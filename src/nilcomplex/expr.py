"""Tiny expression language for catalogue data.

Formulas in the catalogue (matrix entries, domain conditions, chart
functions, multiplication corrections) are stored as strings like

    "(j55^2 + 1)*(j24 - j13)/(j24*j13)"
    "conj(f1a)^2*(1 - i*alpha)/8"

One parse of a string emits two Python sources.  ``evaluate`` runs the
generic one, exact over every scalar ring of the package (Fraction,
GaussianRational, MultiPoly; integer literals are Fraction constants).
``evaluate_ints`` runs the integer one of a real formula at a point that
``over_one_denominator`` put over one common denominator D (with
``exactnum.common_denominator``) and returns ints P, Q: each subexpression
is P/Q*D^s, with no Q in polynomial parts and each s fixed at compile time.

The only constant symbol is ``i`` (the imaginary unit); ``conj`` is
coefficient conjugation.  ``^`` (or ``**``) raises to an integer literal;
``/`` requires the divisor to evaluate to an exact nonzero constant, and
both forms raise ZeroDivisionError at a zero divisor or a negative power of
zero.  Symbols may not start with ``_`` or be Python keywords.
"""

from __future__ import annotations

import keyword
import re
from fractions import Fraction
from functools import cache, lru_cache

from .exactnum import I, MultiPoly, common_denominator

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
    """Recursive descent.  Each rule returns the generic source of its value,
    then its integer form p, q, s: the sources of ints P and Q (None for 1)
    and the int s with value P/Q*D^s at a point over D."""

    def __init__(self, tokens):
        self.toks = tokens
        self.pos = 0
        self.consts = {}
        self.real = True

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
        src, p, q, s = self.term()
        if sign == "-":
            src, p = f"-({src})", f"(-{p})"
        while op := self.accept("+-"):
            rhs, p2, q2, s2 = self.term()
            t = min(s, s2)
            a, b = _times(_scaled(p, s - t), q2), _times(_scaled(p2, s2 - t), q)
            src, p, q, s = f"{src} {op} {rhs}", f"({a} {op} {b})", _times(q, q2), t
        return src, p, q, s

    def term(self):
        src, p, q, s = self.factor()
        while op := self.accept("*/"):
            rhs, p2, q2, s2 = self.factor()
            if op == "*":
                src, p, q, s = f"{src} * {rhs}", f"{p}*{p2}", _times(q, q2), s + s2
            else:  # the divisor is checked where it divides, as Fraction does
                src, p, q, s = (f"_div({src}, {rhs})", _times(p, q2),
                                _times(q, f"({p2} or _zero())"), s - s2)
        return src, p, q, s

    def factor(self):
        if self.accept("-"):
            src, p, q, s = self.factor()
            return f"(-{src})", f"(-{p})", q, s
        src, p, q, s = self.atom()
        if self.accept("^"):
            neg = self.accept("-")
            kind, n = self.take()
            if kind != "num":
                raise ExprError("exponent must be an integer literal")
            src = f"_pow({src}, -{n})" if neg and n else f"{src} ** {n}"
            if neg and n:  # x^-n = (1/x)^n
                p, q, s = q or "1", f"({p} or _zero())", -s
            p, q, s = f"({p})**{n}", q and f"({q})**{n}", s * n
        return src, p, q, s

    def atom(self):
        kind, val = self.take()
        if kind == "num":
            self.consts[f"_{val}"] = Fraction(val)
            return f"_{val}", str(val), None, 0
        if kind == "name":
            if val == "conj":
                self.expect("(")
                inner, p, q, s = self.expr()
                self.expect(")")
                return f"_conj({inner})", p, q, s  # conj is the identity on reals
            if val == "i":
                self.real = False
                return "_i", "0", None, 0
            if val.startswith("_") or keyword.iskeyword(val):
                raise ExprError(f"reserved name {val!r}")
            return val, val, None, -1
        if kind == "op" and val == "(":
            inner, p, q, s = self.expr()
            self.expect(")")
            return f"({inner})", p, q, s
        raise ExprError(f"unexpected token {val!r}")


def _times(a, b):
    """Source of the product of two int sources, where None stands for 1."""
    return a if b is None else b if a is None else f"{a}*{b}"


def _scaled(p, k: int):
    """Source of p*D^k for k >= 0."""
    return p if k == 0 else _times(p, "_D" if k == 1 else f"_D**{k}")


def _zero():
    raise ZeroDivisionError("division by zero")


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


_HELPERS = {"__builtins__": {}, "_i": I,
            "_conj": _conj, "_div": _div, "_pow": _pow}
_INT_HELPERS = {"__builtins__": {}, "_zero": _zero}


@cache
def _compile(s: str):
    """(code, scope, free symbols) of a formula string, built once."""
    parser = _Parser(_tokenize(s))
    code = compile(parser.parse()[0], "<formula>", "eval")
    scope = {**_HELPERS, **parser.consts}
    return code, scope, frozenset(code.co_names) - scope.keys()


@lru_cache(maxsize=1024)
def _compile_ints(s: str):
    """Code of a real formula's integer form, built once: it gives (P, Q)."""
    parser = _Parser(_tokenize(s))
    _, p, q, k = parser.parse()
    if not parser.real:
        raise ExprError(f"{s!r} is not a real formula")
    p, q = (_scaled(p, k), q or "1") if k >= 0 else (p, _times(q, f"_D**{-k}"))
    return compile(f"({p}, {q})", "<formula>", "eval")


def evaluate(s: str, env):
    """Value of formula s in env: name -> scalar or polynomial."""
    code, scope, _ = _compile(s)
    try:
        return eval(code, scope, env)
    except NameError as ex:
        raise ExprError(f"unbound symbol {ex.name!r}") from None


def over_one_denominator(env) -> dict:
    """A rational point as the integer forms read it: each symbol's value
    N/D as N, with the common denominator D under the name _D."""
    nums, D = common_denominator(env.values())
    return dict(zip(env, nums), _D=D)


def evaluate_ints(s: str, point) -> tuple:
    """(P, Q) with P/Q the value of the real formula s at a point from
    over_one_denominator, computed in ints; a zero divisor raises
    ZeroDivisionError, as Fraction arithmetic does."""
    try:
        return eval(_compile_ints(s), _INT_HELPERS, point)
    except NameError as ex:
        raise ExprError(f"unbound symbol {ex.name!r}") from None


def free_symbols(s: str) -> frozenset:
    return _compile(s)[2]
