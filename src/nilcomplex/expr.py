"""Tiny expression language for catalogue data.

Formulas in the catalogue (matrix entries, domain conditions, chart
functions, multiplication corrections) are stored as strings like

    "(j55^2 + 1)*(j24 - j13)/(j24*j13)"
    "conj(f1a)^2*(1 - i*alpha)/8"

and parsed here into small ASTs that support exact evaluation over any of
the package's scalar rings (Fraction, GaussianRational, MultiPoly).

The only constant symbol is ``i`` (the imaginary unit); ``conj`` is
coefficient conjugation.  ``^`` is integer exponentiation; ``/`` requires
the divisor to evaluate to an exact nonzero constant.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache

from .exactnum import GaussianRational, MultiPoly

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|(\*\*|[()+\-*/^,]))")


class ExprError(ValueError):
    pass


def _tokenize(s: str):
    out = []
    pos = 0
    while pos < len(s):
        m = _TOKEN.match(s, pos)
        if not m or m.end() == pos:
            if s[pos:].strip() == "":
                break
            raise ExprError(f"bad token at {s[pos:pos+20]!r}")
        pos = m.end()
        if m.group(1):
            out.append(("num", int(m.group(1))))
        elif m.group(2):
            out.append(("name", m.group(2)))
        else:
            op = m.group(3)
            out.append(("op", "^" if op == "**" else op))
    out.append(("end", None))
    return out


class _Parser:
    def __init__(self, tokens):
        self.toks = tokens
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def take(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, op):
        kind, val = self.take()
        if kind != "op" or val != op:
            raise ExprError(f"expected {op!r}, got {val!r}")

    def parse(self):
        e = self.expr()
        if self.peek()[0] != "end":
            raise ExprError(f"trailing input at token {self.peek()!r}")
        return e

    def expr(self):
        kind, val = self.peek()
        neg = False
        if kind == "op" and val in "+-":
            self.take()
            neg = val == "-"
        node = self.term()
        if neg:
            node = ("neg", node)
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.term()
                node = ("add" if val == "+" else "sub", node, rhs)
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "*/":
                self.take()
                rhs = self.factor()
                node = ("mul" if val == "*" else "div", node, rhs)
            else:
                return node

    def factor(self):
        kind, val = self.peek()
        if kind == "op" and val == "-":
            self.take()
            return ("neg", self.factor())
        node = self.atom()
        kind, val = self.peek()
        if kind == "op" and val == "^":
            self.take()
            k2, v2 = self.take()
            sign = 1
            if k2 == "op" and v2 == "-":
                sign = -1
                k2, v2 = self.take()
            if k2 != "num":
                raise ExprError("exponent must be an integer literal")
            node = ("pow", node, sign * v2)
        return node

    def atom(self):
        kind, val = self.take()
        if kind == "num":
            return ("num", val)
        if kind == "name":
            if val == "conj":
                self.expect("(")
                inner = self.expr()
                self.expect(")")
                return ("conj", inner)
            if val == "i":
                return ("i",)
            return ("var", val)
        if kind == "op" and val == "(":
            inner = self.expr()
            self.expect(")")
            return inner
        raise ExprError(f"unexpected token {val!r}")


@lru_cache(maxsize=None)
def parse(s: str):
    return _Parser(_tokenize(s)).parse()


_I = GaussianRational(0, 1)


def evaluate(node, env):
    """Evaluate an AST (or source string) in env: name -> scalar/polynomial."""
    if isinstance(node, str):
        node = parse(node)
    op = node[0]
    if op == "num":
        return Fraction(node[1])
    if op == "i":
        return _I
    if op == "var":
        try:
            return env[node[1]]
        except KeyError:
            raise ExprError(f"unbound symbol {node[1]!r}") from None
    if op == "neg":
        return -evaluate(node[1], env)
    if op == "conj":
        v = evaluate(node[1], env)
        if isinstance(v, (int, Fraction)):
            return v
        return v.conj()
    a = evaluate(node[1], env)
    if op == "pow":
        n = node[2]
        if n < 0:
            if isinstance(a, MultiPoly):
                c = a.constant_value()
                if c is None:
                    raise ExprError("negative power of a non-constant polynomial")
                a = c
            if isinstance(a, Fraction) or isinstance(a, int):
                return Fraction(a) ** n
            return a ** n
        return a ** n
    b = evaluate(node[2], env)
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        if isinstance(b, int):
            b = Fraction(b)
        if isinstance(a, int):
            a = Fraction(a)
        return a / b
    raise ExprError(f"unknown node {op!r}")


def free_symbols(node) -> set:
    if isinstance(node, str):
        node = parse(node)
    op = node[0]
    if op == "var":
        return {node[1]}
    if op in ("num", "i"):
        return set()
    if op in ("neg", "conj"):
        return free_symbols(node[1])
    if op == "pow":
        return free_symbols(node[1])
    return free_symbols(node[1]) | free_symbols(node[2])

