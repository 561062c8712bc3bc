"""Tiny expression language for catalogue data.

Formulas in the catalogue (matrix entries, domain conditions, chart
functions, multiplication corrections) are stored as strings like

    "(j55^2 + 1)*(j24 - j13)/(j24*j13)"
    "conj(f1a)^2*(1 - i*alpha)/8"

Python's own parser reads a formula, with ``^`` read as ``**``, and one
``match`` over its parse tree emits two Python sources.  ``evaluate`` runs
the generic one, exact over every scalar ring of the package (Fraction,
GaussianRational, MultiPoly; integer literals are Fraction constants).
``evaluate_ints`` runs the integer one of a real formula at a point that
``over_one_denominator`` put over one common denominator D (with
``exactnum.common_denominator``) and returns ints P, Q: each subexpression
is P/Q*D^s, with no Q in polynomial parts and each s fixed at compile time.

The language is a whitelist of Python expression nodes: decimal integer
literals, symbols (not starting with ``_``; ``i`` is the imaginary unit),
``+ - * /``, unary ``-`` and ``+``, ``conj(x)`` (coefficient conjugation) and
``^`` followed by an integer literal or by ``-`` and one.  A formula gives a
value, a ZeroDivisionError (at a zero divisor, in both forms) or an
ExprError: for any other input, for a division by or a negative power of a
non-constant polynomial, and for a formula nested deeper than Python reads.
"""

from __future__ import annotations

import ast
import warnings
from fractions import Fraction
from functools import cache, lru_cache

from .exactnum import I, MultiPoly, common_denominator


class ExprError(ValueError):
    pass


_SUMS, _PRODUCTS = (ast.Add, ast.Sub), (ast.Mult, ast.Div)


class _Emitter:
    """One walk of a formula's parse tree: `emit` returns the generic source
    of a node's value, then its integer form p, q, s: the sources of ints P
    and Q (None for 1) and the int s with value P/Q*D^s at a point over D."""

    def __init__(self, text: str):
        self.text, self.consts, self.real = text, {}, True

    def emit(self, node):
        """node's 4-tuple."""
        text = self.text
        match node:
            case ast.Name(id=name):
                if name == "i":
                    self.real = False
                    return "_i", "0", None, 0
                if name.startswith("_") or name == "conj":
                    raise ExprError(f"reserved name {name!r}")
                return name, name, None, -1
            case ast.BinOp(op=ast.Add() | ast.Sub() | ast.Mult() | ast.Div() as op):
                # a left-leaning chain of sums a + b - c ... or of products
                # a*b/c ..., folded in a loop: its length is not bounded by
                # the recursion limit
                level = _SUMS if isinstance(op, _SUMS) else _PRODUCTS
                spine = [node]
                while isinstance(inner := spine[-1].left, ast.BinOp) \
                        and isinstance(inner.op, level):
                    spine.append(inner)
                src, p, q, s = self.emit(spine[-1].left)
                for link in reversed(spine):
                    rhs, p2, q2, s2 = self.emit(link.right)
                    if isinstance(link.op, ast.Mult):
                        src, p, q, s = f"{src} * {rhs}", f"{p}*{p2}", _times(q, q2), s + s2
                    elif isinstance(link.op, ast.Div):  # the divisor is checked where it divides
                        src = f"_div({src}, {rhs})"
                        p, q, s = _times(p, q2), _times(q, f"({p2} or _zero())"), s - s2
                    else:
                        sign, t = "+" if isinstance(link.op, ast.Add) else "-", min(s, s2)
                        a, b = _times(_scaled(p, s - t), q2), _times(_scaled(p2, s2 - t), q)
                        src, p, q, s = f"{src} {sign} {rhs}", f"({a} {sign} {b})", _times(q, q2), t
                # the tree holds no parentheses, and a sum binds looser than
                # anything that may hold it: it is grouped once, as a whole
                return f"({src})" if level is _SUMS else src, p, q, s
            case ast.Constant(value=n) if text[node.col_offset:node.end_col_offset].isdigit():
                self.consts[f"_{n}"] = Fraction(n)
                return f"_{n}", str(n), None, 0
            case ast.BinOp(left=x, op=ast.Pow(), right=(ast.Constant() as lit)
                           | ast.UnaryOp(op=ast.USub(), operand=ast.Constant() as lit)) \
                    if text[lit.col_offset:lit.end_col_offset].isdigit() \
                    and text[x.end_col_offset:lit.col_offset].replace(" ", "").lstrip(")") \
                    == ("**" if lit is node.right else "**-"):
                # the tree holds no parentheses: a^(2) and a^-(2) differ from
                # a^2 and a^-2 only in the text between base and literal
                (src, p, q, s), n = self.emit(x), lit.value
                if lit is not node.right and n:  # x^-n = (1/x)^n
                    src, p, q, s = f"_pow({src}, -{n})", q or "1", f"({p} or _zero())", -s
                else:
                    src = f"({src}) ** {n}"
                return src, f"({p})**{n}", q and f"({q})**{n}", s * n
            case ast.UnaryOp(op=ast.USub() | ast.UAdd() as op, operand=x):
                src, p, q, s = self.emit(x)
                return (src, p, q, s) if isinstance(op, ast.UAdd) else (f"-{src}", f"(-{p})", q, s)
            case ast.Call(func=ast.Name(id="conj"), args=[x], keywords=[]):
                src, p, q, s = self.emit(x)
                return f"_conj({src})", p, q, s  # conj is the identity on reals
        raise ExprError(f"unsupported {text[node.col_offset:node.end_col_offset]!r}")


def _code(s: str, ints: bool):
    """(emitter, code) with code that of formula s's generic form, or of
    its integer form if ints: Python's parser reads s, and one walk of the
    tree emits both forms.  A formula past Python's limits is an ExprError."""
    text = " ".join(s.split()).replace("^", "**")
    if not (text.isascii() and text.isprintable()) or "#" in text:  # a comment hides
        raise ExprError(f"bad character in {s!r}")
    emitter = _Emitter(text)
    try:
        with warnings.catch_warnings():  # a warning of the parser is an error of the formula
            warnings.simplefilter("error", SyntaxWarning)
            tree = ast.parse(text, mode="eval")
        src, p, q, k = emitter.emit(tree.body)
        if ints:
            if not emitter.real:
                raise ExprError(f"{s!r} is not a real formula")
            p, q = (_scaled(p, k), q or "1") if k >= 0 else (p, _times(q, f"_D**{-k}"))
            src = f"({p}, {q})"
        return emitter, compile(src, "<formula>", "eval")
    except SyntaxError as ex:
        raise ExprError(f"{s!r}: {ex.msg}") from None
    except (RecursionError, MemoryError):  # the parser's stack overflow is a MemoryError
        raise ExprError(f"{s!r} is nested too deeply") from None


def _times(a, b):
    """Source of the product of two int sources, where None stands for 1."""
    return a if b is None else b if a is None else f"{a}*{b}"


def _scaled(p, k: int):
    """Source of p*D^k for k >= 0."""
    return p if k == 0 else _times(p, "_D" if k == 1 else f"_D**{k}")


def _zero():
    raise ZeroDivisionError("division by zero")


def _conj(v):
    return v if isinstance(v, (int, Fraction)) else v.conj()


def _constant(a):
    """a as an exact scalar that inverts: an int as a Fraction, a polynomial
    as its constant (a non-constant one raises ExprError)."""
    if isinstance(a, MultiPoly):
        a = a.constant_value()
        if a is None:
            raise ExprError("a non-constant polynomial has no inverse")
    return Fraction(a) if isinstance(a, int) else a


def _div(a, b):
    return a / _constant(b)


def _pow(a, n: int):
    """a ** n for a negative literal n."""
    return _constant(a) ** n


_HELPERS = {"__builtins__": {}, "_i": I,
            "_conj": _conj, "_div": _div, "_pow": _pow}
_INT_HELPERS = {"__builtins__": {}, "_zero": _zero}


@cache
def _compile(s: str):
    """(code, scope, free symbols) of a formula string, built once."""
    emitter, code = _code(s, ints=False)
    scope = {**_HELPERS, **emitter.consts}
    return code, scope, frozenset(code.co_names) - scope.keys()


@lru_cache(maxsize=1024)
def _compile_ints(s: str):
    """Code of a real formula's integer form, built once: it gives (P, Q)."""
    return _code(s, ints=True)[1]


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
