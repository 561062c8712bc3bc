"""Exact arithmetic substrate: rationals, Gaussian rationals, multivariate polynomials.

Rationals are stdlib ``fractions.Fraction`` (always reduced, positive
denominator).  ``GaussianRational`` adds an exact imaginary part, and
``MultiPoly`` is a sparse multivariate polynomial with Gaussian-rational
coefficients over a named, lexicographically ordered variable list.
Formal partial and Wirtinger derivatives are exact.  ``common_denominator``
puts rationals over one denominator, ``reduced_common_denominator`` does so
for ratios of ints (the two hold the package's only lcm and gcd), and
``MultiPoly.integer_form`` puts a polynomial's coefficients over theirs;
``integer_code``, the one integer evaluator of polynomials, compiles them
into code that sums the two in ints.  The group laws and the chart
Jacobian are such code, and ``MultiPoly.eval`` at a rational point runs the
polynomial's own, built on first use.

Every scalar answers the same protocol: ``bool()`` is the zero test,
``**`` runs the one square-and-multiply loop ``_power``, and equal values
hash alike across the rings (a real ``GaussianRational`` as its real part,
a constant ``MultiPoly`` as its constant).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, List, Mapping, Sequence


def rational_str(q: Fraction) -> str:
    """Serialize a rational as "p" or "p/q"."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def common_denominator(values) -> tuple:
    """(N, D) with values[k] = N[k]/D for ints and Fractions: D the lcm of
    their denominators, N the scaled numerators."""
    return _over_lcm([x.as_integer_ratio() for x in values])  # one call, not two properties


def reduced_common_denominator(pairs) -> tuple:
    """(N, D) with P/Q = N[k]/D for each (P, Q) of pairs, Q a nonzero int:
    each ratio is reduced by its gcd first, so D is the lcm of the reduced
    denominators, as common_denominator gives for the same rationals.  A
    negative Q needs no sign step: the lcm is positive, and dividing it by
    Q carries the sign into the numerator."""
    ratios = []
    for p, q in pairs:
        g = gcd(p, q)
        ratios.append((p // g, q // g))
    return _over_lcm(ratios)


def _over_lcm(ratios) -> tuple:
    """(N, D) over D, the lcm of the denominators of the (n, d) ratios."""
    # lcm is folded pairwise: one call over an unpacked generator raised
    # the process's peak RSS by about 1 MB over a long run of chart checks
    D = 1
    for _, d in ratios:
        D = lcm(D, d)
    return [n * (D // d) for n, d in ratios], D


def _term(k: int, factors: List[str], pad: int) -> str:
    """Source of the integer k times factors times D^pad."""
    src = "*".join(factors + [f"D{pad}"] * bool(pad))
    if not src:
        return str(k)
    return src if k == 1 else f"-{src}" if k == -1 else f"{k}*{src}"


def integer_code(polys: Sequence["MultiPoly"], names: Sequence[str]):
    """Straight-line code from int or Fraction values of names to one Fraction
    per polynomial (rational coefficients only): over the values' common
    denominator D, with numerators n, it sums k_e n^e D^(deg - |e|) in ints
    over C D^deg, (C, deg, k_e) the integer form.  Values are named by
    position and each sum is one flat list: no name or length can break it."""
    n = {v: f"n{i}" for i, v in enumerate(names)}
    rows, top = [], 1
    for p in polys:
        C, deg, form = p.integer_form()
        if any(k_im for _, _, k_im in form):
            raise ValueError("compiled coefficients must be rational")
        top = max(top, deg)
        terms = [_term(k, [n[v] for v, x in zip(p.vars, e) for _ in range(x)], deg - sum(e))
                 for e, k, _ in form]
        rows.append(f"F(sum([{', '.join(terms)}]), {_term(C, [], deg)})")
    src = "\n ".join(["def code(args):",
                       f"[{', '.join(n.values())}], D1 = common_denominator(args)",
                       *(f"D{k} = D{k - 1}*D1" for k in range(2, top + 1)),
                       f"return [{', '.join(rows)}]"])
    scope = {"F": Fraction, "common_denominator": common_denominator}
    exec(src, scope)
    return scope["code"]


def _power(x, n: int, one):
    """x ** n for n >= 0 by square-and-multiply: floor(log2 n) squarings."""
    out = one
    while n:
        if n & 1:
            out = out * x
        n >>= 1
        if n:
            x = x * x
    return out


class GaussianRational:
    """Exact complex number re + i*im with rational re, im."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", re if type(re) is Fraction else Fraction(re))
        object.__setattr__(self, "im", im if type(im) is Fraction else Fraction(im))

    def __setattr__(self, *a):
        raise AttributeError("GaussianRational is immutable")

    @staticmethod
    def coerce(x) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, (int, Fraction)):
            return GaussianRational(x)
        raise TypeError(f"cannot coerce {type(x).__name__} to GaussianRational")

    def __add__(self, other):
        if isinstance(other, MultiPoly):
            return NotImplemented
        o = GaussianRational.coerce(other)
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        if isinstance(other, MultiPoly):
            return NotImplemented
        o = GaussianRational.coerce(other)
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return GaussianRational.coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, MultiPoly):
            return NotImplemented
        o = GaussianRational.coerce(other)
        return GaussianRational(self.re * o.re - self.im * o.im,
                                self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = GaussianRational.coerce(other)
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return GaussianRational((self.re * o.re + self.im * o.im) / n,
                                (self.im * o.re - self.re * o.im) / n)

    def __rtruediv__(self, other):
        return GaussianRational.coerce(other) / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("integer powers only")
        if n < 0:
            return ONE / _power(self, -n, ONE)
        return _power(self, n, ONE)

    def conj(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def __eq__(self, other):
        try:
            o = GaussianRational.coerce(other)
        except TypeError:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im)) if self.im else hash(self.re)

    def __bool__(self):
        return bool(self.re or self.im)

    def __repr__(self):
        if self.im == 0:
            return f"GQ({rational_str(self.re)})"
        return f"GQ({rational_str(self.re)}, {rational_str(self.im)})"


I = GaussianRational(0, 1)

ZERO = GaussianRational(0)
ONE = GaussianRational(1)


class MultiPoly:
    """Sparse polynomial over GaussianRational coefficients.

    Variables form a canonically (lexicographically) sorted tuple of names;
    terms map dense exponent tuples to nonzero coefficients, so equality is
    structural once both sides are aligned to a common variable list.
    """

    __slots__ = ("vars", "terms", "_code")  # _code: integer_code of (re, im), set once

    def __init__(self, vars: Iterable[str] = (), terms: Mapping[tuple, GaussianRational] | None = None):
        vs = tuple(vars)
        if list(vs) != sorted(vs):
            raise ValueError("variable list must be sorted")
        object.__setattr__(self, "vars", vs)
        tt = {}
        if terms:
            for e, c in terms.items():
                c = GaussianRational.coerce(c)
                if c:
                    if len(e) != len(vs):
                        raise ValueError("exponent arity mismatch")
                    tt[tuple(e)] = c
        object.__setattr__(self, "terms", tt)

    def __setattr__(self, *a):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def const(c, vars: Iterable[str] = ()) -> "MultiPoly":
        vs = tuple(sorted(vars))
        c = GaussianRational.coerce(c)
        if not c:
            return MultiPoly(vs)
        return MultiPoly(vs, {(0,) * len(vs): c})

    @staticmethod
    def var(name: str) -> "MultiPoly":
        return MultiPoly((name,), {(1,): ONE})

    @staticmethod
    def coerce(x) -> "MultiPoly":
        if isinstance(x, MultiPoly):
            return x
        return MultiPoly.const(x)

    # -- alignment ------------------------------------------------------

    def on_vars(self, vars: Iterable[str]) -> "MultiPoly":
        """Re-express over a (sorted) superset of the current variables."""
        vs = tuple(vars)
        if vs == self.vars:
            return self
        pos = {v: i for i, v in enumerate(vs)}
        for v in self.vars:
            if v not in pos:
                raise ValueError(f"variable {v} missing from target list")
        terms = {}
        for e, c in self.terms.items():
            ee = [0] * len(vs)
            for v, x in zip(self.vars, e):
                ee[pos[v]] = x
            terms[tuple(ee)] = c
        return MultiPoly(vs, terms)

    @staticmethod
    def _aligned(p: "MultiPoly", q: "MultiPoly"):
        if p.vars == q.vars:
            return p, q
        vs = tuple(sorted(set(p.vars) | set(q.vars)))
        return p.on_vars(vs), q.on_vars(vs)

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        p, q = MultiPoly._aligned(self, MultiPoly.coerce(other))
        terms = dict(p.terms)
        for e, c in q.terms.items():
            s = terms.get(e, ZERO) + c
            if not s:
                terms.pop(e, None)
            else:
                terms[e] = s
        return MultiPoly(p.vars, terms)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-MultiPoly.coerce(other))

    def __rsub__(self, other):
        return MultiPoly.coerce(other) - self

    def __mul__(self, other):
        p, q = MultiPoly._aligned(self, MultiPoly.coerce(other))
        terms = {}
        for e1, c1 in p.terms.items():
            for e2, c2 in q.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = terms.get(e)
                s = c1 * c2 if s is None else s + c1 * c2
                if not s:
                    terms.pop(e, None)
                else:
                    terms[e] = s
        return MultiPoly(p.vars, terms)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Division by an exact constant only."""
        if isinstance(other, MultiPoly):
            c = other.constant_value()
            if c is None:
                raise ZeroDivisionError("polynomial division is out of scope")
            other = c
        o = GaussianRational.coerce(other)
        if not o:
            raise ZeroDivisionError("division by zero")
        inv = GaussianRational(1) / o
        return self * inv

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise TypeError("nonnegative integer powers only")
        return _power(self, n, MultiPoly.const(1, self.vars))

    # -- structure -------------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def constant_value(self):
        """The polynomial's value if it is constant, else None."""
        if not self.terms:
            return ZERO
        if len(self.terms) == 1:
            (e, c), = self.terms.items()
            if all(x == 0 for x in e):
                return c
        return None

    def used_vars(self) -> set:
        """Variables that actually occur with a nonzero exponent."""
        return {v for e in self.terms for v, x in zip(self.vars, e) if x}

    def conj(self) -> "MultiPoly":
        """Coefficient conjugation (valid because all variables are real)."""
        return MultiPoly(self.vars, {e: c.conj() for e, c in self.terms.items()})

    def coefficient_of(self, var: str, power: int) -> "MultiPoly":
        """Collect the coefficient of var**power (a polynomial in the rest)."""
        if var not in self.vars:
            return MultiPoly.const(0) if power else self
        i = self.vars.index(var)
        rest = self.vars[:i] + self.vars[i + 1:]
        terms = {}
        for e, c in self.terms.items():
            if e[i] == power:
                terms[e[:i] + e[i + 1:]] = c
        return MultiPoly(rest, terms)

    def __eq__(self, other):
        if not isinstance(other, (MultiPoly, int, Fraction, GaussianRational)):
            return NotImplemented
        p, q = MultiPoly._aligned(self, MultiPoly.coerce(other))
        return p.terms == q.terms

    def __hash__(self):
        c = self.constant_value()
        if c is not None:
            return hash(c)
        return hash(frozenset((tuple((v, x) for v, x in zip(self.vars, e) if x), coef)
                              for e, coef in self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "MultiPoly(0)"
        bits = []
        for e, c in sorted(self.terms.items()):
            mono = "*".join(f"{v}^{x}" if x > 1 else v
                            for v, x in zip(self.vars, e) if x)
            bits.append(f"({c!r}){'*' + mono if mono else ''}")
        return " + ".join(bits)

    # -- evaluation and derivatives ---------------------------------------

    def eval(self, env: Mapping[str, object]):
        """Substitute values (scalars or polynomials) for all variables.

        At a rational point (every bound value an int or Fraction) the
        polynomial's integer code runs; any other values go through the ring
        operations term by term.
        """
        vals = [env.get(v) for v in self.vars]
        if all(x is None or type(x) is int or type(x) is Fraction for x in vals):
            return self._eval_rational(vals)
        out = None
        for e, c in self.terms.items():
            term = c
            for v, x in zip(self.vars, e):
                if x:
                    if v not in env:
                        raise KeyError(f"no value for variable {v}")
                    term = term * (env[v] ** x if x != 1 else env[v])
            out = term if out is None else out + term
        return ZERO if out is None else out

    def integer_form(self) -> tuple:
        """(C, deg, [(e, re, im), ...]): C the lcm of the coefficients'
        denominators, deg the total degree (0 for the zero polynomial), and
        each term's exponents with its coefficient's parts times C, as ints."""
        nums, C = common_denominator([x for c in self.terms.values() for x in (c.re, c.im)])
        return C, max(map(sum, self.terms), default=0), [*zip(self.terms, nums[::2], nums[1::2])]

    def parts(self) -> tuple:
        """(re, im): the real and imaginary parts, over the same variables."""
        return tuple(MultiPoly(self.vars, {e: getattr(c, part) for e, c in self.terms.items()})
                     for part in ("re", "im"))

    def _eval_rational(self, vals) -> GaussianRational:
        """The value at rational vals (None for an unbound variable, 0 where no
        term uses it) by the integer code of its parts, built on first use."""
        if any(x is None for x in vals):
            unbound = {v for v, x in zip(self.vars, vals) if x is None} & self.used_vars()
            if unbound:
                raise KeyError(f"no value for variable {min(unbound)}")
            vals = [0 if x is None else x for x in vals]
        try:
            code = self._code
        except AttributeError:
            code = integer_code(self.parts(), self.vars)
            object.__setattr__(self, "_code", code)
        return GaussianRational(*code(vals))

    def partial(self, var: str) -> "MultiPoly":
        """Exact formal partial derivative; zero for unknown variables."""
        if var not in self.vars:
            return MultiPoly(self.vars)
        i = self.vars.index(var)
        terms = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            ee = list(e)
            k = ee[i]
            ee[i] = k - 1
            ee = tuple(ee)
            s = terms.get(ee, ZERO) + c * k
            if not s:
                terms.pop(ee, None)
            else:
                terms[ee] = s
        return MultiPoly(self.vars, terms)

    def wirtinger(self, x_var: str, y_var: str, conjugate: bool = False) -> "MultiPoly":
        """d/dz (or d/dz-bar) for z = x_var + i*y_var."""
        if x_var == y_var:
            raise ValueError("Wirtinger pair must be distinct variables")
        px = self.partial(x_var)
        py = self.partial(y_var)
        s = I if conjugate else -I
        return (px + py * s) / 2
