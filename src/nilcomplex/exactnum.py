"""Exact arithmetic substrate: rationals, Gaussian rationals, multivariate polynomials.

Rationals are stdlib ``fractions.Fraction`` (always reduced, positive
denominator).  ``GaussianRational`` adds an exact imaginary part, and
``MultiPoly`` is a sparse multivariate polynomial with Gaussian-rational
coefficients over a named, lexicographically ordered variable list.
Formal partial and Wirtinger derivatives are exact.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

Rational = Fraction


def rational_str(q: Fraction) -> str:
    """Serialize a rational as "p" or "p/q"."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


class GaussianRational:
    """Exact complex number re + i*im with rational re, im."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

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
            return GaussianRational(1) / self ** (-n)
        out = GaussianRational(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conj(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_real(self) -> bool:
        return self.im == 0

    def __eq__(self, other):
        try:
            o = GaussianRational.coerce(other)
        except TypeError:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        if self.im == 0:
            return f"GQ({rational_str(self.re)})"
        return f"GQ({rational_str(self.re)}, {rational_str(self.im)})"

    def to_json(self):
        return {"re": rational_str(self.re), "im": rational_str(self.im)}

    @staticmethod
    def from_json(d) -> "GaussianRational":
        return GaussianRational(Fraction(d["re"]), Fraction(d["im"]))


I = GaussianRational(0, 1)

ZERO = GaussianRational(0)
ONE = GaussianRational(1)


def _coeff(x) -> GaussianRational:
    return GaussianRational.coerce(x)


class MultiPoly:
    """Sparse polynomial over GaussianRational coefficients.

    Variables form a canonically (lexicographically) sorted tuple of names;
    terms map dense exponent tuples to nonzero coefficients, so equality is
    structural once both sides are aligned to a common variable list.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, vars: Iterable[str] = (), terms: Mapping[tuple, GaussianRational] | None = None):
        vs = tuple(vars)
        if list(vs) != sorted(vs):
            raise ValueError("variable list must be sorted")
        object.__setattr__(self, "vars", vs)
        tt = {}
        if terms:
            for e, c in terms.items():
                c = _coeff(c)
                if not c.is_zero():
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
        c = _coeff(c)
        if c.is_zero():
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
            if s.is_zero():
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
                if s.is_zero():
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
        o = _coeff(other)
        if o.is_zero():
            raise ZeroDivisionError("division by zero")
        inv = GaussianRational(1) / o
        return self * inv

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise TypeError("nonnegative integer powers only")
        out = MultiPoly.const(1, self.vars)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- structure -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

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
        out = set()
        for e in self.terms:
            for v, x in zip(self.vars, e):
                if x:
                    out.add(v)
        return out

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
        return hash((self.vars, frozenset(self.terms.items())))

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
        """Substitute values (scalars or polynomials) for all variables."""
        out = None
        for e, c in self.terms.items():
            term = c
            for v, x in zip(self.vars, e):
                if x == 0:
                    continue
                if v not in env:
                    raise KeyError(f"no value for variable {v}")
                term = term * (env[v] ** x if x != 1 else env[v])
            out = term if out is None else out + term
        if out is None:
            return ZERO
        return out

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
            if s.is_zero():
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

    # -- serialization -----------------------------------------------------

    def to_json(self):
        return {"vars": list(self.vars),
                "terms": [[list(e), c.to_json()] for e, c in sorted(self.terms.items())]}

    @staticmethod
    def from_json(d) -> "MultiPoly":
        return MultiPoly(tuple(d["vars"]),
                         {tuple(e): GaussianRational.from_json(c) for e, c in d["terms"]})

