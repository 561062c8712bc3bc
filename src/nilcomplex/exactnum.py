"""Exact arithmetic substrate: rationals, Gaussian rationals, multivariate polynomials.

Rationals are stdlib ``fractions.Fraction`` (always reduced, positive
denominator).  ``GaussianRational`` adds an exact imaginary part and is the
scalar type.  ``MultiPoly`` is a sparse multivariate polynomial with
Gaussian-rational coefficients over a named, lexicographically ordered
variable list, stored in ints: a dict from the packed exponents of each
monomial (one int, a 16-bit field per variable, the first variable in the
most significant field) to the Gaussian-integer numerator (re, im) of its
coefficient, over one positive denominator with the content removed, i.e.
the lcm of the coefficients' denominators.  An exponent is at most 32767,
which keeps the top bit of every field clear: a product past it raises
OverflowError naming the variable, and never wraps.  So ``+``, ``*``,
``**``, division by a constant, formal partial and Wirtinger derivatives,
alignment and substitution all run in ints; ``terms`` is a read view keyed
by exponent tuples, and it, ``constant_value`` and ``eval`` hand out
``GaussianRational`` values.

``common_denominator`` puts rationals over one denominator,
``reduced_common_denominator`` does so for ratios of ints (this module holds
the package's only lcm and gcd), and ``MultiPoly.integer_form`` reads a
polynomial's coefficients over theirs off the store; ``integer_code``, the
one integer evaluator of polynomials, compiles them into code that sums the
two in ints.  The group laws and the chart Jacobian are such code, and
``MultiPoly.eval`` at a rational point runs the polynomial's own, built on
first use.  ``quadratic_code`` compiles int quadratic forms the same way: it
is the one evaluator of the constraint map of ``acs``.

Every scalar answers the same protocol: ``bool()`` is the zero test,
``**`` runs the one square-and-multiply loop ``_power``, and equal values
hash alike across the rings (a real ``GaussianRational`` as its real part,
a constant ``MultiPoly`` as its constant).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from math import gcd, lcm
from operator import or_
from struct import error as StructError, pack, unpack
from types import MappingProxyType
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


def quadratic_code(forms: Sequence[tuple], size: int):
    """Straight-line code from (M, D), the size ints M of a point f = M/D over
    one denominator D, to the tuple of D^2 times each quadratic form
    (const, ((p, q, c), ...)) at f, i.e. const*D^2 + sum c*M[p]*M[q], in
    ints.  M is unpacked into locals once, so each term is two local reads."""
    m = [f"m{p}" for p in range(size)]
    rows = []
    for const, terms in forms:
        parts = [_term(c, [m[p], m[q]], 0) for p, q, c in terms]
        if const:
            parts.append(_term(const, [], 2))
        rows.append(" + ".join(parts) or "0")
    src = "\n ".join(["def code(M, D):",
                       f"({''.join(x + ', ' for x in m)}) = M",
                       "D2 = D*D",
                       f"return ({''.join(r + ', ' for r in rows)})"])
    scope = {}
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
        if isinstance(other, (int, Fraction)):  # two products, not four
            return GaussianRational(self.re * other, self.im * other)
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


# -- packed exponents: one int per monomial -----------------------------------
#
# Each variable owns a field of _BITS bits, the first variable the most
# significant, so the order of two keys is the lexicographic order of their
# exponent tuples, and a key's bytes are its fields as big-endian unsigned
# shorts.  An exponent is at most _TOP, which leaves the top bit of every
# field clear: the sum of two keys is the key of the product monomial with
# no carry between fields, and a set top bit marks an overflow.

_BITS = 16
_MASK = (1 << _BITS) - 1
_TOP = _MASK >> 1


def _pack(vs: tuple, e) -> int:
    """The key of exponent tuple e over the variables vs."""
    n = len(vs)
    if len(e) != n:
        raise ValueError("exponent arity mismatch")
    try:
        if not n or 0 <= min(e) and max(e) <= _TOP:
            return int.from_bytes(pack(f">{n}H", *e), "big")
    except (StructError, TypeError):  # a non-int exponent: named below
        pass
    for v, x in zip(vs, e):
        if not isinstance(x, int) or x < 0:
            raise ValueError(f"exponent {x!r} of {v} is not a non-negative int")
        if x > _TOP:
            raise OverflowError(f"exponent {x} of {v} exceeds {_TOP}")
    return int.from_bytes(pack(f">{n}H", *e), "big")


def _unpack(key: int, n: int) -> tuple:
    """The exponent tuple of a key over n variables."""
    return unpack(f">{n}H", key.to_bytes(2 * n, "big"))


@lru_cache(maxsize=1024)
def _layout(old: tuple, new: tuple) -> tuple:
    """How keys over the variables old move to keys over new, a sorted
    superset: one (source shift, mask, target shift) per run of variables
    that stay adjacent, each run moved as one block of fields."""
    if list(new) != sorted(new):
        raise ValueError("variable list must be sorted")
    pos = {v: i for i, v in enumerate(new)}
    for v in old:
        if v not in pos:
            raise ValueError(f"variable {v} missing from target list")
    n, m = len(old), len(new)
    blocks, i = [], 0
    while i < n:
        j = i
        while j + 1 < n and pos[old[j + 1]] == pos[old[j]] + 1:
            j += 1
        blocks.append((_BITS * (n - 1 - j), (1 << (_BITS * (j - i + 1))) - 1,
                       _BITS * (m - 1 - pos[old[j]])))
        i = j + 1
    return tuple(blocks)


@lru_cache(maxsize=1024)
def _union(a: tuple, b: tuple) -> tuple:
    """The sorted union of two variable lists."""
    return tuple(sorted(set(a) | set(b)))


def _refuse_overflow(vs: tuple, keys) -> None:
    """Raise OverflowError, naming the variable, if a sum of keys set the top
    bit of some field: an exponent past _TOP is refused, never wrapped."""
    n = len(vs)
    top = reduce(or_, keys, 0) & ((1 << (_BITS * n)) - 1) // _MASK << (_BITS - 1)
    if top:
        v = vs[n - 1 - (top.bit_length() - 1) // _BITS]
        raise OverflowError(f"exponent of {v} exceeds {_TOP}")


def _normal(num: dict, den: int) -> tuple:
    """(num, den) with the content removed: divided by the gcd of den and
    every numerator part, so that den is the lcm of the coefficients'
    denominators (1 for the zero polynomial)."""
    if den == 1:
        return num, 1
    g = den
    for re, im in num.values():
        g = gcd(g, re, im)
        if g == 1:
            return num, den
    return {k: (re // g, im // g) for k, (re, im) in num.items()}, den // g


def _scalar(x) -> tuple:
    """(re, im, den): a scalar as Gaussian-integer numerators over its
    positive denominator."""
    if isinstance(x, int):
        return x, 0, 1
    if isinstance(x, Fraction):
        return x.numerator, 0, x.denominator
    x = GaussianRational.coerce(x)
    (re, im), den = common_denominator((x.re, x.im))
    return re, im, den


def _coefficient(re: int, im: int, den: int) -> GaussianRational:
    return GaussianRational(Fraction(re, den), Fraction(im, den))


def _make(vs: tuple, num: dict, den: int) -> "MultiPoly":
    """A MultiPoly from a normalised store, without checks; the dict is
    owned by the new polynomial from now on."""
    p = object.__new__(MultiPoly)
    _set_vars(p, vs)
    _set_num(p, num)
    _set_den(p, den)
    return p


class MultiPoly:
    """Sparse polynomial over GaussianRational coefficients, stored in ints.

    Variables form a canonically (lexicographically) sorted tuple of names.
    The store maps the packed key of each monomial to the Gaussian-integer
    numerator (re, im) of its nonzero coefficient, over one positive
    denominator with no content left, so equality is structural once both
    sides are aligned to a common variable list.  ``terms`` is a read view
    keyed by exponent tuples.
    """

    __slots__ = ("vars", "_num", "_den", "_code")  # _code: integer_code of (re, im), set once

    def __init__(self, vars: Iterable[str] = (), terms: Mapping[tuple, GaussianRational] | None = None):
        vs = tuple(vars)
        if list(vs) != sorted(vs):
            raise ValueError("variable list must be sorted")
        keys, parts = [], []
        if terms:
            for e, c in terms.items():
                c = GaussianRational.coerce(c)
                if c:
                    keys.append(_pack(vs, e))
                    parts += (c.re, c.im)
        nums, den = common_denominator(parts)  # the lcm of reduced denominators has no content
        _set_vars(self, vs)
        _set_num(self, dict(zip(keys, zip(nums[::2], nums[1::2]))))
        _set_den(self, den)

    def __setattr__(self, *a):
        raise AttributeError("MultiPoly is immutable")

    @property
    def terms(self) -> Mapping[tuple, GaussianRational]:
        """Read view: exponent tuple -> nonzero coefficient."""
        n, den = len(self.vars), self._den
        return MappingProxyType({_unpack(k, n): _coefficient(re, im, den)
                                 for k, (re, im) in self._num.items()})

    # -- constructors ---------------------------------------------------

    @staticmethod
    def const(c, vars: Iterable[str] = ()) -> "MultiPoly":
        re, im, den = _scalar(c)
        return _make(tuple(sorted(vars)), {0: (re, im)} if re or im else {}, den)

    @staticmethod
    def var(name: str) -> "MultiPoly":
        return _make((name,), {1: (1, 0)}, 1)

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
        blocks = _layout(self.vars, vs)
        if len(blocks) == 1:
            shift = blocks[0][2] - blocks[0][0]  # the block is the whole key
            num = {k << shift: c for k, c in self._num.items()}
        else:
            num = {}
            for k, c in self._num.items():
                key = 0
                for src, mask, dst in blocks:
                    key |= ((k >> src) & mask) << dst
                num[key] = c
        return _make(vs, num, self._den)

    @staticmethod
    def _aligned(p: "MultiPoly", q: "MultiPoly"):
        if p.vars == q.vars:
            return p, q
        vs = _union(p.vars, q.vars)
        return p.on_vars(vs), q.on_vars(vs)

    # -- ring operations -------------------------------------------------

    def _combine(self, other, sign: int) -> "MultiPoly":
        """self + sign*other over the lcm of the two denominators."""
        q = MultiPoly.coerce(other)
        if not q._num:
            return self if q.vars == self.vars else self.on_vars(_union(self.vars, q.vars))
        if not self._num:
            q = q.on_vars(_union(self.vars, q.vars))
            return q if sign == 1 else -q
        p, q = MultiPoly._aligned(self, q)
        d1, d2 = p._den, q._den
        den = d1 if d1 == d2 else lcm(d1, d2)
        f1, f2 = den // d1, den // d2 * sign
        num = dict(p._num) if f1 == 1 else {k: (a * f1, b * f1) for k, (a, b) in p._num.items()}
        for k, (a, b) in q._num.items():
            s = num.get(k)
            if s is None:
                num[k] = (a * f2, b * f2)
            else:
                a, b = s[0] + a * f2, s[1] + b * f2
                if a or b:
                    num[k] = (a, b)
                else:
                    del num[k]
        return _make(p.vars, *_normal(num, den))

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.vars, {k: (-a, -b) for k, (a, b) in self._num.items()}, self._den)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        return MultiPoly.coerce(other) - self

    def _scaled(self, c: int, d: int, den: int) -> "MultiPoly":
        """self times the scalar (c + i*d)/den, den > 0."""
        if not (c or d):
            return _make(self.vars, {}, 1)
        num = {k: (a * c - b * d, a * d + b * c) for k, (a, b) in self._num.items()}
        return _make(self.vars, *_normal(num, self._den * den))

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            return self._scaled(*_scalar(other))
        if not (self._num and other._num):
            return _make(_union(self.vars, other.vars), {}, 1)
        p, q = MultiPoly._aligned(self, other)
        if len(p._num) < len(q._num):
            p, q = q, p  # the inner loop runs over the longer store
        if len(q._num) == 1:  # no two products share a monomial
            (k2, (c, d)), = q._num.items()
            num = {k1 + k2: (a * c - b * d, a * d + b * c) for k1, (a, b) in p._num.items()}
        else:
            num = {}
            get = num.get
            for k2, (c, d) in q._num.items():
                for k1, (a, b) in p._num.items():
                    k = k1 + k2
                    s = get(k)
                    if s is None:
                        num[k] = (a * c - b * d, a * d + b * c)
                    else:
                        num[k] = (s[0] + a * c - b * d, s[1] + a * d + b * c)
            num = {k: s for k, s in num.items() if s[0] or s[1]}
        _refuse_overflow(p.vars, num)
        return _make(p.vars, *_normal(num, p._den * q._den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Division by an exact constant only."""
        if isinstance(other, MultiPoly):
            c = other.constant_value()
            if c is None:
                raise ZeroDivisionError("polynomial division is out of scope")
            other = c
        c, d, den = _scalar(other)
        if not (c or d):
            raise ZeroDivisionError("division by zero")
        return self._scaled(den * c, -den * d, c * c + d * d)  # den/(c + i*d)

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise TypeError("nonnegative integer powers only")
        return _power(self, n, MultiPoly.const(1, self.vars))

    # -- structure -------------------------------------------------------

    def __bool__(self):
        return bool(self._num)

    def constant_value(self):
        """The polynomial's value if it is constant, else None."""
        num = self._num
        if not num:
            return ZERO
        if len(num) == 1 and 0 in num:
            return _coefficient(*num[0], self._den)
        return None

    def _used(self) -> List[bool]:
        """For each variable, whether some term has it with a nonzero exponent."""
        n, seen = len(self.vars), reduce(or_, self._num, 0)
        return [bool((seen >> (_BITS * (n - 1 - i))) & _MASK) for i in range(n)]

    def used_vars(self) -> set:
        """Variables that actually occur with a nonzero exponent."""
        return {v for v, used in zip(self.vars, self._used()) if used}

    def conj(self) -> "MultiPoly":
        """Coefficient conjugation (valid because all variables are real)."""
        return _make(self.vars, {k: (a, -b) for k, (a, b) in self._num.items()}, self._den)

    def coefficient_of(self, var: str, power: int) -> "MultiPoly":
        """Collect the coefficient of var**power (a polynomial in the rest)."""
        if var not in self.vars:
            return MultiPoly.const(0) if power else self
        i = self.vars.index(var)
        shift = _BITS * (len(self.vars) - 1 - i)
        low = (1 << shift) - 1
        num = {(k >> (shift + _BITS)) << shift | (k & low): c
               for k, c in self._num.items() if (k >> shift) & _MASK == power}
        return _make(self.vars[:i] + self.vars[i + 1:], *_normal(num, self._den))

    def __eq__(self, other):
        if not isinstance(other, (MultiPoly, int, Fraction, GaussianRational)):
            return NotImplemented
        p, q = MultiPoly._aligned(self, MultiPoly.coerce(other))
        return p._den == q._den and p._num == q._num

    def __hash__(self):
        c = self.constant_value()
        if c is not None:
            return hash(c)
        n = len(self.vars)
        return hash((self._den, frozenset(
            (tuple((v, x) for v, x in zip(self.vars, _unpack(k, n)) if x), c)
            for k, c in self._num.items())))

    def __repr__(self):
        if not self._num:
            return "MultiPoly(0)"
        bits, n = [], len(self.vars)
        for k in sorted(self._num):  # the lexicographic order of the exponent tuples
            mono = "*".join(f"{v}^{x}" if x > 1 else v
                            for v, x in zip(self.vars, _unpack(k, n)) if x)
            bits.append(f"({_coefficient(*self._num[k], self._den)!r}){'*' + mono if mono else ''}")
        return " + ".join(bits)

    # -- evaluation and derivatives ---------------------------------------

    def eval(self, env: Mapping[str, object]):
        """Substitute values (scalars or polynomials) for all variables.

        At a rational point (every bound value an int or Fraction) the
        polynomial's integer code runs; any other values go through the ring
        operations term by term, each power of a value formed once, and the
        sum of the Gaussian-integer numerators' terms is divided by the
        denominator last.  The value is a polynomial if some used variable
        has a polynomial value.
        """
        vals = [env.get(v) for v in self.vars]
        if all(x is None or type(x) is int or type(x) is Fraction for x in vals):
            return self._eval_rational(vals)
        n = len(vals)
        poly = any(used and isinstance(x, MultiPoly) for x, used in zip(vals, self._used()))
        powers, out = {}, None
        for k, (re, im) in self._num.items():
            term = _make((), {0: (re, im)}, 1) if poly else GaussianRational(re, im)
            for i, x in enumerate(_unpack(k, n)):
                if x:
                    if self.vars[i] not in env:
                        raise KeyError(f"no value for variable {self.vars[i]}")
                    power = powers.get((i, x))
                    if power is None:
                        power = powers[i, x] = vals[i] ** x if x != 1 else vals[i]
                    term = term * power
            out = term if out is None else out + term
        if out is None:
            return ZERO
        return out if self._den == 1 else out / self._den

    def integer_form(self) -> tuple:
        """(C, deg, [(e, re, im), ...]): C the lcm of the coefficients'
        denominators, deg the total degree (0 for the zero polynomial), and
        each term's exponents with its coefficient's parts times C, as ints:
        the store itself, unpacked."""
        n = len(self.vars)
        form = [(_unpack(k, n), re, im) for k, (re, im) in self._num.items()]
        return self._den, max((sum(e) for e, _, _ in form), default=0), form

    def parts(self) -> tuple:
        """(re, im): the real and imaginary parts, over the same variables."""
        return tuple(_make(self.vars, *_normal({k: (c[part], 0) for k, c in self._num.items()
                                                if c[part]}, self._den))
                     for part in (0, 1))

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
            return _make(self.vars, {}, 1)
        shift = _BITS * (len(self.vars) - 1 - self.vars.index(var))
        one = 1 << shift
        num = {k - one: (a * x, b * x) for k, (a, b) in self._num.items()
               if (x := (k >> shift) & _MASK)}
        return _make(self.vars, *_normal(num, self._den))

    def wirtinger(self, x_var: str, y_var: str, conjugate: bool = False) -> "MultiPoly":
        """d/dz (or d/dz-bar) for z = x_var + i*y_var."""
        if x_var == y_var:
            raise ValueError("Wirtinger pair must be distinct variables")
        px = self.partial(x_var)
        py = self.partial(y_var)
        s = I if conjugate else -I
        return (px + py * s) / 2


# the slots' own setters: MultiPoly.__setattr__ refuses every assignment
_set_vars, _set_num, _set_den = MultiPoly.vars.__set__, MultiPoly._num.__set__, MultiPoly._den.__set__
