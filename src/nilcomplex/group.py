"""The simply connected group in second-kind canonical coordinates.

Every group-level fact is a polynomial map, derived once per algebra and
then only evaluated (P. Hall's group law; Leedham-Green & Soicher,
"Symbolic collection using Deep Thought", LMS J. Comput. Math. 1, 1998).

The derivation is normal ordering: a product of exponentials is rewritten
into the canonical form exp(c1 x_1) ... exp(c6 x_6) by repeatedly applying
the swap rule

    e^X e^Y = e^{C(X,Y)} e^Y e^X,
    C(X,Y) = [X,Y] + 1/2([X,[X,Y]] + [Y,[X,Y]])
           + 1/6([X,[X,[X,Y]]] + [Y,[Y,[X,Y]]]) + 1/4 [X,[Y,[X,Y]]],

which is exact for nilpotency class <= 4.  All catalogue algebras have a
triangular basis (brackets raise the basis index) whose tail span(x_3..x_6)
is abelian, so every swap correction splits exactly into single-generator
factors and the bubbling terminates.

Collection only ever swaps multiples c x_g, r x_k of basis vectors, and
C(c x_g, r x_k) is a sum of q c^i r^j, one term per nested bracket of
degree (i, j).  So the brackets are taken once per algebra, on the basis
in Fractions, into a cached swap table, and a swap only multiplies its
scalar monomials by the table's constants.  `commutator_correction`, the
rule for any X and Y, is the table's oracle; both expand C by one helper.

Collecting once on formal coordinates gives the law mu(a, b) = a*b, and
pushing e^{-a_1 x_1}, ..., e^{-a_n x_n} onto the identity in turn gives the
inverse e^{-a_n x_n} ... e^{-a_1 x_1}.  From mu, without further collection,
come the left-invariant fields (d mu / d b_j at b = 0) and exp (the flow of
sum v_k X_k, solved exactly in Q[t] at t = 1).  Each law is compiled once
by exactnum.polynomial_code: int or Fraction coordinates run that code and
divide by its one denominator, any other coordinates (MultiPoly ones, say)
go through MultiPoly.eval of the law's polynomials.  Each fact of an algebra (its class check, the swap
table, the three laws, the fields) is a functools.cache'd function of the
LieAlgebra, derived on first use.  `collect` stays as the derivation and
the test oracle.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import chain
from typing import Dict, List, Sequence, Tuple

from .exactnum import MultiPoly, polynomial_code
from .liecore import LieAlgebra

COORDS = ("x1", "y1", "x2", "y2", "x3", "y3")

HALF = Fraction(1, 2)
SIXTH = Fraction(1, 6)
QUARTER = Fraction(1, 4)
_RATIONAL = {int, Fraction}


class ClassTooHigh(ValueError):
    """Nilpotency class exceeds 4; the truncated swap rule is not exact."""


@cache
def _check_class(L: LieAlgebra) -> None:
    cls = L.nilpotency_class()
    if cls > 4:
        raise ClassTooHigh(f"class {cls} > 4")


def _swap_terms(L: LieAlgebra, X: Sequence, Y: Sequence) -> List[Tuple]:
    """The nested brackets of the swap rule as (bracket, i, j, weight), i and
    j the bracket's degrees in X and Y: C(X, Y) is their weighted sum."""
    _check_class(L)
    xy = L.bracket(X, Y)
    xxy, yxy = L.bracket(X, xy), L.bracket(Y, xy)
    return [(xy, 1, 1, 1), (xxy, 2, 1, HALF), (yxy, 1, 2, HALF),
            (L.bracket(X, xxy), 3, 1, SIXTH), (L.bracket(Y, yxy), 1, 3, SIXTH),
            (L.bracket(X, yxy), 2, 2, QUARTER)]


def commutator_correction(L: LieAlgebra, X: Sequence, Y: Sequence) -> List:
    """C(X, Y) in the swap rule e^X e^Y = e^C e^Y e^X (exact for class <= 4):
    the oracle of the swap table."""
    terms = _swap_terms(L, X, Y)
    return [sum(v[m] * w for v, _, _, w in terms) for m in range(L.dim)]


def _basis_vector(L: LieAlgebra, g: int, c):
    v = [Fraction(0)] * L.dim
    v[g - 1] = c
    return v


@cache
def _swap_table(L: LieAlgebra) -> Dict[Tuple[int, int], List[List[Tuple]]]:
    """The swap corrections of the basis pairs, split by degree (cached):
    for g > k, table[g, k][m] lists ((i, j), q) with
    C(c x_g, r x_k)[m] = sum q c^i r^j over the list (m 0-based)."""
    one = Fraction(1)
    table = {}
    for g in range(2, L.dim + 1):
        for k in range(1, g):
            terms = _swap_terms(L, _basis_vector(L, g, one), _basis_vector(L, k, one))
            table[g, k] = [[((i, j), v[m] * w) for v, i, j, w in terms if v[m]]
                           for m in range(L.dim)]
    return table


def _swap_correction(L: LieAlgebra, g: int, k: int, c, r) -> List:
    """C(c x_g, r x_k) for g > k from the swap table, each monomial c^i r^j
    made once."""
    monomials = {}
    C = []
    for terms in _swap_table(L)[g, k]:
        value = 0
        for (i, j), q in terms:
            if (i, j) not in monomials:
                monomials[i, j] = c ** i * r ** j
            value = value + monomials[i, j] * q
        C.append(value)
    return C


def _push_single(L: LieAlgebra, g: int, c, coords: list, start: int) -> None:
    """Normal-order e^{c x_g} * suffix(start..dim) into coords, in place."""
    if not c:
        return
    corrections = []
    for k in range(start, g):
        r = coords[k - 1]
        if not r:
            continue
        C = _swap_correction(L, g, k, c, r)
        support = [m + 1 for m in range(L.dim) if C[m]]
        if support:
            if min(support) <= max(g, k):  # corrections must live strictly deeper
                raise ValueError(f"correction of x{g}, x{k} does not go deeper")
            corrections.append((k, C))
    coords[g - 1] = coords[g - 1] + c
    for k, C in reversed(corrections):
        _push_vector(L, C, coords, start=k)


def _push_vector(L: LieAlgebra, v: Sequence, coords: list, start: int) -> None:
    support = [m + 1 for m in range(L.dim) if v[m]]
    # a correction is one generator or lies in the abelian tail span(x_t .. x_dim),
    # t past the first index of every bracket, so e^v splits exactly into
    # single-generator factors
    if len(support) > 1 and min(support) <= max((i for i, j in L.table), default=0):
        raise ValueError(f"correction on {support} does not split into generators")
    for g in reversed(support):
        _push_single(L, g, v[g - 1], coords, start)


def collect(L: LieAlgebra, a: Sequence, x: Sequence) -> List:
    """Product a*x by normal ordering: the derivation of the law and its oracle."""
    _check_class(L)
    if any(k <= j for (i, j), row in L.table.items() for k in row):
        raise ValueError("basis is not triangular; normal ordering unsupported")
    coords = list(x)
    for g in range(L.dim, 0, -1):
        _push_single(L, g, a[g - 1], coords, start=1)
    return coords


# -- the laws: derived once per algebra, then only evaluated ----------------


def _formal(prefix: str, n: int) -> List[MultiPoly]:
    return [MultiPoly.var(f"{prefix}{i}") for i in range(n)]


def _compile(polys: Sequence[MultiPoly], names: Sequence[str]):
    """The law (polys, names, code), code the polys' polynomial_code."""
    return polys, names, polynomial_code(polys, names)


def _evaluate(law, *coords) -> List:
    """law at coordinate tuples: its integer code when every coordinate is an
    int or Fraction, else MultiPoly.eval of its polynomials."""
    polys, names, code = law
    if any(len(c) != len(polys) for c in coords):
        raise ValueError("coordinate tuples must match the algebra dimension")
    args = [*chain.from_iterable(coords)]
    if _RATIONAL.issuperset(map(type, args)):
        values, S = code(args)
        return [Fraction(v, S) for v in values]
    env = dict(zip(names, args))
    return [p.eval(env) for p in polys]


@cache
def _mul(L: LieAlgebra):
    """The product law, collected once."""
    a, b = _formal("a", L.dim), _formal("b", L.dim)
    mu = [MultiPoly.coerce(p) for p in collect(L, a, b)]
    return _compile(mu, [p.vars[0] for p in a + b])


@cache
def _inv(L: LieAlgebra):
    """The inverse law: (e^{a_1 x_1} ... e^{a_n x_n})^-1 = e^{-a_n x_n} ... e^{-a_1 x_1},
    collected by pushing e^{-a_1 x_1}, then e^{-a_2 x_2}, ... onto the identity."""
    a = _formal("a", L.dim)
    coords = [0] * L.dim
    for g in range(1, L.dim + 1):
        _push_single(L, g, -a[g - 1], coords, start=1)
    return _compile([MultiPoly.coerce(p) for p in coords], [p.vars[0] for p in a])


@cache
def _exp(L: LieAlgebra):
    """The exp law: the flow c'(t) = sum_k v_k X_k(c(t)), c(0) = 0 solved
    exactly in Q[t, v] at t = 1; the triangular fields make it solvable
    coordinate by coordinate."""
    fields = left_invariant_fields(L)
    v = _formal("v", L.dim)
    sol: List[MultiPoly] = []
    for m in range(L.dim):
        env = {COORDS[j]: sol[j] for j in range(m)}
        rhs = MultiPoly.const(0)
        for k in range(L.dim):
            if not fields[k][m].used_vars() <= set(COORDS[:m]):
                raise ValueError(f"field {k + 1} is not triangular")
            rhs = rhs + MultiPoly.coerce(fields[k][m].eval(env)) * v[k]
        sol.append(_integrate_t(rhs))
    at_one = {"t": 1, **{p.vars[0]: p for p in v}}
    ex = [MultiPoly.coerce(p.eval(at_one)) for p in sol]
    return _compile(ex, [p.vars[0] for p in v])


def multiply(L: LieAlgebra, a: Sequence, x: Sequence) -> List:
    """Product a*x in second-kind coordinates."""
    return _evaluate(_mul(L), a, x)


def inverse(L: LieAlgebra, a: Sequence) -> List:
    """Coordinates of a^{-1}."""
    return _evaluate(_inv(L), a)


def exp_coords(L: LieAlgebra, v: Sequence) -> List:
    """Second-kind coordinates of exp(v) for a general Lie algebra element."""
    return _evaluate(_exp(L), v)


def normal_order(L: LieAlgebra, word: Sequence[Sequence]) -> List:
    """Second-kind coordinates of the product of exponentials exp(v) in word."""
    out = [Fraction(0)] * L.dim
    for v in word:
        out = multiply(L, out, exp_coords(L, v))
    return out


@cache
def left_invariant_fields(L: LieAlgebra) -> List[List[MultiPoly]]:
    """fields[j-1][m] = coefficient polynomial of d/d(coord_m) in X_j (cached):
    the derivative of mu_m(a, b) in b_j at b = 0, with a the coordinates."""
    mu = _mul(L)[0]
    env = {f"a{i}": MultiPoly.var(c) for i, c in enumerate(COORDS[:L.dim])}
    env.update({f"b{i}": 0 for i in range(L.dim)})
    return [[MultiPoly.coerce(p.partial(f"b{j}").eval(env)) for p in mu]
            for j in range(L.dim)]


def _integrate_t(p: MultiPoly) -> MultiPoly:
    """Exact antiderivative in the variable t with zero constant term."""
    q = p * MultiPoly.var("t")  # each term t^n becomes t^(n+1), then is divided by n + 1
    ti = q.vars.index("t")
    return MultiPoly(q.vars, {e: c * Fraction(1, e[ti]) for e, c in q.terms.items()})


# -- M5: natural coordinates on the complex Heisenberg group ---------------


def m5_matrix_multiply(a: Sequence, x: Sequence) -> List:
    """Product of unitriangular matrices [[1, z1, z3], [0, 1, z2], [0, 0, 1]].

    Coordinates are (x1, y1, x2, y2, x3, y3) with z_k = x_k + i y_k; works
    for Fraction or MultiPoly coordinates (real/imaginary parts carried
    separately).
    """
    a1, b1, a2, b2, a3, b3 = a
    c1, d1, c2, d2, c3, d3 = x
    # z3' = z3a + z3x + z1a * z2x
    re = a3 + c3 + a1 * c2 - b1 * d2
    im = b3 + d3 + a1 * d2 + b1 * c2
    return [a1 + c1, b1 + d1, a2 + c2, b2 + d2, re, im]


@cache
def m5_natural_fields() -> List[List[MultiPoly]]:
    """Left-invariant fields of the natural chart, derived once from the model."""
    formal = [MultiPoly.var(c) for c in COORDS]
    t = MultiPoly.var("t")
    zero = MultiPoly.const(0)
    gens = [[t if k == j else zero for k in range(6)] for j in range(6)]  # exp(t x_j)
    gens[1][1] = -t  # x2 is -y1 in the model's coordinates
    return [[MultiPoly.coerce(p).coefficient_of("t", 1) for p in m5_matrix_multiply(formal, g)]
            for g in gens]


def m5_natural_to_word(coords: Sequence):
    """Natural coordinates as a two-factor group word (for normal ordering)."""
    x1, y1, x2, y2, x3, y3 = coords
    zero = x1 * 0
    upper = [zero, zero, x2, y2, x3, y3]
    lower = [x1, -y1, zero, zero, zero, zero]
    return [upper, lower]
