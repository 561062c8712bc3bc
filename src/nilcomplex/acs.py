"""Almost complex structures: J^2 = -1, Nijenhuis torsion, the holomorphic
subalgebra m = g^(1,0) and its abelian/Heisenberg classification.

A J is an exact rational matrix, held as ints M over one denominator D
when it is built that way (a family member is) and as Fraction rows once
they are read.  J is read through one object, `constraint_map`, and an
automorphism phi through `automorphism_forms`: one walk of the structure
constants builds both, with int coefficients over one denominator E per
algebra, so at M/D each component times E*D^2 is an int.  The package's
one emitter, exactnum.integer_code, compiles each once per algebra and the
J^2 + 1 forms once per dimension into straight-line code; `square_check`,
integrability, closure of m, `constraint_values` and orbits.is_automorphism
run it and test its ints against zero, and the moduli Jacobian reads the
map's terms.  m is spanned by x~_j = x_j - i Jx_j; `nijenhuis` is the per-pair oracle."""

from __future__ import annotations

import functools
from fractions import Fraction
from itertools import chain, combinations
from typing import Dict, Iterator, List, Sequence, Tuple

from .exactnum import GaussianRational, common_denominator, integer_code, rational_str
from .liecore import DimensionMismatch, LieAlgebra
from . import linalg


class BadSquare(ValueError):
    """J^2 != -1."""


class NotClosed(ValueError):
    """The span of the x - i J x is not bracket-closed (J not integrable)."""


class Unclassifiable(ValueError):
    """m is neither abelian nor Heisenberg; the input data must be wrong."""


class AlmostComplexStructure:
    """A candidate complex structure: an exact n x n rational matrix.

    `from_integers` builds one from ints M over one denominator D without
    a Fraction; the rows are then built when first read.  `.m` hands out
    the mutable rows, so reading it makes them the truth from then on: a
    change to an entry reaches every check, so the package reads `rows()`
    and its other read-only accessors, which keep (M, D)."""

    __slots__ = ("dim", "_rows", "_ints")

    def __init__(self, entries: Sequence[Sequence[Fraction]]):
        m = [[x if type(x) is Fraction else Fraction(x) for x in row] for row in entries]
        n = len(m)
        if any(len(r) != n for r in m):
            raise ValueError("matrix must be square")
        self.dim = n
        self._rows = m
        self._ints = None

    @classmethod
    def from_integers(cls, M: List[int], D: int, n: int) -> "AlmostComplexStructure":
        """J = M/D, M the n*n integer entries row by row and D > 0 the least
        common denominator of the entries (as integer_point gives it)."""
        J = cls.__new__(cls)
        J.dim, J._rows, J._ints = n, None, (M, D)
        return J

    def rows(self) -> List[List[Fraction]]:
        """The Fraction rows, built on first read, for read-only use: J keeps (M, D)."""
        if self._rows is None:
            (M, D), n = self._ints, self.dim
            self._rows = [[Fraction(x, D) for x in M[r:r + n]] for r in range(0, n * n, n)]
        return self._rows

    @property
    def m(self) -> List[List[Fraction]]:
        rows = self.rows()
        self._ints = None  # the caller may change the rows
        return rows

    def __getitem__(self, rc: Tuple[int, int]) -> Fraction:
        r, c = rc
        return self.rows()[r - 1][c - 1]

    def column(self, j: int) -> List[Fraction]:
        return [row[j - 1] for row in self.rows()]

    def __eq__(self, other):
        if not isinstance(other, AlmostComplexStructure):
            return NotImplemented
        return self.rows() == other.rows()

    def __neg__(self):
        return AlmostComplexStructure([[-x for x in row] for row in self.rows()])

    def square_check(self) -> bool:
        """J^2 = -1: the J^2 + 1 rows of the constraint map vanish."""
        return not any(_square_code(self.dim)(*integer_point(self, self.dim)))

    def to_json(self):
        return [[rational_str(x) for x in row] for row in self.rows()]

    def __repr__(self):
        return "ACS(" + "; ".join(" ".join(rational_str(x) for x in row)
                                  for row in self.rows()) + ")"


def nijenhuis(L: LieAlgebra, J: AlmostComplexStructure, i: int, j: int) -> List[Fraction]:
    """Torsion vector N(x_i, x_j); its x_k component is the scalar equation ij|k."""
    ei = [Fraction(1) if t == i - 1 else Fraction(0) for t in range(L.dim)]
    ej = [Fraction(1) if t == j - 1 else Fraction(0) for t in range(L.dim)]
    Ji = J.column(i)
    Jj = J.column(j)
    t1 = L.bracket(Ji, Jj)
    t2 = L.bracket(ei, ej)
    rows = J.rows()
    t3 = linalg.mat_vec(rows, L.bracket(Ji, ej))
    t4 = linalg.mat_vec(rows, L.bracket(ei, Jj))
    return [a - b - c - d for a, b, c, d in zip(t1, t2, t3, t4)]


def _quadratic_form(const: int, triples):
    """const + sum c*f_p*f_q over the int triples, like terms merged, p <= q."""
    terms: Dict[Tuple[int, int], int] = {}
    for p, q, c in triples:
        if c:
            key = (p, q) if p <= q else (q, p)
            terms[key] = terms.get(key, 0) + c
    return const, tuple((p, q, c) for (p, q), c in sorted(terms.items()) if c)


def _bracket_terms(ad: Dict, n: int, i: int, j: int, k: int):
    """Entry k of [fx_i, fx_j], f the n x n matrix row by row."""
    return ((a * n + i, b * n + j, c) for (a, b, m), c in ad.items() if m == k)


def _square_forms(n: int, scale: int = 1) -> Tuple:
    """The entries of scale * (J^2 + 1) as quadratic forms; row j*n + k is entry (k, j)."""
    return tuple(_quadratic_form(scale * (k == j),
                                 ((k * n + r, r * n + j, scale) for r in range(n)))
                 for j in range(n) for k in range(n))


def _form_code(forms: Sequence[Tuple], size: int):
    """The forms in size variables, compiled: (M, D) -> D^2 times each at M/D, in ints."""
    return integer_code([[(c, (p, q)) for p, q, c in terms] + [(const, ())] * bool(const)
                         for const, terms in forms], size, 2)


@functools.cache
def _square_code(n: int):
    """The J^2 + 1 forms of an n x n J, compiled (cached): (M, D) -> D^2
    times each entry, in ints."""
    return _form_code(_square_forms(n), n * n)


@functools.cache
def map_denominator(L: LieAlgebra) -> int:
    """E, the lcm of the structure-constant denominators (cached): the
    components of constraint_map(L) are E times the constraint map."""
    return common_denominator([c for row in L.table.values() for c in row.values()])[1]


@functools.cache
def _structure_constants(L: LieAlgebra) -> Dict[Tuple[int, int, int], int]:
    """{(a, b, m): c} for E*[x_a, x_b] = ... + c x_m, c != 0, 0-indexed and in
    ints (cached): the one walk of the table that both bracket maps read."""
    n, E = L.dim, map_denominator(L)
    return {(a, b, m): int(E * c) for a in range(n) for b in range(n)
            for m, c in enumerate(L.bracket_basis(a + 1, b + 1)) if c}


@functools.cache
def constraint_map(L: LieAlgebra) -> Tuple:
    """The 126 components of J -> (J^2 + 1, N), times E, as quadratic forms
    with int coefficients (cached); E is map_denominator(L).

    With f the entries of J row by row (f[r*n + c] = J[r][c]), a component
    (const, ((p, q, c), ...)) has the value (const + sum c*f_p*f_q) / E.
    Row j*n + k is entry (k, j) of J^2 + 1; then come the torsion vectors
    N(x_i, x_j) = [Jx_i, Jx_j] - [x_i, x_j] - J[Jx_i, x_j] - J[x_i, Jx_j]
    for i < j, one row per component.
    """
    n, ad = L.dim, _structure_constants(L)
    return _square_forms(n, map_denominator(L)) + tuple(
        _quadratic_form(-ad.get((i, j, k), 0), chain(
            _bracket_terms(ad, n, i, j, k),
            ((k * n + m, a * n + i, -c) for (a, b, m), c in ad.items() if b == j),
            ((k * n + m, b * n + j, -c) for (a, b, m), c in ad.items() if a == i)))
        for i in range(n) for j in range(i + 1, n) for k in range(n))


@functools.cache
def automorphism_forms(L: LieAlgebra) -> Tuple:
    """The nonzero components of E*([phi x_i, phi x_j] - phi[x_i, x_j]), i < j, as forms
    in phi's n*n entries and one more variable, 1, that carries the linear part (cached)."""
    n, ad = L.dim, _structure_constants(L)
    forms = (_quadratic_form(0, chain(
        ((k * n + m, n * n, -c) for (a, b, m), c in ad.items() if (a, b) == (i, j)),
        _bracket_terms(ad, n, i, j, k)))
        for i in range(n) for j in range(i + 1, n) for k in range(n))
    return tuple(form for form in forms if form[1])


def integer_point(J: AlmostComplexStructure, n: int) -> Tuple[List[int], int]:
    """(M, D) with J = M/D over one common denominator D, the lcm of the
    entries' denominators, M the integer entries row by row: the stored
    form if J has one, else from its rows.  J must be n x n."""
    if J.dim != n:
        raise DimensionMismatch(f"expected a {n}x{n} matrix")
    if J._ints is not None:
        M, D = J._ints
        return list(M), D
    return common_denominator([x for row in J._rows for x in row])


@functools.cache
def _constraint_code(L: LieAlgebra):
    """constraint_map(L), compiled (cached): (M, D) -> E*D^2 times each
    component at J = M/D, in ints."""
    return _form_code(constraint_map(L), L.dim * L.dim)


@functools.cache
def automorphism_code(L: LieAlgebra):
    """automorphism_forms(L), compiled (cached): code(M + [D], D) at phi = M/D."""
    return _form_code(automorphism_forms(L), L.dim * L.dim + 1)


def constraint_values(L: LieAlgebra, J: AlmostComplexStructure) -> Iterator[Fraction]:
    """The components of the constraint map at J, in order, as Fractions
    made lazily from one run of the compiled map."""
    M, D = integer_point(J, L.dim)
    scale = map_denominator(L) * D * D
    return (Fraction(v, scale) for v in _constraint_code(L)(M, D))


def is_integrable(L: LieAlgebra, J: AlmostComplexStructure) -> bool:
    """J^2 = -1 and N = 0: every component of the compiled map is zero.  All
    126 are computed in one run; none is skipped after a nonzero one."""
    return not any(_constraint_code(L)(*integer_point(J, L.dim)))


def m_subalgebra(L: LieAlgebra, J: AlmostComplexStructure) -> List[List[GaussianRational]]:
    """The generators x~_j = x_j - i Jx_j (j = 1..n) of m = g^(1,0), as complex
    vectors.  For J^2 = -1 they span a subalgebra exactly when N = 0."""
    for row, v in enumerate(_constraint_code(L)(*integer_point(J, L.dim))):
        if v:
            if row < L.dim ** 2:
                raise BadSquare("J^2 != -1")
            raise NotClosed("m is not a subalgebra; J is not integrable")
    rows = J.rows()
    return [[GaussianRational(int(k == j), -rows[k][j]) for k in range(L.dim)]
            for j in range(L.dim)]


ABELIAN = "abelian"
HEISENBERG = "heisenberg"


def classify_m(L: LieAlgebra, J: AlmostComplexStructure) -> str:
    """Classify m: abelian, or (derived dim 1 and central) Heisenberg."""
    gens = m_subalgebra(L, J)
    derived = [w for w in (L.bracket(u, v) for u, v in combinations(gens, 2))
               if any(w)]
    if not derived:
        return ABELIAN
    dim = linalg.rank(derived)
    if dim != 1:
        raise Unclassifiable(f"derived algebra of m has dimension {dim}")
    if any(any(L.bracket(derived[0], g)) for g in gens):
        raise Unclassifiable("derived algebra of m is not central in m")
    return HEISENBERG


def check_m_table(L: LieAlgebra, J: AlmostComplexStructure,
                  claimed: Dict[Tuple[int, int], Sequence[GaussianRational]]) -> bool:
    """Exact check of a claimed bracket table [x~_i, x~_j] = sum_k c_k x~_k.

    Pairs missing from `claimed` are asserted to bracket to zero.
    """
    m = m_subalgebra(L, J)
    for i in range(1, L.dim + 1):
        for j in range(i + 1, L.dim + 1):
            lhs = L.bracket(m[i - 1], m[j - 1])
            rhs = [GaussianRational(0)] * L.dim
            for k, c in enumerate(claimed.get((i, j)) or ()):
                c = GaussianRational.coerce(c)
                if c:
                    rhs = [r + c * gc for r, gc in zip(rhs, m[k])]
            if any(a != b for a, b in zip(lhs, rhs)):
                return False
    return True
