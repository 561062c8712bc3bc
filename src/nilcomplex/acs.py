"""Almost complex structures: J^2 = -1, Nijenhuis torsion, the holomorphic
subalgebra m = g^(1,0) and its abelian/Heisenberg classification."""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .exactnum import GaussianRational, rational_str
from .liecore import LieAlgebra
from . import linalg


class BadSquare(ValueError):
    """J^2 != -1."""


class NotClosed(ValueError):
    """The span of the x - i J x is not bracket-closed (J not integrable)."""


class Unclassifiable(ValueError):
    """m is neither abelian nor Heisenberg; the input data must be wrong."""


class AlmostComplexStructure:
    """A candidate complex structure: an exact 6x6 rational matrix."""

    def __init__(self, entries: Sequence[Sequence[Fraction]]):
        m = [[Fraction(x) for x in row] for row in entries]
        n = len(m)
        if any(len(r) != n for r in m):
            raise ValueError("matrix must be square")
        self.dim = n
        self.m = m

    def __getitem__(self, rc: Tuple[int, int]) -> Fraction:
        r, c = rc
        return self.m[r - 1][c - 1]

    def column(self, j: int) -> List[Fraction]:
        return [self.m[k][j - 1] for k in range(self.dim)]

    def apply(self, v: Sequence):
        zero = v[0] * 0
        out = [zero] * self.dim
        for k in range(self.dim):
            row = self.m[k]
            acc = zero
            for j in range(self.dim):
                c = row[j]
                if c != 0:
                    acc = acc + v[j] * c
            out[k] = acc
        return out

    def __eq__(self, other):
        if not isinstance(other, AlmostComplexStructure):
            return NotImplemented
        return self.m == other.m

    def __neg__(self):
        return AlmostComplexStructure([[-x for x in row] for row in self.m])

    def square_check(self) -> bool:
        n = self.dim
        for i in range(n):
            for j in range(n):
                s = sum(self.m[i][k] * self.m[k][j] for k in range(n))
                if s != (-1 if i == j else 0):
                    return False
        return True

    def to_json(self):
        return [[rational_str(x) for x in row] for row in self.m]

    @staticmethod
    def from_json(rows) -> "AlmostComplexStructure":
        return AlmostComplexStructure([[Fraction(x) for x in row] for row in rows])

    def __repr__(self):
        return "ACS(" + "; ".join(" ".join(rational_str(x) for x in row) for row in self.m) + ")"


def nijenhuis(L: LieAlgebra, J: AlmostComplexStructure, i: int, j: int) -> List[Fraction]:
    """Torsion vector N(x_i, x_j); its x_k component is the scalar equation ij|k."""
    ei = [Fraction(1) if t == i - 1 else Fraction(0) for t in range(L.dim)]
    ej = [Fraction(1) if t == j - 1 else Fraction(0) for t in range(L.dim)]
    Ji = J.column(i)
    Jj = J.column(j)
    t1 = L.bracket(Ji, Jj)
    t2 = L.bracket(ei, ej)
    t3 = J.apply(L.bracket(Ji, ej))
    t4 = J.apply(L.bracket(ei, Jj))
    return [a - b - c - d for a, b, c, d in zip(t1, t2, t3, t4)]


def torsion_report(L: LieAlgebra, J: AlmostComplexStructure):
    """All 15 torsion vectors as JSON-friendly records."""
    out = []
    for i in range(1, L.dim + 1):
        for j in range(i + 1, L.dim + 1):
            out.append({"pair": [i, j],
                        "vector": [rational_str(x) for x in nijenhuis(L, J, i, j)]})
    return out


def is_integrable(L: LieAlgebra, J: AlmostComplexStructure) -> bool:
    if not J.square_check():
        return False
    for i in range(1, L.dim + 1):
        for j in range(i + 1, L.dim + 1):
            if any(x != 0 for x in nijenhuis(L, J, i, j)):
                return False
    return True


class HolSubalgebra:
    """m = g^(1,0): generators x~_j = x_j - i J x_j and a chosen 3-dim basis.

    `generators[j-1]` is x~_j as a complex vector; `basis_indices` lists the
    first generators (1-indexed) that are linearly independent over C, per
    the deterministic first-nonzero pivot rule.
    """

    def __init__(self, L: LieAlgebra, J: AlmostComplexStructure):
        n = L.dim
        self.L = L
        self.J = J
        gens = []
        for j in range(1, n + 1):
            col = J.column(j)
            v = [GaussianRational((1 if k == j - 1 else 0), -col[k]) for k in range(n)]
            gens.append(v)
        self.generators = gens
        rows = []
        idx = []
        for j, g in enumerate(gens, start=1):
            red, piv = linalg.rref(rows + [list(g)])
            if len(piv) > len(rows):
                rows = red[: len(piv)]
                idx.append(j)
        self.basis_indices = idx
        self._rref_rows = rows

    def complex_dim(self) -> int:
        return len(self.basis_indices)

    def contains(self, v: Sequence[GaussianRational]) -> bool:
        return linalg.rank(self._rref_rows + [list(v)]) == len(self._rref_rows)

    def closed(self) -> bool:
        idx = self.basis_indices
        for a in range(len(idx)):
            for b in range(a + 1, len(idx)):
                w = self.L.bracket(self.generators[idx[a] - 1], self.generators[idx[b] - 1])
                if not self.contains(w):
                    return False
        return True

    def bracket_in_generators(self, i: int, j: int):
        """[x~_i, x~_j] expressed over the generator family, or None if not in m.

        Returns a length-6 list of GaussianRational coefficients c with
        [x~_i, x~_j] = sum_k c_k x~_k, supported on the chosen basis indices.
        """
        w = self.L.bracket(self.generators[i - 1], self.generators[j - 1])
        cols = [self.generators[k - 1] for k in self.basis_indices]
        A = [[cols[c][r] for c in range(len(cols))] for r in range(self.L.dim)]
        sol = linalg.solve(A, list(w))
        if sol is None:
            return None
        out = [GaussianRational(0)] * self.L.dim
        for c, k in zip(sol, self.basis_indices):
            out[k - 1] = c
        return out

    def bracket_table(self) -> Dict[Tuple[int, int], List[GaussianRational]]:
        """Nonzero brackets [x~_i, x~_j] over the generators, for i < j."""
        table = {}
        for i in range(1, self.L.dim + 1):
            for j in range(i + 1, self.L.dim + 1):
                coeffs = self.bracket_in_generators(i, j)
                if coeffs is None:
                    raise NotClosed(f"[x~_{i}, x~_{j}] falls outside m")
                if any(not c.is_zero() for c in coeffs):
                    table[(i, j)] = coeffs
        return table


def m_subalgebra(L: LieAlgebra, J: AlmostComplexStructure) -> HolSubalgebra:
    if not J.square_check():
        raise BadSquare("J^2 != -1")
    m = HolSubalgebra(L, J)
    if not m.closed():
        raise NotClosed("m is not a subalgebra; J is not integrable")
    return m


ABELIAN = "abelian"
HEISENBERG = "heisenberg"


def classify_m(L: LieAlgebra, J: AlmostComplexStructure) -> str:
    """Classify m: abelian, or (derived dim 1 and central) Heisenberg."""
    m = m_subalgebra(L, J)
    idx = m.basis_indices
    derived = []
    for a in range(len(idx)):
        for b in range(a + 1, len(idx)):
            w = L.bracket(m.generators[idx[a] - 1], m.generators[idx[b] - 1])
            if any(not c.is_zero() for c in w):
                derived.append(w)
    if not derived:
        return ABELIAN
    red, piv = linalg.rref(derived)
    if len(piv) != 1:
        raise Unclassifiable(f"derived algebra of m has dimension {len(piv)}")
    z = red[0]
    for k in idx:
        w = L.bracket(z, m.generators[k - 1])
        if any(not c.is_zero() for c in w):
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
            lhs = L.bracket(m.generators[i - 1], m.generators[j - 1])
            coeffs = claimed.get((i, j))
            if coeffs is None:
                rhs = [GaussianRational(0)] * L.dim
            else:
                rhs = [GaussianRational(0)] * L.dim
                for k, c in enumerate(coeffs):
                    c = GaussianRational.coerce(c)
                    if not c.is_zero():
                        g = m.generators[k]
                        rhs = [r + c * gc for r, gc in zip(rhs, g)]
            if any(a != b for a, b in zip(lhs, rhs)):
                return False
    return True
