"""Lie algebras given by exact structure constants.

Brackets are stored sparsely as (i, j) -> {k: c} for i < j; the
antisymmetric completion is implicit.  Construction checks the Jacobi
identity and rejects bad tables outright.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Mapping, Sequence, Tuple

from .exactnum import common_denominator, rational_str
from . import linalg


class JacobiError(ValueError):
    """The given structure constants do not satisfy the Jacobi identity."""


class DimensionMismatch(ValueError):
    pass


BracketTable = Mapping[Tuple[int, int], Mapping[int, Fraction]]


class LieAlgebra:
    """A real Lie algebra of dimension `dim` with rational structure constants.

    `table[(i, j)][k]` is the coefficient of x_k in [x_i, x_j] for i < j
    (1-indexed).
    """

    def __init__(self, dim: int, table: BracketTable, name: str = ""):
        self.dim = dim
        self.name = name
        tidy: Dict[Tuple[int, int], Dict[int, Fraction]] = {}
        for (i, j), out in table.items():
            if not (1 <= i < j <= dim):
                raise ValueError(f"bracket indices must satisfy 1 <= i < j <= dim, got {(i, j)}")
            row = {k: Fraction(c) for k, c in out.items() if Fraction(c) != 0}
            for k in row:
                if not 1 <= k <= dim:
                    raise ValueError(f"bracket output index {k} out of range")
            if row:
                tidy[(i, j)] = row
        self.table = tidy
        if not self.jacobi_check():
            raise JacobiError(f"Jacobi identity fails for {name or 'algebra'}")

    # -- brackets ---------------------------------------------------------

    def bracket_basis(self, i: int, j: int) -> List[Fraction]:
        """[x_i, x_j] as a dense coefficient vector."""
        v = [Fraction(0)] * self.dim
        if i == j:
            return v
        sign = 1
        if i > j:
            i, j, sign = j, i, -1
        for k, c in self.table.get((i, j), {}).items():
            v[k - 1] = sign * c
        return v

    def bracket(self, u: Sequence, v: Sequence):
        """Bilinear extension of the bracket table: each row (i, j) adds
        u_i v_j - u_j v_i times its structure constants.  Only products of
        two nonzero factors are formed, and a row with neither is skipped.

        Coefficients may be Fraction, GaussianRational or MultiPoly; the
        result uses whatever ring the inputs live in and, for vectors over
        one ring, equals the dense formula in value and in repr.
        """
        if len(u) != self.dim or len(v) != self.dim:
            raise DimensionMismatch(f"expected vectors of length {self.dim}")
        zero = u[0] * 0
        out = [zero] * self.dim
        for (i, j), row in self.table.items():
            a, b, p, q = u[i - 1], v[j - 1], u[j - 1], v[i - 1]
            if a and b:
                coef = a * b - p * q if p and q else a * b
            elif p and q:
                coef = -(p * q)
            else:
                continue
            if not coef:
                continue
            for k, c in row.items():
                out[k - 1] = out[k - 1] + coef * c
        return out

    def jacobi_check(self) -> bool:
        """The Jacobi identity, summed over the nonzero structure constants.

        Each [[x_i, x_j], x_l] with [x_i, x_j] != 0 and l not in {i, j}
        enters the cyclic sum of the triple {i, j, l}, negated when l lies
        between i and j; every sum must vanish in every output x_m.
        """
        sums: Dict[Tuple[int, int, int, int], Fraction] = {}
        for (i, j), row in self.table.items():
            for l in range(1, self.dim + 1):
                if l == i or l == j:
                    continue
                triple = tuple(sorted((i, j, l)))
                sign = -1 if i < l < j else 1
                for k, c in row.items():  # [x_k, x_l] = ±table[(min, max)]
                    out = self.table.get((k, l) if k < l else (l, k), {})
                    sk = sign * c if k < l else -sign * c
                    for m, d in out.items():
                        key = triple + (m,)
                        sums[key] = sums.get(key, 0) + sk * d
        return not any(sums.values())

    # -- central series -----------------------------------------------------

    def central_series(self) -> List[int]:
        """Dimensions of the descending central series C^1 >= C^2 >= ...

        The list starts at C^1 = g and stops at the first zero term
        (included), e.g. [6, 3, 0] for a class-2 algebra of dimension 6.
        """
        n = self.dim
        basis = [[Fraction(1) if t == s else Fraction(0) for t in range(n)] for s in range(n)]
        current = basis
        dims = [n]
        while True:
            produced = []
            for g in basis:
                for v in current:
                    w = self.bracket(g, v)
                    if any(w):
                        produced.append(common_denominator(w)[0])
            if not produced:
                dims.append(0)
                return dims
            red, pivots = linalg.rref(produced)
            current = [list(map(Fraction, row)) for row in red[: len(pivots)]]
            dims.append(len(pivots))

    def nilpotency_class(self) -> int:
        dims = self.central_series()
        return len(dims) - 1

    # -- serialization ------------------------------------------------------

    def to_json(self):
        brackets = []
        for (i, j), row in sorted(self.table.items()):
            brackets.append({"i": i, "j": j,
                             "out": [{"k": k, "c": rational_str(c)}
                                     for k, c in sorted(row.items())]})
        return {"dim": self.dim, "name": self.name, "brackets": brackets}

    def __repr__(self):
        return f"LieAlgebra({self.name or self.dim})"

