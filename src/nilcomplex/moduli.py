"""Moduli dimensions via the rank of the polynomial constraint map.

The set of complex structures sits inside R^36 as the zero set of 126
polynomial components: the 36 entries of J^2 + 1 and the 90 torsion
projections ij|k.  (Some tabulations count the codomain as R^81 x R^36;
duplicated or dependent rows cannot change any rank, so the full 90 are
kept.)

The map is quadratic in the entries, so its Jacobian has a closed form,
evaluated exactly from brackets of basis vectors and columns of J; only
the final rank decision uses floating singular values, guarded by a
two-threshold stability check.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, List, Mapping, Sequence

import numpy as np

from . import linalg
from .acs import AlmostComplexStructure, nijenhuis
from .catalogue import AlgebraEntry, JFamily
from .exactnum import rational_str
from .expr import evaluate
from .liecore import LieAlgebra

DEFAULT_TOL = 1e-9


class RankUnstable(RuntimeError):
    """Rank differs between tol and 10*tol; resample the point."""


def constraint_eval(L: LieAlgebra, J: AlmostComplexStructure) -> List[Fraction]:
    """Exact values of all 126 constraint components at J.

    Row j*n + k is entry (k, j) of J^2 + 1; then come the torsion vectors
    N(x_i, x_j) for i < j, one row per component.
    """
    n = L.dim
    out = []
    for j in range(n):
        sq = J.apply(J.column(j + 1))
        out.extend(sq[k] + (1 if k == j else 0) for k in range(n))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            out.extend(nijenhuis(L, J, i, j))
    return out


def jacobian_matrix(L: LieAlgebra, J: AlmostComplexStructure) -> List[List[Fraction]]:
    """Exact 126 x 36 Jacobian of the constraint map at J.

    The map is quadratic in J, so its derivative is closed form.  Column
    r*n + c is the direction of the matrix unit H = E_rc (entry j{r}{c}):
      d(J^2 + 1)(H) = JH + HJ,
      dN(H)(x_i, x_j) = [Hx_i, Jx_j] + [Jx_i, Hx_j] - H([Jx_i, x_j] + [x_i, Jx_j])
                        - J([Hx_i, x_j] + [x_i, Hx_j]).
    As Hx_i = x_r if i = c (else 0), the torsion part is column j of
    [ad x_r, J] at c = i, minus its column i at c = j, minus x_r times
    entry c of [x_i, Jx_j] - [x_j, Jx_i].
    """
    n, m = L.dim, J.m
    rows = [[Fraction(0)] * (n * n) for _ in range(n * n + n * n * (n - 1) // 2)]
    for j in range(n):
        for k in range(n):
            for r in range(n):
                rows[j * n + k][r * n + j] += m[k][r]
                rows[j * n + k][k * n + r] += m[r][j]
    ad = [[list(c) for c in zip(*(L.bracket_basis(r, t) for t in range(1, n + 1)))]
          for r in range(1, n + 1)]
    adJ = [linalg.mat_mul(a, m) for a in ad]  # adJ[r][k][j] = [x_r, Jx_j]_k
    D = [[[p - q for p, q in zip(u, v)] for u, v in zip(x, linalg.mat_mul(m, a))]
         for x, a in zip(adJ, ad)]  # D[r] = [ad x_r, J]
    base = n * n
    for i in range(n):
        for j in range(i + 1, n):
            s = [adJ[i][k][j] - adJ[j][k][i] for k in range(n)]
            for r in range(n):
                for k in range(n):
                    rows[base + k][r * n + i] += D[r][k][j]
                    rows[base + k][r * n + j] -= D[r][k][i]
                    rows[base + r][r * n + k] -= s[k]
            base += n
    return rows


def _svd_rank(rows: Sequence[Sequence[Fraction]], tol: float) -> int:
    A = np.array([[float(x) for x in r] for r in rows], dtype=float)
    if not A.any():
        return 0
    s = np.linalg.svd(A, compute_uv=False)
    if s[0] == 0.0:
        return 0
    return int(np.sum(s > tol * s[0]))


def jacobian_rank(L: LieAlgebra, J: AlmostComplexStructure,
                  tol: float = DEFAULT_TOL) -> int:
    """Rank of the exact Jacobian, decided by thresholded singular values.

    Raises RankUnstable when the decision flips between tol and 10*tol.
    """
    rows = jacobian_matrix(L, J)
    r1 = _svd_rank(rows, tol)
    r2 = _svd_rank(rows, tol * 10)
    if r1 != r2:
        raise RankUnstable(f"rank {r1} at tol vs {r2} at 10*tol")
    return r1


def tangent_dim(L: LieAlgebra, J: AlmostComplexStructure,
                tol: float = DEFAULT_TOL) -> int:
    if any(x != 0 for x in constraint_eval(L, J)):
        raise ValueError("J is not in the zero set of the constraint map")
    return 36 - jacobian_rank(L, J, tol)


class _Dual:
    """Exact dual number: a Fraction value and its Fraction gradient over
    the continuous parameters.  Supports what family entries use: + - * /,
    unary minus and integer powers (negative ones included)."""

    __slots__ = ("val", "grad")

    def __init__(self, val: Fraction, grad: List[Fraction]):
        self.val, self.grad = val, grad

    def __add__(self, o):
        if isinstance(o, _Dual):
            return _Dual(self.val + o.val, [a + b for a, b in zip(self.grad, o.grad)])
        return _Dual(self.val + o, self.grad)

    __radd__ = __add__

    def __neg__(self):
        return _Dual(-self.val, [-a for a in self.grad])

    def __sub__(self, o):
        return self + -o

    def __rsub__(self, o):
        return -self + o

    def __mul__(self, o):
        if isinstance(o, _Dual):
            return _Dual(self.val * o.val,
                         [a * o.val + self.val * b for a, b in zip(self.grad, o.grad)])
        return _Dual(self.val * o, [a * o for a in self.grad])

    __rmul__ = __mul__

    def __truediv__(self, o):
        return self * o ** -1

    def __rtruediv__(self, o):
        return self ** -1 * o

    def __pow__(self, n: int):
        d = n * self.val ** (n - 1) if n else 0
        return _Dual(self.val ** n, [a * d for a in self.grad])


def family_rank(family: JFamily, values: Mapping[str, Fraction],
                tol: float = DEFAULT_TOL) -> int:
    """Rank of d(entries)/d(params) at an admissible point.

    The partials are exact: dual numbers seeded on the continuous parameters
    are pushed through the family's defs, in order, and then its entries.
    """
    params = family.continuous_params()
    env: Dict = {k: Fraction(v) for k, v in values.items()}
    zero = [Fraction(0)] * len(params)
    for i, p in enumerate(params):
        env[p] = _Dual(env[p], zero[:i] + [Fraction(1)] + zero[i + 1:])
    for nm, e in family.defs:
        env[nm] = evaluate(e, env)
    rows = []
    for row in family.entries:
        for cell in row:
            v = evaluate(cell, env)
            rows.append(v.grad if isinstance(v, _Dual) else zero)
    return _svd_rank(rows, tol)


def dimension_report(entry: AlgebraEntry, family: JFamily | None = None,
                     samples: int = 10, tol: float = DEFAULT_TOL,
                     seed: int = 0, max_resamples: int = 1) -> Dict:
    """Sampled tangent dimensions of the moduli set along a family."""
    fam = family or entry.families[0]
    rng = random.Random(seed)
    L = entry.algebra
    out = []
    resamples = 0
    for _ in range(samples):
        while True:
            values = fam.random_admissible(rng)
            J = fam.instantiate(values)
            try:
                dim = tangent_dim(L, J, tol)
            except RankUnstable:
                resamples += 1
                if resamples > max_resamples:
                    raise
                continue
            break
        prank = family_rank(fam, values, tol)
        out.append({"params": {k: rational_str(v) for k, v in sorted(values.items())},
                    "tangent_dim": dim, "family_rank": prank})
    dims = [r["tangent_dim"] for r in out]
    return {
        "algebra": entry.name,
        "family": fam.name,
        "expected_dim": entry.expected_dim,
        "tangent_dims": dims,
        "n_free_params": len(fam.continuous_params()),
        "resamples": resamples,
        "agree": sum(1 for d in dims if d == entry.expected_dim),
        "samples": out,
    }
