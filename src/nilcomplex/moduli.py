"""Moduli dimensions via the rank of the polynomial constraint map.

The set of complex structures sits inside R^36 as the zero set of the 126
components of acs.constraint_map: the 36 entries of J^2 + 1 and the 90
torsion projections ij|k.  (Some tabulations count the codomain as
R^81 x R^36; dependent rows cannot change any rank, so all 90 are kept.)
Each component is a quadratic form, so the Jacobian is exact.  The rank is
decided from floating singular values with a two-threshold guard.  The SVD
can miss rank but never invent it, so a rank short of the expected one is
re-decided by exact elimination.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, List, Mapping, Sequence

import numpy as np

from . import linalg
from .acs import AlmostComplexStructure, constraint_map, constraint_values, is_integrable
from .catalogue import AlgebraEntry, JFamily
from .exactnum import rational_str
from .expr import evaluate
from .liecore import LieAlgebra

DEFAULT_TOL = 1e-9


class RankUnstable(RuntimeError):
    """Rank differs between tol and 10*tol; resample the point."""


def constraint_eval(L: LieAlgebra, J: AlmostComplexStructure) -> List[Fraction]:
    """Exact values of all 126 constraint components at J (see acs.constraint_map)."""
    return list(constraint_values(L, J))


def jacobian_matrix(L: LieAlgebra, J: AlmostComplexStructure) -> List[List[Fraction]]:
    """Exact 126 x 36 Jacobian of the constraint map at J; column r*n + c is
    the derivative along entry (r, c).  Each row is the gradient of a
    quadratic form: its term c*f_p*f_q adds c*f_q to column p and c*f_p to q."""
    f = [x for row in J.m for x in row]
    rows = []
    for _, terms in constraint_map(L):
        row = [Fraction(0)] * len(f)
        for p, q, c in terms:
            if f[q]:
                row[p] += c * f[q]
            if f[p]:
                row[q] += c * f[p]
        rows.append(row)
    return rows


def _svd_ranks(rows: Sequence[Sequence[Fraction]], *tols: float) -> List[int]:
    """The rank at each threshold, all counted from one SVD."""
    A = np.array([[float(x) for x in r] for r in rows], dtype=float)
    if not A.any():
        return [0] * len(tols)
    s = np.linalg.svd(A, compute_uv=False)
    if s[0] == 0.0:
        return [0] * len(tols)
    return [int(np.sum(s > tol * s[0])) for tol in tols]


def _svd_rank(rows: Sequence[Sequence[Fraction]], tol: float) -> int:
    return _svd_ranks(rows, tol)[0]


def jacobian_rank(L: LieAlgebra, J: AlmostComplexStructure,
                  tol: float = DEFAULT_TOL) -> int:
    """Rank of the exact Jacobian, decided by thresholded singular values.

    Raises RankUnstable when the decision flips between tol and 10*tol.
    """
    r1, r2 = _svd_ranks(jacobian_matrix(L, J), tol, tol * 10)
    if r1 != r2:
        raise RankUnstable(f"rank {r1} at tol vs {r2} at 10*tol")
    return r1


def tangent_dim(L: LieAlgebra, J: AlmostComplexStructure,
                tol: float = DEFAULT_TOL) -> int:
    if not is_integrable(L, J):
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
    An SVD rank short of the parameter count is re-decided exactly."""
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
    rank = _svd_rank(rows, tol)
    return rank if rank == len(params) else linalg.rank(rows)


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
        if dim != entry.expected_dim:
            dim = 36 - linalg.rank(jacobian_matrix(L, J))
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
