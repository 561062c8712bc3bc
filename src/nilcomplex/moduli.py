"""Moduli dimensions via the rank of the polynomial constraint map.

The set of complex structures sits inside R^36 as the zero set of the 126
components of acs.constraint_map: the 36 entries of J^2 + 1 and the 90
torsion projections ij|k.  (Some tabulations count the codomain as
R^81 x R^36; dependent rows cannot change any rank, so all 90 are kept.)
Each component is a quadratic form with int coefficients over the
algebra's denominator E, so at J = M/D one int gradient E*D*Jac is built
per point: `jacobian_matrix` divides it into exact Fractions, and
`jacobian_rank` decides its rank (scaling moves no relative threshold)
from floating singular values with a two-threshold guard.  The SVD can
miss rank but never invent it, so a rank short of the expected one is
re-decided exactly, by fraction-free elimination of the same int gradient
(linalg.integer_rank).

The rank of a family, d(entries)/d(params), needs no sampling: each
continuous parameter is a cell p or -p of the family's matrix, so those
rows form a +-identity minor and the rank is the parameter count.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, List, Tuple

import numpy as np

from . import linalg
from .acs import (AlmostComplexStructure, constraint_map, constraint_values, integer_point,
                  is_integrable, map_denominator)
from .catalogue import AlgebraEntry, JFamily
from .exactnum import rational_str
from .liecore import LieAlgebra

DEFAULT_TOL = 1e-9


class RankUnstable(RuntimeError):
    """Rank differs between tol and 10*tol; resample the point."""


def constraint_eval(L: LieAlgebra, J: AlmostComplexStructure) -> List[Fraction]:
    """Exact values of all 126 constraint components at J (see acs.constraint_map)."""
    return list(constraint_values(L, J))


def _gradient(L: LieAlgebra, J: AlmostComplexStructure) -> Tuple[List[List[int]], int]:
    """E*D times the Jacobian at J = M/D, in ints, and E*D.  Row r is the
    gradient of component r: its term c*f_p*f_q adds c*f_q to column p and
    c*f_p to column q; column r*n + c is the derivative along entry (r, c)."""
    M, D = integer_point(J, L.dim)
    rows = []
    for _, terms in constraint_map(L):
        row = [0] * len(M)
        for p, q, c in terms:
            row[p] += c * M[q]
            row[q] += c * M[p]
        rows.append(row)
    return rows, map_denominator(L) * D


def jacobian_matrix(L: LieAlgebra, J: AlmostComplexStructure) -> List[List[Fraction]]:
    """Exact 126 x 36 Jacobian of the constraint map at J (see _gradient)."""
    grad, scale = _gradient(L, J)
    zero = Fraction(0)
    return [[Fraction(v, scale) if v else zero for v in row] for row in grad]


def jacobian_rank(L: LieAlgebra, J: AlmostComplexStructure,
                  tol: float = DEFAULT_TOL) -> int:
    """Rank of the exact Jacobian, decided by singular values s > tol * s[0]
    of one SVD of E*D*Jac, entry for entry the float of an integer.  Raises
    RankUnstable when the decision flips between tol and 10*tol."""
    s = np.linalg.svd(np.array(_gradient(L, J)[0], dtype=float), compute_uv=False)
    r1, r2 = (int(np.sum(s > t * s[0])) for t in (tol, tol * 10))
    if r1 != r2:
        raise RankUnstable(f"rank {r1} at tol vs {r2} at 10*tol")
    return r1


def tangent_dim(L: LieAlgebra, J: AlmostComplexStructure,
                tol: float = DEFAULT_TOL) -> int:
    if not is_integrable(L, J):
        raise ValueError("J is not in the zero set of the constraint map")
    return 36 - jacobian_rank(L, J, tol)


def family_rank(family: JFamily) -> int:
    """Rank of d(entries)/d(params), read once from the formulas.

    Every continuous parameter p must be a cell whose text is p or -p, and
    no def may rebind p.  The rows of those cells then form a +-identity
    k x k minor, so the rank is k at every admissible point.  A family
    without that certificate raises ValueError naming the parameter."""
    cells = {cell.replace(" ", "") for row in family.entries for cell in row}
    defs = dict(family.defs)
    params = family.continuous_params()
    for p in params:
        if p in defs or not {p, "-" + p} & cells:
            raise ValueError(f"{family.name}: parameter {p} is not a cell "
                             f"{p} or -{p} that no def rebinds")
    return len(params)


def dimension_report(entry: AlgebraEntry, family: JFamily | None = None,
                     samples: int = 10, tol: float = DEFAULT_TOL,
                     seed: int = 0, max_resamples: int = 1) -> Dict:
    """Sampled tangent dimensions of the moduli set along a family.  Past
    max_resamples redraws of unstable SVD ranks, exact elimination decides."""
    fam = family or entry.families[0]
    rng = random.Random(seed)
    L = entry.algebra
    out = []
    resamples = 0
    # a metadata-only family has no rank certificate; its first draw raises SamplingExhausted
    prank = family_rank(fam) if fam.samplable else None
    for _ in range(samples):
        while True:
            values = fam.random_admissible(rng)
            J = fam.instantiate(values)
            try:
                dim = tangent_dim(L, J, tol)
            except RankUnstable:
                if resamples < max_resamples:
                    resamples += 1
                    continue
                dim = None
            break
        if dim != entry.expected_dim:
            dim = 36 - linalg.integer_rank(_gradient(L, J)[0])
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
