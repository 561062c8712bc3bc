"""Moduli dimensions via the rank of the polynomial constraint map.

The set of complex structures sits inside R^36 as the zero set of the 126
components of acs.constraint_map: the 36 entries of J^2 + 1 and the 90
torsion projections ij|k.  (Some tabulations count the codomain as
R^81 x R^36; dependent rows cannot change any rank, so all 90 are kept.)
Each component is a quadratic form with int coefficients over the
algebra's denominator E, so at J = M/D one int gradient E*D*Jac is built
per point: `jacobian_matrix` divides it into exact Fractions, and
`jacobian_rank` decides its rank (scaling moves no relative threshold)
from floating singular values with a two-threshold guard.  The gradient is
linear in M, so the SVD's input is one unbuffered int64 add (np.add.at) of
c*M[entry] into cells, over a flat per-algebra pattern of (cell, entry, c)
triples; while max|M| times the largest per-cell sum of |c| is below 2^63
every partial sum, in any order, is an exact int64 and the float matrix is
the one the Python ints give, bit for bit, and beyond that bound it is
built from the Python ints.  The SVD can miss rank but never invent it, so
a rank short of the expected one is re-decided exactly, by fraction-free
elimination of the same int gradient (linalg.integer_rank).  numpy is
imported on first use, by the two functions that build and decompose that
matrix, so importing the package, and every command that makes no rank
decision, does not load it.

The rank of a family, d(entries)/d(params), needs no sampling: each
continuous parameter is a cell p or -p of the family's matrix, so those
rows form a +-identity minor and the rank is the parameter count.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction
from typing import Dict, List, Tuple

from . import linalg
from .acs import (AlmostComplexStructure, constraint_map, integer_point, is_integrable,
                  map_denominator)
from .catalogue import AlgebraEntry, JFamily
from .exactnum import rational_str
from .liecore import LieAlgebra

DEFAULT_TOL = 1e-9


class RankUnstable(RuntimeError):
    """Rank differs between tol and 10*tol; resample the point."""


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


@functools.cache
def _gradient_pattern(L: LieAlgebra) -> Tuple[tuple, int, Tuple[int, int]]:
    """_gradient as one flat scatter, read once from constraint_map (cached):
    three int64 arrays (pos, src, c), where a term c*f_p*f_q of row r gives
    (r*n^2 + p, q, c) and (r*n^2 + q, p, c), so that cell pos of the flat
    E*D*Jac is the sum of c*M[src] over its triples (a cell repeats); with
    the largest per-cell sum of |c| and the matrix shape."""
    import numpy as np

    n2 = L.dim * L.dim
    cmap = constraint_map(L)
    triples = [t for r, (_, terms) in enumerate(cmap) for p, q, c in terms
               for t in ((r * n2 + p, q, c), (r * n2 + q, p, c))]
    pos, src, coef = (np.array(col, dtype=np.int64) for col in zip(*triples))
    weight = np.zeros(len(cmap) * n2, dtype=np.int64)
    np.add.at(weight, pos, np.abs(coef))
    return (pos, src, coef), int(weight.max()), (len(cmap), n2)


def jacobian_rank(L: LieAlgebra, J: AlmostComplexStructure,
                  tol: float = DEFAULT_TOL) -> int:
    """Rank of the exact Jacobian, decided by singular values s > tol * s[0]
    of one SVD of E*D*Jac, entry for entry the float of an integer.  Raises
    RankUnstable when the decision flips between tol and 10*tol.

    While max|M| times the pattern's largest sum of |c| is below 2^63, one
    unbuffered np.add.at of c*M[src] into the cells is exact: every product
    and every partial sum of a cell, in whatever order, is an int64, and the
    cast rounds each cell as float() rounds the Python int; beyond that
    bound the matrix comes from _gradient's Python ints.  Either way it is
    np.array(_gradient(L, J)[0], dtype=float), bit for bit."""
    import numpy as np

    (pos, src, coef), csum, shape = _gradient_pattern(L)
    M, _ = integer_point(J, L.dim)
    if max(map(abs, M)) * csum < 2 ** 63:
        G = np.zeros(shape[0] * shape[1], dtype=np.int64)
        np.add.at(G, pos, coef * np.array(M, dtype=np.int64)[src])
        A = G.astype(float).reshape(shape)
    else:
        A = np.array(_gradient(L, J)[0], dtype=float)
    s = np.linalg.svd(A, compute_uv=False)
    r1, r2 = (int(np.sum(s > t * s[0])) for t in (tol, tol * 10))
    if r1 != r2:
        raise RankUnstable(f"rank {r1} at tol vs {r2} at 10*tol")
    return r1


def tangent_dim(L: LieAlgebra, J: AlmostComplexStructure,
                tol: float = DEFAULT_TOL) -> int:
    if not is_integrable(L, J):
        raise ValueError("J is not in the zero set of the constraint map")
    return 36 - jacobian_rank(L, J, tol)


@functools.lru_cache(maxsize=64)
def family_rank(family: JFamily) -> int:
    """Rank of d(entries)/d(params), read once per family from the formulas
    (cached; the catalogue has fewer than 64 families).

    Every continuous parameter p must be a cell whose text is p or -p, and
    no def may rebind p.  The rows of those cells then form a +-identity
    k x k minor, so the rank is k at every admissible point.  A family
    without that certificate raises ValueError naming the parameter, on
    every call: a raise is not cached."""
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
