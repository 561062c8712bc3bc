"""Moduli dimensions via the rank of the polynomial constraint map.

The set of complex structures sits inside R^36 as the zero set of the 126
components of acs.constraint_map: the 36 entries of J^2 + 1 and the 90
torsion projections ij|k.  (Some tabulations count the codomain as
R^81 x R^36; dependent rows cannot change any rank, so all 90 are kept.)
Each component is a quadratic form with int coefficients over the
algebra's denominator E, so at J = M/D one int gradient E*D*Jac is built
per point, and `jacobian_matrix` divides it into exact Fractions.

Every rank is decided in ints.  At J^2 = -1 the 36 rows of J^2 + 1 have
rank exactly 18: their differential A -> AJ + JA has as kernel the
J-antilinear maps, spanned by A_pq = D^2 E_pq + M E_pq M.  So rank Jac is
18 plus the rank of T K, T the 90 torsion rows and K the A_pq; row t of
T K, as a 6 x 6 matrix, is D^2 G_t + M^T G_t M^T, G_t gradient row t.
A minor of T K that is nonzero modulo the prime 2^31 - 1 is nonzero over
the integers, so it proves a lower bound (linalg.modular_pivots).
`jacobian_rank` eliminates the whole 90 x 36 T K so; off J^2 = -1 it
takes linalg.rank of the full int gradient.  `dimension_report`
remembers one minor per family, the pivots of T K at the family's draw
from random.Random(0), compiled once into degree-3 int forms in (M, D),
and per draw tests that k x k minor alone.  A zero minor falls back to
`jacobian_rank`, and a tangent dimension that still differs from the
catalogue's to linalg.rank, the fraction-free elimination of the full int
gradient, which is exact.  That no larger minor is nonzero, the upper
bound of the first two, is the generic rank of the family and is not
proven here; each sample record names the certificate of its rank.

The rank of a family, d(entries)/d(params), needs no sampling: each
continuous parameter is a cell p or -p of the family's matrix, so those
rows form a +-identity minor and the rank is the parameter count.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction
from typing import Callable, Dict, List, Tuple

from . import linalg
from .acs import (AlmostComplexStructure, constraint_map, integer_point, is_integrable,
                  map_denominator)
from .catalogue import AlgebraEntry, JFamily
from .exactnum import integer_code, rational_str
from .liecore import LieAlgebra

# what bounds a rank certified by a minor from above: nothing proven yet
UNPROVEN = "unproven: generic rank (ROADMAP item 9)"


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


def _torsion_on_antilinear(L: LieAlgebra, J: AlmostComplexStructure) -> List[List[int]]:
    """Ints congruent to T K at J = M/D modulo linalg.PRIME: row t, column
    p*n + q, is entry (p, q) of D^2 G_t + M^T G_t M^T, G_t the gradient of
    torsion component t as an n x n matrix; that is the sum over the
    entries a = (r, s) of G_t[a] times row a of K, D^2 at (r, s) plus
    M[r][p]*M[q][s].  It is the restriction of the torsion rows to the
    kernel of the J^2 + 1 rows only where J^2 = -1."""
    n, n2 = L.dim, L.dim ** 2
    grad, _ = _gradient(L, J)
    M, D = integer_point(J, n)
    M = [x % linalg.PRIME for x in M]
    d2 = D * D % linalg.PRIME
    K = [[M[r * n + p] * M[q * n + s] + d2 * (r == p and s == q)
          for p in range(n) for q in range(n)] for r in range(n) for s in range(n)]
    out = []
    for g in grad[n2:]:
        row = [0] * n2
        for a, v in enumerate(g):
            if v:
                row = [x + v * y for x, y in zip(row, K[a])]
        out.append(row)
    return out


def jacobian_rank(L: LieAlgebra, J: AlmostComplexStructure) -> int:
    """The rank of the exact Jacobian at J, decided in ints.  At J^2 = -1 it
    is n^2/2 plus the rank of T K modulo linalg.PRIME, which a nonzero minor
    proves from below; elsewhere, linalg.rank of the full int gradient."""
    if not J.square_check():
        return linalg.rank(_gradient(L, J)[0])
    return L.dim ** 2 // 2 + len(linalg.modular_pivots(_torsion_on_antilinear(L, J))[1])


def tangent_dim(L: LieAlgebra, J: AlmostComplexStructure) -> int:
    """n^2 minus jacobian_rank at J, a complex structure on L (else ValueError)."""
    if not is_integrable(L, J):
        raise ValueError("J is not in the zero set of the constraint map")
    return L.dim ** 2 - jacobian_rank(L, J)


def _minor_terms(terms, col: int, n: int) -> List[tuple]:
    """Entry col = p*n + q of D^2 G + M^T G M^T, G the gradient of the
    quadratic form with these (i, j, c) terms, as integer_code terms of
    degree 3 in (M, D), like terms merged: c*f_i*f_j puts c*M[j] at entry i
    of G and c*M[i] at entry j, and G's entry a = (r, s) reaches (p, q) of
    M^T G M^T through M[r][p]*M[q][s]."""
    p, q = divmod(col, n)
    merged: Dict[tuple, int] = {}
    for i, j, c in terms:
        for a, b in ((i, j), (j, i)):
            r, s = divmod(a, n)
            keys = [tuple(sorted((r * n + p, b, q * n + s)))]
            if a == col:
                keys.append((b,))
            for key in keys:
                merged[key] = merged.get(key, 0) + c
    return [(c, idx) for idx, c in merged.items() if c]


@functools.lru_cache(maxsize=64)
def _family_minor(L: LieAlgebra, fam: JFamily) -> Tuple[int, Callable]:
    """The minor of T K that dimension_report tests at each draw of fam
    (cached; the catalogue has fewer than 64 families): the pivot rows and
    columns of T K modulo linalg.PRIME at fam's draw from random.Random(0),
    so its size k is the rank measured there, and the code of its k^2
    entries as degree-3 int forms in (M, D)."""
    J = fam.instantiate(fam.random_admissible(random.Random(0)))
    if not is_integrable(L, J):
        raise ValueError(f"{fam.name}: its draw at seed 0 is not a complex structure")
    rows, cols = linalg.modular_pivots(_torsion_on_antilinear(L, J))
    n, forms = L.dim, constraint_map(L)[L.dim ** 2:]
    return len(cols), integer_code([_minor_terms(forms[t][1], col, n)
                                    for t in rows for col in cols], n * n, 3)


def _certified_dim(L: LieAlgebra, fam: JFamily, J: AlmostComplexStructure,
                   expected_dim: int) -> Tuple[int, str]:
    """The tangent dimension at J and what certified the rank behind it: the
    family's minor if it is nonzero modulo linalg.PRIME, else tangent_dim's
    modular rank; and if the dimension still differs from expected_dim,
    linalg.rank of the full int gradient."""
    if not is_integrable(L, J):
        raise ValueError("J is not in the zero set of the constraint map")
    n2 = L.dim ** 2
    k, code = _family_minor(L, fam)
    M, D = integer_point(J, L.dim)
    v = code([x % linalg.PRIME for x in M], D % linalg.PRIME)
    if len(linalg.modular_pivots([v[i:i + k] for i in range(0, k * k, k)])[1]) == k:
        dim, how = n2 // 2 - k, "minor"
    else:
        dim, how = tangent_dim(L, J), "modular"
    if dim != expected_dim:
        dim, how = n2 - linalg.rank(_gradient(L, J)[0]), "bareiss"
    return dim, how


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
                     samples: int = 10, tol: float | None = None,
                     seed: int = 0, max_resamples: int | None = None) -> Dict:
    """Sampled tangent dimensions of the moduli set along a family, each
    rank decided in ints and recorded with its certificate (`minor`,
    `modular` or `bareiss`) and what bounds it from above.  tol and
    max_resamples have no effect: no rank is decided in floating point, so
    no draw is redrawn."""
    fam = family or entry.families[0]
    rng = random.Random(seed)
    L = entry.algebra
    out = []
    # a metadata-only family has no rank certificate; its first draw raises SamplingExhausted
    prank = family_rank(fam) if fam.samplable else None
    for _ in range(samples):
        values = fam.random_admissible(rng)
        dim, how = _certified_dim(L, fam, fam.instantiate(values), entry.expected_dim)
        out.append({"params": {k: rational_str(v) for k, v in sorted(values.items())},
                    "tangent_dim": dim, "family_rank": prank,
                    "jacobian_rank": L.dim ** 2 - dim, "certified_by": how,
                    "upper_bound": "exact" if how == "bareiss" else UNPROVEN})
    dims = [r["tangent_dim"] for r in out]
    return {
        "algebra": entry.name,
        "family": fam.name,
        "expected_dim": entry.expected_dim,
        "tangent_dims": dims,
        "n_free_params": len(fam.continuous_params()),
        "agree": sum(1 for d in dims if d == entry.expected_dim),
        "samples": out,
    }
