"""Exact dense linear algebra over Fraction or GaussianRational scalars.

Gaussian elimination with first-nonzero pivoting: deterministic, exact, and
adequate for the 6x6 matrices this package works with.  Larger int
matrices (a 126 x 36 constraint Jacobian) get their rank by fraction-free
elimination, which makes no Fraction.
"""

from __future__ import annotations

from fractions import Fraction


def mat_mul(A, B):
    n, m, p = len(A), len(B), len(B[0])
    if len(A[0]) != m:
        raise ValueError(f"cannot multiply {n}x{len(A[0])} by {m}x{p}")
    return [[sum((A[i][k] * B[k][j] for k in range(m) if A[i][k] and B[k][j]),
                 start=A[0][0] * 0) for j in range(p)] for i in range(n)]


def mat_vec(A, v):
    return [sum((A[i][k] * v[k] for k in range(len(v))), start=A[i][0] * 0)
            for i in range(len(A))]


def identity(n, one=Fraction(1)):
    zero = one * 0
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def rref(rows):
    """Reduced row echelon form; returns (new_rows, pivot_columns)."""
    rows = [list(r) for r in rows]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = rows[r][c]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rank(rows) -> int:
    _, pivots = rref(rows)
    return len(pivots)


def integer_rank(rows) -> int:
    """Rank of an int matrix by fraction-free (Bareiss) elimination.

    Entries stay ints: after each pivot step an entry below the pivot rows
    is a minor of the input divided by the previous pivot, which that pivot
    divides exactly (Sylvester's identity).  A division with a remainder
    is a wrong step, so it raises ArithmeticError instead of rounding."""
    rows = list(rows)  # _eliminate replaces rows; it changes none in place
    prev, r = 1, 0
    for c in range(len(rows[0]) if rows else 0):
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        _eliminate(rows, r, c, prev)
        prev, r = rows[r][c], r + 1
        if r == len(rows):
            break
    return r


def _eliminate(rows, r: int, c: int, prev: int) -> None:
    """One Bareiss step: every row i below the pivot rows[r][c] becomes, in
    columns past c, (pivot * a_ij - a_ic * a_rj) / prev, each division
    checked exact."""
    top = rows[r]
    pivot = top[c]
    for i in range(r + 1, len(rows)):
        row, f = rows[i], rows[i][c]
        new = [0] * (c + 1)
        for a, b in zip(row[c + 1:], top[c + 1:]):
            q, rem = divmod(pivot * a - f * b, prev)
            if rem:
                raise ArithmeticError(f"inexact division by the pivot {prev}")
            new.append(q)
        rows[i] = new


def inverse(A):
    """Exact inverse; raises ValueError when singular."""
    n = len(A)
    one = A[0][0] * 0 + 1
    aug = [list(A[i]) + identity(n, one)[i] for i in range(n)]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red]
