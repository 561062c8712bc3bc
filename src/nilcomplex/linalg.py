"""Exact dense linear algebra over Fraction or GaussianRational scalars.

Gaussian elimination with first-nonzero pivoting: deterministic, exact, and
adequate for the 6x6 matrices this package works with.
"""

from __future__ import annotations

from fractions import Fraction

from .exactnum import GaussianRational


def is_zero_scalar(x) -> bool:
    if isinstance(x, GaussianRational):
        return x.is_zero()
    return x == 0


def mat_mul(A, B):
    n, m, p = len(A), len(B), len(B[0])
    assert len(A[0]) == m
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
            if not is_zero_scalar(rows[i][c]):
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = rows[r][c]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and not is_zero_scalar(rows[i][c]):
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


def solve(A, b):
    """Solve A x = b exactly; returns x or None if inconsistent.

    For underdetermined systems returns one solution (free variables 0).
    """
    n = len(A)
    m = len(A[0])
    aug = [list(A[i]) + [b[i]] for i in range(n)]
    red, pivots = rref(aug)
    if m in pivots:
        return None
    zero = A[0][0] * 0
    x = [zero] * m
    for r, c in enumerate(pivots):
        x[c] = red[r][m]
    return x


def inverse(A):
    """Exact inverse; raises ValueError when singular."""
    n = len(A)
    one = A[0][0] * 0 + 1 if not isinstance(A[0][0], GaussianRational) else GaussianRational(1)
    aug = [list(A[i]) + identity(n, one)[i] for i in range(n)]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red]


def det(A):
    """Exact determinant by fraction-free-ish elimination (small n)."""
    n = len(A)
    M = [list(r) for r in A]
    one = M[0][0] * 0 + 1 if not isinstance(M[0][0], GaussianRational) else GaussianRational(1)
    d = one
    for c in range(n):
        pr = None
        for i in range(c, n):
            if not is_zero_scalar(M[i][c]):
                pr = i
                break
        if pr is None:
            return one * 0
        if pr != c:
            M[c], M[pr] = M[pr], M[c]
            d = -d
        d = d * M[c][c]
        inv = M[c][c]
        M[c] = [x / inv for x in M[c]]
        for i in range(c + 1, n):
            if not is_zero_scalar(M[i][c]):
                f = M[i][c]
                M[i] = [a - f * b for a, b in zip(M[i], M[c])]
    return d
