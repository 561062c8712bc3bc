"""Exact dense linear algebra: products, and one elimination over the ints.

`rref` is fraction-free Gauss-Jordan elimination (Bareiss's step on every
row other than the pivot row).  `rank` eliminates int rows as they are,
and Fraction or GaussianRational rows once put over ints; it is the
package's one exact rank, of a 6x6 matrix as of a 126 x 36 constraint
Jacobian.  `modular_pivots` eliminates int rows modulo the prime 2^31 - 1
and names a minor that is nonzero there, hence over the integers: a
proven lower bound on the rank, in small ints.
"""

from __future__ import annotations

from .exactnum import GaussianRational, common_denominator


def mat_mul(A, B):
    n, m, p = len(A), len(B), len(B[0])
    if len(A[0]) != m:
        raise ValueError(f"cannot multiply {n}x{len(A[0])} by {m}x{p}")
    return [[sum((A[i][k] * B[k][j] for k in range(m) if A[i][k] and B[k][j]),
                 start=A[0][0] * 0) for j in range(p)] for i in range(n)]


def mat_vec(A, v):
    return [sum((A[i][k] * v[k] for k in range(len(v))), start=A[i][0] * 0)
            for i in range(len(A))]


def rref(rows):
    """Fraction-free Gauss-Jordan elimination of an int matrix, with
    first-nonzero pivoting; returns (new_rows, pivot_columns).

    The first len(pivot_columns) rows span the row space and the rest are
    zero.  Each of those rows has the same nonzero int d, the last pivot, in
    every pivot column, so row k / d is row k of the reduced row echelon
    form."""
    rows = [list(row) for row in rows]
    prev, pivots = 1, []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        _eliminate(rows, r, c, prev)
        prev = rows[r][c]
        pivots.append(c)
        if len(pivots) == len(rows):
            break
    return rows, pivots


def _eliminate(rows, r: int, c: int, prev: int) -> None:
    """One Bareiss step: every row i other than the pivot row becomes
    (pivot * row_i - row_i[c] * row_r) / prev, prev the previous pivot.
    Entries stay ints, minors of the input (Sylvester's identity), so a
    division with a remainder is a wrong step: it raises ArithmeticError
    instead of rounding.  Below the pivot rows, columns before c stay 0."""
    top = rows[r]
    pivot = top[c]
    for i, row in enumerate(rows):
        if i == r:
            continue
        f, lo = row[c], 0 if i < r else c + 1
        new = [0] * lo
        for a, b in zip(row[lo:], top[lo:]):
            q, rem = divmod(pivot * a - f * b, prev)
            if rem:
                raise ArithmeticError(f"inexact division by the pivot {prev}")
            new.append(q)
        rows[i] = new


PRIME = 2 ** 31 - 1


def modular_pivots(rows):
    """The rows and the columns, as indices into the int rows, of a minor
    that is nonzero modulo PRIME: forward elimination of the residues with
    first-nonzero pivoting and no inverse (row <- pivot * row - f * top
    below the pivot row, which keeps the pivot rows' minor nonzero).  A
    minor nonzero modulo a prime is nonzero over the integers, so its size
    is a lower bound on the rank, and the rank itself unless the prime
    divides every minor of the rank's size."""
    live = [(i, row) for i, row in enumerate([x % PRIME for x in row] for row in rows)
            if any(row)]
    prows, pcols = [], []
    for c in range(len(rows[0]) if rows else 0):
        r = len(prows)
        pr = next((k for k in range(r, len(live)) if live[k][1][c]), None)
        if pr is None:
            continue
        live[r], live[pr] = live[pr], live[r]
        i, top = live[r]
        pivot, lo = top[c], c + 1
        for k in range(r + 1, len(live)):
            j, row = live[k]
            f = row[c]
            if f:
                live[k] = j, [0] * lo + [(pivot * a - f * b) % PRIME
                                         for a, b in zip(row[lo:], top[lo:])]
        prows.append(i)
        pcols.append(c)
        if r + 1 == len(live):
            break
    return prows, pcols


def rank(rows) -> int:
    """The rank of int, Fraction or GaussianRational rows; int rows go to
    rref as they are, the others each over its own denominator.  A complex
    A + iB has half the rank of the real [[A, -B], [B, A]]: rows w and i*w
    span one complex line, while the real and imaginary parts of the two
    alone span a real plane."""
    if all(type(x) is int for row in rows for x in row):
        return len(rref(rows)[1])
    if not any(isinstance(x, GaussianRational) for row in rows for x in row):
        return len(rref([common_denominator(row)[0] for row in rows])[1])
    real = []
    for row in rows:
        z = [GaussianRational.coerce(x) for x in row]
        N, _ = common_denominator([part for x in z for part in (x.re, x.im)])
        re, im = N[0::2], N[1::2]
        real += [re + [-v for v in im], im + re]
    return len(rref(real)[1]) // 2
