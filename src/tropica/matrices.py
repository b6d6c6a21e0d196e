"""Exact linear algebra over the rationals.

Everything in this package that touches matrix rank, kernels or affine hulls
must stay exact, so nothing here rounds, and every entry is read through
``to_fraction`` (integers, ``Fraction``s and "p/q" strings only).  ``rank``
clears each row of denominators and runs Bareiss fraction-free elimination
on integers (``int_rank``, which callers with integer rows use directly);
``int_nullspace`` gives the kernel of an integer matrix as primitive integer
vectors.  ``row_echelon`` and ``nullspace`` return ``Fraction`` rows,
because their entries reach the JSON output.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm

Row = tuple[Fraction, ...]

_RATIONAL = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def to_fraction(x) -> Fraction:
    """Coerce ints, Fractions and "p/q" strings; reject floats (inexact) and the rest.

    Strings must be an optionally signed integer or "p/q" with q non-zero:
    decimals ("1.5"), exponents ("1e2") and padding are not rational literals.
    """
    if type(x) is Fraction:
        return x
    if isinstance(x, float):
        raise ValueError("floating point values are not allowed; use rationals")
    if isinstance(x, bool):
        raise ValueError("booleans are not rational numbers")
    if isinstance(x, str):
        if not _RATIONAL.fullmatch(x):
            raise ValueError(f"expected an integer or a 'p/q' string, got {x!r}")
        num, _, den = x.partition("/")
        if den and int(den) == 0:
            raise ValueError(f"zero denominator in {x!r}")
        return Fraction(int(num), int(den or 1))
    if not isinstance(x, (int, Fraction)):
        raise ValueError(f"expected an integer or a 'p/q' string, got {x!r}")
    return Fraction(x)


def clear_denominators(row) -> tuple[int, ...]:
    """The row of rationals times the lcm of its denominators."""
    scale = lcm(*(x.denominator for x in row))
    return tuple(x.numerator * (scale // x.denominator) for x in row)


def row_echelon(rows) -> list[list[Fraction]]:
    """Reduced row echelon form of a copy of the rows."""
    mat = [[to_fraction(x) for x in r] for r in rows]
    if not mat:
        return mat
    ncols = len(mat[0])
    pivot_row = 0
    for col in range(ncols):
        if pivot_row >= len(mat):
            break
        pivot = next((r for r in range(pivot_row, len(mat)) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[pivot_row], mat[pivot] = mat[pivot], mat[pivot_row]
        inv = Fraction(1) / mat[pivot_row][col]
        mat[pivot_row] = [v * inv for v in mat[pivot_row]]
        for r in range(len(mat)):
            if r != pivot_row and mat[r][col] != 0:
                factor = mat[r][col]
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[pivot_row])]
        pivot_row += 1
    return mat


def rank(rows) -> int:
    """Rank of a rational matrix: ``int_rank`` of its rows cleared of denominators."""
    return int_rank([clear_denominators([to_fraction(x) for x in r]) for r in rows])


def int_rank(rows) -> int:
    """Rank of an integer matrix by Bareiss elimination (Math. Comp. 1968).

    After k pivots every remaining entry is a (k+1)-minor of the input, so
    the division by the previous pivot is exact.
    """
    mat = [row for row in rows if any(row)]
    r, previous = 0, 1
    for col in range(len(mat[0]) if mat else 0):
        pivot = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        top = mat[r]
        p = top[col]
        for i in range(r + 1, len(mat)):
            row = mat[i]
            f = row[col]
            mat[i] = tuple((p * a - f * b) // previous for a, b in zip(row, top))
        previous = p
        r += 1
    return r


def int_nullspace(rows, ncols: int) -> list[tuple[int, ...]]:
    """Basis of {x : A x = 0} for an integer matrix, as primitive integer vectors.

    Exact: Gauss-Jordan elimination on integers, where each combined row
    p * row - f * pivot_row is divided by its content, so no entry is ever
    rounded.  Afterwards row k has its pivot a_k at column c_k and zeros at
    the other pivot columns.  For each free column j, x_j = L (the lcm of
    the a_k with a non-zero entry at j) and x_{c_k} = -row_k[j] * L / a_k,
    divided by its content.  That is the ``nullspace`` vector of column j
    (1 at j, 0 at the other free columns) times the lcm of its denominators,
    and the vectors come in the same order.
    """
    mat = [list(row) for row in rows if any(row)]
    pivots: list[int] = []
    for col in range(ncols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        top = mat[r]
        p = top[col]
        for i, row in enumerate(mat):
            f = row[col]
            if i != r and f:
                combined = [p * a - f * b for a, b in zip(row, top)]
                content = gcd(*combined)
                mat[i] = [a // content for a in combined] if content else combined
        pivots.append(col)
    basis = []
    for j in range(ncols):
        if j in pivots:
            continue
        scale = lcm(*(abs(mat[k][c]) for k, c in enumerate(pivots) if mat[k][j]))
        vec = [0] * ncols
        vec[j] = scale
        for k, c in enumerate(pivots):
            vec[c] = -mat[k][j] * scale // mat[k][c]
        content = gcd(*vec)
        basis.append(tuple(a // content for a in vec))
    return basis


def nullspace(rows, ncols: int) -> list[Row]:
    """Basis of {x : A x = 0} for the matrix with the given rows."""
    mat = row_echelon(rows)
    mat = [row for row in mat if any(v != 0 for v in row)]
    pivot_cols = []
    for row in mat:
        pivot_cols.append(next(i for i, v in enumerate(row) if v != 0))
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    basis = []
    for free in free_cols:
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for row, pcol in zip(mat, pivot_cols):
            vec[pcol] = -row[free]
        basis.append(tuple(vec))
    return basis


def dot(a, b) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))

