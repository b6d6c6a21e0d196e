"""Exact linear algebra over the rationals.

Everything in this package that touches matrix rank, kernels or affine hulls
must stay exact, so nothing here rounds.  Input is read by two readers:
rationals by ``to_fraction`` (integers, ``Fraction``s and "p/q" strings
only), and variable counts, degrees and exponents by ``to_int`` (integers
and integral ``Fraction``s only).  Rank comes from Bareiss fraction-free
elimination on integer rows (``int_rank``).  Kernels and bases come from
one integer Gauss-Jordan elimination, ``int_echelon``: ``int_nullspace``
reads the kernel of an integer matrix off it as primitive integer vectors.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm

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


def to_int(x, what: str) -> int:
    """An int that is not a bool, or an integral Fraction, as an int; ValueError otherwise."""
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    if isinstance(x, Fraction) and x.denominator == 1:
        return x.numerator
    raise ValueError(f"{what} must be an integer, got {x!r}")


def clear_denominators(row) -> tuple[int, ...]:
    """The row of rationals times the lcm of its denominators, each denominator read once."""
    dens = [x.denominator for x in row]
    scale = lcm(*dens)
    return tuple([x.numerator * (scale // d) for x, d in zip(row, dens)])


def int_rank(rows) -> int:
    """Rank of an integer matrix by Bareiss elimination (Math. Comp. 1968).

    After k pivots every remaining entry is a (k+1)-minor of the input, so
    the division by the previous pivot is exact.  The scan stops as soon as
    every non-zero row has a pivot: after r = m pivots on m rows no row is
    left to eliminate, so no later column can add one, and the rank is m.
    """
    mat = [row for row in rows if any(row)]
    m = len(mat)
    r, previous = 0, 1
    for col in range(len(mat[0]) if mat else 0):
        if r == m:
            break
        pivot = next((i for i in range(r, m) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        top = mat[r]
        p = top[col]
        for i in range(r + 1, m):
            row = mat[i]
            f = row[col]
            mat[i] = [(p * a - f * b) // previous for a, b in zip(row, top)]
        previous = p
        r += 1
    return r


def int_echelon(rows, ncols: int) -> tuple[list[list[int]], list[int]]:
    """Gauss-Jordan elimination of an integer matrix: (rows, pivots).

    Exact: each combined row p * row - f * pivot_row is divided by its
    content.  Row k has its pivot a_k at column c_k = pivots[k] and zeros at
    the other pivot columns, so row k / a_k is row k of the reduced row
    echelon form; zero rows are dropped.
    """
    mat = [list(row) for row in rows if any(row)]
    pivots: list[int] = []
    for col in range(ncols):
        r = len(pivots)
        if r == len(mat):
            break
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
    return mat[: len(pivots)], pivots


def int_nullspace(rows, ncols: int) -> list[tuple[int, ...]]:
    """Basis of {x : A x = 0} for an integer matrix, as primitive integer vectors.

    Read off ``int_echelon``: for each free column j, x_j = L (the lcm of
    the |a_k| with a non-zero entry at j) and x_{c_k} = -row_k[j] * L / a_k,
    divided by its content.  So x_j > 0, and it is the vector's last
    non-zero entry: row k of the echelon form is zero before its pivot, so
    x_{c_k}, a multiple of row_k[j], is non-zero only when c_k < j.  Divided
    by x_j the vector is 1 at j, 0 at the other free columns and
    -row_k[j] / a_k at c_k: the kernel basis vector of column j read off the
    reduced row echelon form.  The vectors come in the order of their free
    columns.
    """
    mat, pivots = int_echelon(rows, ncols)
    basis = []
    for j in range(ncols):
        if j in pivots:
            continue
        scale = lcm(*(abs(row[c]) for row, c in zip(mat, pivots) if row[j]))
        vec = [0] * ncols
        vec[j] = scale
        for row, c in zip(mat, pivots):
            vec[c] = -row[j] * scale // row[c]
        content = gcd(*vec)
        basis.append(tuple(a // content for a in vec))
    return basis
