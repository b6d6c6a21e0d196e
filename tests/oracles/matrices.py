"""Oracles of `tropica.matrices`: `Fraction` Gauss-Jordan elimination.

`ref_row_echelon` is the reduced row echelon form over `Fraction`s;
`ref_nullspace` and `ref_rank` read the kernel basis and the rank off it.
`rank` is the former `matrices.rank`, a `Fraction` front end of `int_rank`
that no code in the package calls; the oracles of the layers above rank
their rational matrices with it.  `dot` is the former `matrices.dot`, the
`Fraction` dot product the oracles and tests evaluate rows with.
"""

from fractions import Fraction

from tropica.matrices import clear_denominators, int_rank, to_fraction


def ref_row_echelon(rows):
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


def ref_nullspace(rows, ncols: int):
    """Basis of {x : A x = 0} for the matrix with the given rows."""
    mat = ref_row_echelon(rows)
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


def ref_rank(rows):
    mat = ref_row_echelon([list(map(Fraction, r)) for r in rows])
    return sum(1 for row in mat if any(v != 0 for v in row))


def rank(rows) -> int:
    """Rank of a rational matrix: ``int_rank`` of its rows cleared of denominators."""
    return int_rank([clear_denominators([to_fraction(x) for x in r]) for r in rows])


def dot(a, b) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))
