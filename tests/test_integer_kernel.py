"""The integer kernel against the Fraction code it replaced.

`polyhedra._feasible_point` runs Fourier-Motzkin on integer rows,
`matrices.int_rank` runs Bareiss elimination on integer rows, and
`matrices.nullspace` reads its basis off the integer Gauss-Jordan
elimination `matrices.int_echelon`.  The Fraction versions they replaced
are kept below, verbatim apart from names, as oracles (`ref_row_echelon` is
the former `matrices.row_echelon`, `ref_nullspace` the former `nullspace`):
on seeded systems and matrices (empty and unbounded systems, zero columns
and rows, dependent, duplicate and parallel rows, no rows, `int`,
`Fraction` and "p/q" input) the new code must give the same point, or also
report the system empty, the same rank and the same kernel basis.  The rows
of `int_echelon` must be non-zero multiples of the reduced row echelon rows,
with the same pivots.

`rank` and `implicit_equality_indices` are the former `matrices.rank` and
`polyhedra.implicit_equality_indices`, `Fraction` front ends of
`int_rank` and `_int_implicit_equalities` that no code in the package
calls; they are kept here, moved verbatim, as the one copy the other test
files import.
"""

import random
from fractions import Fraction

import pytest

from tropica import polyhedra, varieties
from tropica.matrices import clear_denominators, int_echelon, int_rank, nullspace, to_fraction
from tropica.parsing import parse_polynomial
from tropica.polyhedra import (
    EQ,
    LE,
    LT,
    Polyhedron,
    _feasible_point,
    _int_feasible_point,
    _int_implicit_equalities,
    _int_point,
    feasible_point,
    int_rows,
    is_empty,
    make_polyhedron,
)

# -- oracles: the former Fraction implementations --------------------------------


def ref_normalize(cons):
    best = {}
    eqs = {}
    for coeffs, rhs, rel in cons:
        pivot = next((c for c in coeffs if c != 0), None)
        if pivot is None:
            if rel == EQ and rhs != 0:
                return None
            if rel == LE and rhs < 0:
                return None
            if rel == LT and rhs <= 0:
                return None
            continue
        if rel == EQ:
            scale = Fraction(1) / abs(pivot) * (1 if pivot > 0 else -1)
            key = tuple(c * scale for c in coeffs)
            value = rhs * scale
            if key in eqs and eqs[key] != value:
                return None
            eqs[key] = value
            continue
        scale = Fraction(1) / abs(pivot)
        key = tuple(c * scale for c in coeffs)
        value = rhs * scale
        if key in best:
            old_rhs, old_rel = best[key]
            if value < old_rhs or (value == old_rhs and rel == LT):
                best[key] = (value, rel)
        else:
            best[key] = (value, rel)
    out = [(k, v, EQ) for k, v in sorted(eqs.items())]
    out.extend((k, v, r) for k, (v, r) in sorted(best.items()))
    return out


def ref_eliminate_last(cons, n):
    j = n - 1
    kept = []
    eq_pivot = None
    with_var = []
    for coeffs, rhs, rel in cons:
        if coeffs[j] == 0:
            kept.append((coeffs[:j], rhs, rel))
        elif rel == EQ and eq_pivot is None:
            eq_pivot = (coeffs, rhs, rel)
        else:
            with_var.append((coeffs, rhs, rel))
    if eq_pivot is not None:
        pc, pb, _ = eq_pivot
        for coeffs, rhs, rel in with_var:
            factor = coeffs[j] / pc[j]
            new_coeffs = tuple(a - factor * p for a, p in zip(coeffs[:j], pc[:j]))
            kept.append((new_coeffs, rhs - factor * pb, rel))
        return ref_normalize(kept)
    lowers = [(c, b, r) for c, b, r in with_var if c[j] < 0]
    uppers = [(c, b, r) for c, b, r in with_var if c[j] > 0]
    for lc, lb, lr in lowers:
        for uc, ub, ur in uppers:
            lo_w, up_w = uc[j], -lc[j]
            coeffs = tuple(lo_w * a + up_w * b for a, b in zip(lc[:j], uc[:j]))
            rhs = lo_w * lb + up_w * ub
            rel = LT if LT in (lr, ur) else LE
            kept.append((coeffs, rhs, rel))
    return ref_normalize(kept)


def ref_value(coeffs, point):
    return sum((a * x for a, x in zip(coeffs, point)), Fraction(0))


def ref_feasible_point(cons, n):
    cons = ref_normalize(cons)
    if cons is None:
        return None
    if n == 0:
        return ()
    reduced = ref_eliminate_last(cons, n)
    if reduced is None:
        return None
    base = ref_feasible_point(reduced, n - 1)
    if base is None:
        return None
    j = n - 1
    forced = None
    lower = None
    upper = None
    for coeffs, rhs, rel in cons:
        cj = coeffs[j]
        if cj == 0:
            continue
        bound = (rhs - ref_value(coeffs[:j], base)) / cj
        if rel == EQ:
            forced = bound if forced is None else forced
            if forced != bound:
                return None
        elif cj > 0:
            strict = rel == LT
            if upper is None or bound < upper[0] or (bound == upper[0] and strict):
                upper = (bound, strict)
        else:
            strict = rel == LT
            if lower is None or bound > lower[0] or (bound == lower[0] and strict):
                lower = (bound, strict)
    if forced is not None:
        value = forced
    elif lower is None and upper is None:
        value = Fraction(0)
    elif lower is None:
        value = upper[0] - 1
    elif upper is None:
        value = lower[0] + 1
    elif lower[0] < upper[0]:
        value = (lower[0] + upper[0]) / 2
    else:
        value = lower[0]
    return base + (value,)


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


def rank(rows) -> int:
    """Rank of a rational matrix: ``int_rank`` of its rows cleared of denominators."""
    return int_rank([clear_denominators([to_fraction(x) for x in r]) for r in rows])


def implicit_equality_indices(poly: Polyhedron, point=None) -> list[int]:
    """Indices of LE constraints that hold with equality on the whole set.

    ``point`` is a feasible point already known (any one gives the same
    answer); without it one is computed.  On the empty set every LE index is
    returned.
    """
    rows = int_rows(poly)
    found = _int_feasible_point(rows, poly.n) if point is None else _int_point(point)
    if found is None:
        return [i for i, h in enumerate(poly.constraints) if h.relation == LE]
    return _int_implicit_equalities(rows, poly.n, found)


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


# -- seeded inputs ----------------------------------------------------------------


def _entry(rng, as_int: bool):
    if as_int:
        return rng.randint(-3, 3)
    return Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3, 4, 6]))


def _system(rng):
    """(constraints, n): mixed EQ/LE/LT rows with the awkward cases mixed in."""
    n = rng.randint(0, 4)
    as_int = rng.random() < 0.3
    zero_cols = {j for j in range(n) if rng.random() < 0.15}
    rows = []
    for _ in range(rng.randint(0, 7)):
        kind = rng.random()
        if rows and kind < 0.12:
            # a positive or negative multiple of an earlier row
            a, b, rel = rng.choice(rows)
            k = rng.choice([2, 3, Fraction(1, 2), -1]) if not as_int else rng.choice([2, 3, -1])
            rel = rel if k > 0 or rel == EQ else rng.choice([LE, LT])
            rows.append((tuple(k * x for x in a), k * b, rel))
            continue
        if rows and kind < 0.2:
            # the opposite half-space of an earlier row, often making the set empty or flat
            a, b, _ = rng.choice(rows)
            rows.append((tuple(-x for x in a), -b + rng.choice([0, 0, -1, 1]), rng.choice([LE, LT])))
            continue
        a = tuple(0 if j in zero_cols else _entry(rng, as_int) for j in range(n))
        if kind < 0.25:
            a = tuple(0 for _ in range(n))  # a constant row
        rel = rng.choices([EQ, LE, LT], weights=[2, 5, 3])[0]
        rows.append((a, _entry(rng, as_int), rel))
    return rows, n


def _has_ray_along_an_axis(cons, n):
    for k in range(n):
        for sign in (1, -1):
            if all(sign * a[k] == 0 if rel == EQ else sign * a[k] <= 0 for a, _, rel in cons):
                return True
    return False


def test_feasible_point_matches_fraction_oracle():
    rng = random.Random(20260601)
    outcomes = {"empty": 0, "bounded or not seen": 0, "unbounded": 0}
    for _ in range(20000):
        cons, n = _system(rng)
        expected = ref_feasible_point(cons, n)
        assert _feasible_point(cons, n) == expected, (cons, n)
        if expected is None:
            outcomes["empty"] += 1
        elif _has_ray_along_an_axis(cons, n):
            outcomes["unbounded"] += 1
        else:
            outcomes["bounded or not seen"] += 1
    assert min(outcomes.values()) > 1000, outcomes


def _matrix(rng):
    nrows, ncols = rng.randint(0, 5), rng.randint(1, 6)
    as_int = rng.random() < 0.3
    zero_cols = {j for j in range(ncols) if rng.random() < 0.15}
    rows = []
    for _ in range(nrows):
        if rows and rng.random() < 0.3:
            # a rational combination of earlier rows
            picks = rng.sample(rows, rng.randint(1, len(rows)))
            weights = [_entry(rng, as_int) for _ in picks]
            rows.append([sum((w * r[j] for w, r in zip(weights, picks)), 0) for j in range(ncols)])
        elif rng.random() < 0.05:
            rows.append([0] * ncols)
        else:
            rows.append([0 if j in zero_cols else _entry(rng, as_int) for j in range(ncols)])
    return rows


def test_rank_matches_fraction_oracle():
    rng = random.Random(20260602)
    deficient = 0
    for _ in range(20000):
        rows = _matrix(rng)
        expected = ref_rank(rows)
        assert rank(rows) == expected, rows
        deficient += expected < min(len(rows), len(rows[0]) if rows else 0)
    assert deficient > 2000


def test_rank_of_large_entries_and_tall_matrices():
    rng = random.Random(5)
    for _ in range(300):
        ncols = rng.randint(2, 8)
        rows = [[Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4)) for _ in range(ncols)]
                for _ in range(rng.randint(1, 10))]
        rows.append([sum(r[j] for r in rows[:2]) for j in range(ncols)])
        assert rank(rows) == ref_rank(rows)


def _kernel_matrix(rng):
    """(rows, ncols): rational rows with zero, duplicate, parallel and combined rows.

    About one matrix in seven has no rows, and some rows are "p/q" strings.
    """
    ncols = rng.randint(1, 6)
    rows = []
    for _ in range(rng.randint(0, 6)):
        kind = rng.random()
        if rows and kind < 0.15:
            rows.append(list(rng.choice(rows)))  # a duplicate
        elif rows and kind < 0.3:
            k = Fraction(rng.choice([-3, -2, -1, 2, 3]), rng.choice([1, 2, 5]))
            rows.append([k * x for x in rng.choice(rows)])  # a parallel row
        elif rows and kind < 0.45:
            a, b = rng.choice(rows), rng.choice(rows)
            s, t = _entry(rng, False), _entry(rng, False)
            rows.append([s * x + t * y for x, y in zip(a, b)])
        elif kind < 0.55:
            rows.append([0] * ncols)
        else:
            rows.append([_entry(rng, rng.random() < 0.3) for _ in range(ncols)])
    return [[str(x) for x in row] if rng.random() < 0.1 else row for row in rows], ncols


def test_nullspace_matches_fraction_oracle():
    rng = random.Random(20261019)
    seen = {"no rows": 0, "dependent rows": 0, "zero kernel": 0, "kernel": 0}
    for _ in range(1500):
        rows, ncols = _kernel_matrix(rng)
        expected = ref_nullspace(rows, ncols)
        got = nullspace(rows, ncols)
        assert got == expected, rows
        assert all(type(x) is Fraction for vec in got for x in vec)
        seen["no rows"] += not rows
        seen["dependent rows"] += len(rows) > ncols - len(expected)
        seen["zero kernel" if not expected else "kernel"] += 1
    assert min(seen.values()) >= 100, seen


def test_int_echelon_rows_are_multiples_of_rref_rows():
    rng = random.Random(20261020)
    signs = {1: 0, -1: 0}
    for _ in range(1000):
        rows, ncols = _kernel_matrix(rng)
        rref = [row for row in ref_row_echelon(rows) if any(row)]
        got, pivots = int_echelon([clear_denominators([to_fraction(x) for x in r]) for r in rows], ncols)
        assert pivots == [next(j for j, v in enumerate(row) if v) for row in rref], rows
        assert len(got) == len(rref)
        for row, ref, c in zip(got, rref, pivots):
            assert all(type(a) is int for a in row)
            assert row[c] != 0 and row == [row[c] * b for b in ref], rows
            signs[1 if row[c] > 0 else -1] += 1
    assert min(signs.values()) >= 100, signs


# -- exact input -------------------------------------------------------------------


@pytest.mark.parametrize(
    "call",
    [
        lambda: rank([[0.1, 1], [1, 10]]),
        lambda: rank([["1.5", 1]]),
        lambda: rank([[True, 1]]),
        lambda: nullspace([[0.5, 1]], 2),
        lambda: nullspace([[1, "1e2"]], 2),
    ],
    ids=["rank-float", "rank-decimal-string", "rank-bool", "nullspace-float", "nullspace-exponent-string"],
)
def test_matrices_reject_inexact_entries(call):
    with pytest.raises(ValueError):
        call()


def test_matrices_read_rational_strings():
    assert rank([["1/10", 1], [1, 10]]) == 1
    assert nullspace([["1/2", 1]], 2) == [(Fraction(-2), Fraction(1))]


# -- one feasible point per candidate --------------------------------------------


def _random_polyhedron(rng):
    n = rng.randint(1, 3)
    rows = []
    for _ in range(rng.randint(1, 5)):
        normal = tuple(rng.randint(-2, 2) for _ in range(n))
        rows.append((normal, rng.randint(-2, 3), EQ if rng.random() < 0.2 else LE))
    return make_polyhedron(rows, n)


def test_given_point_gives_the_same_answers():
    rng = random.Random(7)
    checked = 0
    while checked < 300:
        p = _random_polyhedron(rng)
        point = feasible_point(p)
        assert (point is None) == is_empty(p)
        if point is None:
            continue
        checked += 1
        rows = int_rows(p)
        given = _int_implicit_equalities(rows, p.n, _int_point(point))
        assert given == _int_implicit_equalities(rows, p.n, _int_feasible_point(rows, p.n))


def test_make_cell_solves_each_candidate_once(monkeypatch):
    """The unmodified system of a candidate is solved once, not once per query.

    Each candidate costs one feasibility solve; a non-empty one reaches
    `_make_cell` with the point found.  When no LE row is tight at that
    point it is the interior point and nothing more is solved; otherwise
    the candidate adds one probe per tight LE row and one interior solve.
    """
    f = parse_polynomial("x^2 + 1*x*y + y^2 + x + -1*y + 2*x*z + z^2 + 0", "poly", 3)
    candidates = []
    tie_rows = varieties._tie_rows

    def recorded_tie_rows(terms, i, j):
        rows = tie_rows(terms, i, j)
        candidates.append(list(rows))
        return rows

    made = []
    original = varieties._make_cell

    def make_cell(candidate, scaled, scale, n):
        rows, found = candidate
        made.append(list(rows))
        assert found == solve(rows, n)
        return original(candidate, scaled, scale, n)

    solved = []
    solve = polyhedra._int_feasible_point

    def counted(rows, n):
        solved.append(list(rows))
        return solve(rows, n)

    monkeypatch.setattr(varieties, "_tie_rows", recorded_tie_rows)
    monkeypatch.setattr(varieties, "_make_cell", make_cell)
    monkeypatch.setattr(varieties, "_int_feasible_point", counted)
    monkeypatch.setattr(polyhedra, "_int_feasible_point", counted)
    varieties.hypersurface(f)
    assert len(candidates) == 28
    expected = 0
    nonempty = []
    shortcuts = 0
    for rows in candidates:
        assert solved.count(rows) == 1
        point = solve(rows, 3)
        expected += 1
        if point is not None:
            nonempty.append(rows)
            nums, den = point
            tight = [
                rel == LE and sum(x * y for x, y in zip(a, nums)) == b * den for a, b, rel in rows
            ]
            if any(tight):
                expected += sum(tight) + 1
            else:
                shortcuts += 1
    assert made == nonempty
    assert len(solved) == expected
    assert 0 < shortcuts < len(nonempty)
