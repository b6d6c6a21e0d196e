"""Exact rational polyhedra: feasibility, dimension, interior points.

A polyhedron is a list of integer rows a.x rel b (``IntRow``); that is the
only representation in the package.  Everything is decided by
Fourier-Motzkin elimination with equality pivoting and deduplication of
parallel rows; no LP solver and no floating point.  There is one
implementation of each solve, ``_int_feasible_point``: a point as integers
(nums, den), the point nums / den, which is a relative interior point
(interior lemma below).  ``dimension``, ``contains_point``,
``affine_hull_directions`` and ``line_bounds`` read integer rows too, the
middle two with the point (nums, den) as the solve returns it.  Rational
constraints are cleared of denominators once, by ``_int_row``.

Representation lemma: the solve fixes x_k from the fibre of the projection
onto x_1..x_k over the coordinates already fixed.  It takes the forced
value, the midpoint of a bounded interval, a bound moved by one into a
half-line, or 0 on a line.  Fourier-Motzkin's level-k rows describe that
projection exactly (Schrijver, *Theory of Linear and Integer Programming*,
12.2), and the fixed coordinates lie in the projection onto x_1..x_(k-1),
so the fibre is not empty and its ends are the tightest bounds of those
rows.  The point, and whether there is one, therefore depend only on the
polyhedron, not on how its rows are written: not on row order, positive
row scaling, duplicate or parallel rows, the choice of equality pivot, or
content reduction.  So the kernel does only work that changes its answer.
Rows are deduplicated and divided by their content (``_normalize``) only
right before a pairing step above the last level, where they multiply;
pivot and truncate-only levels pass their rows through; the last level
reads two bounds (last-level lemma below); constant rows are checked once,
on the constant level; and back-substitution stays on integers.  Strict
inequalities are supported for the strict-dominance systems of
``varieties``.  Desk scale: a handful of dimensions and a few dozen
constraints.

Interior lemma: the point P the solve returns lies in the relative
interior of its polyhedron.  Each value it picks (forced, a midpoint, a
bound moved by one, or 0) lies in the relative interior of its fibre.  By
induction on k, (P_1..P_k) lies in the relative interior of the projection
onto x_1..x_k: the relative interior of a convex set is the union, over
the relative interior of its projection, of the relative interiors of the
fibres (Rockafellar, *Convex Analysis*, Thm. 6.8).  So the LE rows tight at
P are exactly the implicit equalities (tight-row lemma of
``affine_hull_directions``), and neither they nor an interior point take a
further solve.

Last-level lemma: on the last level one variable x_1 is left, and with no
equality pivot each row bounding it is a lower bound x_1 >= v or an upper
bound x_1 <= w, strict or not.  The pairwise constant rows all hold exactly
when every v is at most every w, strictly where either row is strict.  That
holds exactly when the largest v is at most the smallest w, strictly when
either of the two is strict, where of tied bounds a strict one is taken.
So ``_eliminate_last`` keeps only those two rows and emits their one
constant row.  ``_coordinate`` picks the same tightest bounds from all the
rows, so by the representation lemma the point does not change.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .matrices import clear_denominators, dot, int_rank, nullspace, to_fraction

LE, EQ, LT = "le", "eq", "lt"

IntRow = tuple[tuple[int, ...], int, str]  # a.x rel b with integer a and b
IntPoint = tuple[tuple[int, ...], int]  # the point nums / den, with den > 0


def _int_row(coeffs, rhs, rel) -> IntRow:
    """The constraint times the lcm of its denominators (a positive scale)."""
    *a, b = clear_denominators((*coeffs, rhs))
    return tuple(a), b, rel


def _normalize(rows: list[IntRow]) -> list[IntRow] | None:
    """Drop trivial rows and dedupe; None when a constant row is violated.

    The solve calls it right before a pairing step, on the rows that
    multiply there, and once on the constant level.  Rows are deduplicated
    on their primitive normal a / gcd(a); of two inequalities the one with
    the smaller b / gcd(a) is kept (the strict one on a tie), and two
    equalities, signed by their first non-zero entry, must agree.  Each kept
    row is divided by the gcd of its entries.
    """
    eqs: dict[tuple[int, ...], tuple[IntRow, int]] = {}
    best: dict[tuple[int, ...], tuple[IntRow, int]] = {}
    for a, b, rel in rows:
        g = gcd(*a)
        if g == 0:
            if b < 0 or (b == 0 and rel == LT) or (b != 0 and rel == EQ):
                return None
            continue
        if rel == EQ and next(x for x in a if x) < 0:
            a, b = tuple(-x for x in a), -b
        content = gcd(g, b)
        if content > 1:
            a, b, g = tuple(x // content for x in a), b // content, g // content
        key = a if g == 1 else tuple(x // g for x in a)
        table = eqs if rel == EQ else best
        old = table.get(key)
        if old is None:
            table[key] = ((a, b, rel), g)
            continue
        (_, old_b, _), old_g = old
        if rel == EQ:
            if b * old_g != old_b * g:
                return None
        elif b * old_g < old_b * g or (b * old_g == old_b * g and rel == LT):
            table[key] = ((a, b, rel), g)
    return [row for row, _ in eqs.values()] + [row for row, _ in best.values()]


def _eliminate_last(rows: list[IntRow], n: int) -> tuple[list[IntRow], list[IntRow]]:
    """Project onto the first n-1 coordinates: (projected rows, rows bounding x_n).

    Rows with last entry 0 are kept, cut to n-1 entries.  With an equality
    pivot p every other row is replaced by |p_j| * row - sgn(p_j) * row_j * p,
    and p alone fixes x_n.  Otherwise, when x_n is bounded on both sides,
    the rows bounding it are normalized and each lower bound is paired with
    each upper bound.  Both combine rows with integer weights, positive on
    every inequality.  Only a pairing step multiplies rows, so only there
    are they reduced; a pivot or truncate-only level passes them through.
    On the last level (n = 1) the pairing reads only the tightest lower and
    upper bound, which are the rows returned (last-level lemma above).
    """
    j = n - 1
    kept: list[IntRow] = []
    pivot: IntRow | None = None
    lowers: list[IntRow] = []
    uppers: list[IntRow] = []
    for row in rows:
        a = row[0]
        c = a[j]
        if c == 0:
            kept.append((a[:j], row[1], row[2]))
        elif row[2] == EQ and pivot is None:
            pivot = row
        elif c < 0:
            lowers.append(row)
        else:
            uppers.append(row)
    if pivot is not None:
        pa, pb, _ = pivot
        weight, sign = abs(pa[j]), 1 if pa[j] > 0 else -1
        pa = pa[:j]
        for a, b, rel in lowers + uppers:
            f = sign * a[j]
            combined = tuple([weight * x - f * p for x, p in zip(a, pa)])
            kept.append((combined, weight * b - f * pb, rel))
        return kept, [pivot]
    if lowers and uppers:
        if j == 0:
            lower, upper = _tightest(lowers, -1), _tightest(uppers, 1)
            (la, lb, lr), (ua, ub, ur) = lower, upper
            kept.append(((), ua[0] * lb - la[0] * ub, LT if LT in (lr, ur) else LE))
            return kept, [lower, upper]
        # inequalities only, none constant: _normalize dedupes and never fails here
        lowers, uppers = _normalize(lowers), _normalize(uppers)
        for la, lb, lr in lowers:
            up_w = -la[j]
            for ua, ub, ur in uppers:
                lo_w = ua[j]
                a = tuple([lo_w * x + up_w * y for x, y in zip(la[:j], ua)])
                kept.append((a, lo_w * lb + up_w * ub, LT if LT in (lr, ur) else LE))
    return kept, lowers + uppers


def _tightest(rows: list[IntRow], sign: int) -> IntRow:
    """The row c x_1 rel b giving the tightest bound b / c: a lower one for sign -1, else upper.

    Bounds are compared by cross-multiplication (the rows' c share a sign);
    of tied bounds a strict one is kept.
    """
    best = rows[0]
    for row in rows[1:]:
        d = sign * (best[1] * row[0][0] - row[1] * best[0][0])
        if d > 0 or (d == 0 and row[2] == LT):
            best = row
    return best


def _coordinate(rows: list[IntRow], nums: list[int], den: int) -> tuple[int, int]:
    """The chosen value t / q (q > 0) of the next coordinate over the base point nums / den.

    ``rows`` bound the coordinate x_j, j = len(nums): each has a_j != 0 and
    bounds it by s / (a_j den) with s = b den - a[:j].nums.  Bounds are
    compared by cross-multiplication.  The value is the forced one of an
    equality, the midpoint of a bounded interval, a bound moved by one into
    a half-line, or 0 on the whole line.  The base point lies in the
    projection, so the interval is not empty and strictness never matters.
    """
    j = len(nums)
    lower = upper = None  # bounds (s, c) meaning s / (c den), with c > 0
    for a, b, rel in rows:
        c = a[j]
        s = b * den - sum(map(mul, a, nums))
        if rel == EQ:
            return (s, c * den) if c > 0 else (-s, -c * den)
        if c > 0:
            if upper is None or s * upper[1] < upper[0] * c:
                upper = (s, c)
        elif lower is None or s * lower[1] < lower[0] * c:  # -s / -c is above the lower bound
            lower = (-s, -c)
    if lower is None:
        if upper is None:
            return 0, 1
        s, c = upper
        return s - c * den, c * den
    if upper is None:
        s, c = lower
        return s + c * den, c * den
    (ls, lc), (us, uc) = lower, upper
    return ls * uc + us * lc, 2 * lc * uc * den


def _int_feasible_point(rows: list[IntRow], n: int) -> IntPoint | None:
    """A point (nums, den) of the integer system, or None when it is empty.

    This is the one Fourier-Motzkin solve: the rows are eliminated down to
    the constant level, whose rows alone decide emptiness; the coordinates
    are then fixed first to last, each from the rows that bound it, with the
    point kept over den > 0, the lcm of the coordinates' denominators.
    """
    bounding = []
    for k in range(n, 0, -1):
        rows, bounds = _eliminate_last(rows, k)
        bounding.append(bounds)
    if _normalize(rows) is None:
        return None
    nums: list[int] = []
    den = 1
    for bounds in reversed(bounding):
        t, q = _coordinate(bounds, nums, den)
        g = gcd(t, q)
        t, q = t // g, q // g
        scale = q // gcd(den, q)
        if scale > 1:
            nums = [x * scale for x in nums]
            den *= scale
        nums.append(t * (den // q))
    return tuple(nums), den


def _tight_rows(rows: list[IntRow], point: IntPoint) -> list[int]:
    """Indices of the LE rows that hold with equality at the point nums / den."""
    nums, den = point
    return [
        i
        for i, (a, b, rel) in enumerate(rows)
        if rel == LE and sum(map(mul, a, nums)) == b * den
    ]


def _fractions(point: IntPoint) -> tuple[Fraction, ...]:
    nums, den = point
    return tuple(Fraction(x, den) for x in nums)


def _int_point(point) -> IntPoint:
    """A rational point as (nums, den) over the lcm of its denominators."""
    point = [to_fraction(x) for x in point]
    den = lcm(*(x.denominator for x in point))
    return tuple(x.numerator * (den // x.denominator) for x in point), den


def contains_point(rows: list[IntRow], point: IntPoint) -> bool:
    """Whether the point nums / den satisfies every EQ and LE row."""
    nums, den = point
    for a, b, rel in rows:
        value, bound = sum(map(mul, a, nums)), b * den
        if value > bound or (rel == EQ and value != bound):
            return False
    return True


def _tight_normals(rows: list[IntRow], point: IntPoint) -> list[tuple[int, ...]]:
    """Normals of the rows that hold with equality at the point nums / den."""
    nums, den = point
    return [a for a, b, _ in rows if sum(map(mul, a, nums)) == b * den]


def dimension(rows: list[IntRow], n: int) -> int:
    """Dimension of the affine hull of the rows in R^n; -1 for the empty set.

    One solve: its point is a relative interior point (interior lemma), so
    the hull is read off the rows tight there, as in ``affine_hull_directions``.
    """
    point = _int_feasible_point(rows, n)
    if point is None:
        return -1
    return n - int_rank(_tight_normals(rows, point))


def affine_hull_directions(rows: list[IntRow], n: int, point: IntPoint) -> list[tuple[Fraction, ...]]:
    """Rational basis of the direction space of the affine hull, read off ``point``.

    ``point`` must be a relative interior point, (nums, den) as
    ``_int_feasible_point`` returns it (interior lemma).
    Tight-row lemma: at such a point the rows that hold with equality are
    exactly the EQ rows and the implicit equalities (Schrijver, *Theory of
    Linear and Integer Programming*, 8.2), so the hull is the nullspace of
    their normals, with no solve.  The basis is that of ``nullspace``: the
    reduced row echelon form of a row space is unique, so any point with the
    same tight rows, and any positive scaling of the rows, gives the same
    directions.
    """
    return nullspace(_tight_normals(rows, point), n)


def line_bounds(rows: list[IntRow], point, direction) -> tuple[Fraction | None, Fraction | None]:
    """The interval (lo, hi) of t with point + t * direction satisfying the rows.

    ``point`` satisfies the rows and ``direction`` lies in their affine hull,
    so EQ rows hold along the whole line and are skipped, as are rows
    parallel to it.  A side with no bound reads None.
    """
    lo = hi = None
    for a, b, rel in rows:
        slope = dot(a, direction)
        if rel == EQ or slope == 0:
            continue
        bound = (b - dot(a, point)) / slope
        if slope > 0:
            hi = bound if hi is None or bound < hi else hi
        else:
            lo = bound if lo is None or bound > lo else lo
    return lo, hi
