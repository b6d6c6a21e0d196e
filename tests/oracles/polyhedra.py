"""Oracles of `tropica.polyhedra`, and the `Fraction` front end the tests state polyhedra in.

**The front end.**  The package keeps every polyhedron as integer rows
a.x rel b, and a cell keeps its rows with a canonical scale.  The front end
it had before held `Fraction` constraints (`HalfSpace`, `Polyhedron`),
cleared each of denominators and called the integer kernel.  It is kept
here so that the tests written on it keep their meaning: `make_polyhedron`
still rejects a normal of the wrong length, and `fm_eliminate` still
projects with the library's `_eliminate_last` and `_normalize`.
`system_point`, `feasible_point`, `contains_point`, `dimension`,
`affine_hull_directions` and `line_bounds` read a `Polyhedron` (or a list
of constraints) and call the library's integer versions on its cleared
rows, with a rational point read as (nums, den) by `_int_point` where the
library takes one.  `line_bounds` also clears a rational direction by the
lcm L of its denominators, and returns L times the library's bounds along
the cleared direction: the bounds along the rational one.
`relative_interior_point` is the library's solve
point, a relative interior point by the interior lemma of `polyhedra`.
`int_implicit_equalities` (the former `polyhedra._int_implicit_equalities`)
probes each LE row tight at a feasible point strict with the library's
solve, and `implicit_equality_indices` runs it on a `Polyhedron`; the
library itself reads the implicit equalities off its point with no probe.
`cell_polyhedron` and `fraction_cell` convert between a `Cell` and its
`Fraction` constraints (each row divided by the scale, and back over the
lcm of the denominators), and `fraction_cell` keeps its point as
(nums, den).  Every
solve goes through the `polyhedra` module, so a test that counts
`polyhedra._int_feasible_point` by monkeypatching counts these too.  The
front end calls `tropica.polyhedra`, so it is no oracle of it: it serves
the `varieties` oracles, one layer up.

**The oracles.**  `ref_feasible_point` is Fourier-Motzkin elimination on
`Fraction` rows, with its own normalization (`ref_normalize`) and
elimination step (`ref_eliminate_last`); it calls nothing in
`tropica.polyhedra`.  `ref_implicit_equality_indices` probes each LE row
strict with it, and `ref_relative_interior_point` solves the system with
the implicit equalities as equalities and every other LE row strict.
`ref_lift_exists` decides whether a point lifts through one eliminated
coordinate by interval arithmetic on the fiber line.
`ref_affine_hull_directions` is the `Fraction` kernel of the EQ and implicit
normals, each vector 1 at its free column (the library's integer directions
are positive multiples of these);
`ref_interior_shift_bound` and `ref_segment_bounds` are the former
line-clipping loops of `krull` and `rendering`.

**The former integer kernel.**  `ref_int_normalize` and
`ref_int_eliminate_last` are the integer Fourier-Motzkin step that
normalized every level, kept verbatim apart from names, and
`ref_fm_eliminate` projects with them: the library's `fm_eliminate` must
return the same rows in the same order, a question of row layout that the
`Fraction` oracle does not answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from tropica import polyhedra
from tropica.matrices import clear_denominators, to_fraction
from tropica.polyhedra import (
    EQ,
    LE,
    LT,
    IntRow,
    _fractions,
    _int_point,
    _int_row,
)
from tropica.varieties import Cell

from oracles.matrices import dot, ref_nullspace

Constraint = tuple[tuple[Fraction, ...], Fraction, str]


# -- the Fraction front end -----------------------------------------------------------


@dataclass(frozen=True)
class HalfSpace:
    normal: tuple[Fraction, ...]
    rhs: Fraction
    relation: str = LE

    def __post_init__(self):
        if self.relation not in (LE, EQ):
            raise ValueError(f"relation must be {LE!r} or {EQ!r}")


@dataclass(frozen=True)
class Polyhedron:
    constraints: tuple[HalfSpace, ...]
    n: int


def make_polyhedron(rows, n: int) -> Polyhedron:
    """rows: iterables (normal, rhs, relation); coerces entries to Fraction.

    Every normal must have n entries; a ValueError names the first that does not.
    """
    cons = []
    for i, (normal, rhs, rel) in enumerate(rows):
        normal = tuple(to_fraction(x) for x in normal)
        if len(normal) != n:
            raise ValueError(f"row {i}: normal has {len(normal)} entries, expected n = {n}")
        cons.append(HalfSpace(normal, to_fraction(rhs), rel))
    return Polyhedron(tuple(cons), n)


def full_space(n: int) -> Polyhedron:
    return Polyhedron((), n)


def int_rows(poly: Polyhedron) -> list[IntRow]:
    """The constraints cleared of denominators, in order."""
    return [_int_row(h.normal, h.rhs, h.relation) for h in poly.constraints]


def system_point(cons: list[Constraint], n: int) -> tuple[Fraction, ...] | None:
    """A point of the system (normal, rhs, relation), or None when it is empty."""
    found = polyhedra._int_feasible_point([_int_row(*c) for c in cons], n)
    return None if found is None else _fractions(found)


def feasible_point(poly: Polyhedron) -> tuple[Fraction, ...] | None:
    """Some point of the polyhedron, or None when it is empty."""
    return system_point([(h.normal, h.rhs, h.relation) for h in poly.constraints], poly.n)


def is_empty(poly: Polyhedron) -> bool:
    return feasible_point(poly) is None


def relative_interior_point(poly: Polyhedron) -> tuple[Fraction, ...]:
    """The library's point: it satisfies every non-implied inequality strictly."""
    found = polyhedra._int_feasible_point(int_rows(poly), poly.n)
    if found is None:
        raise ValueError("polyhedron is empty")
    return _fractions(found)


def intersect(p: Polyhedron, q: Polyhedron) -> Polyhedron:
    if p.n != q.n:
        raise ValueError(f"ambient dimension mismatch: {p.n} vs {q.n}")
    return Polyhedron(p.constraints + q.constraints, p.n)


def fm_eliminate(poly: Polyhedron, index: int) -> Polyhedron:
    """Exact projection dropping the given coordinate (ambient shrinks by one).

    A point lies in the output exactly when it lifts to the input.  The rows
    come back normalized: primitive, with no trivial rows and no parallel
    duplicates, equalities first, each where its direction first arises
    among the combinations.  Deduplicating the rows before they multiply
    changes neither the set nor this order.
    """
    if not 0 <= index < poly.n:
        raise ValueError(f"coordinate index {index} out of range for n={poly.n}")
    # move the coordinate to the end, then eliminate it
    order = [i for i in range(poly.n) if i != index] + [index]
    rows = []
    for h in poly.constraints:
        rows.append(_int_row(tuple(h.normal[i] for i in order), h.rhs, h.relation))
    reduced = polyhedra._normalize(polyhedra._eliminate_last(rows, poly.n)[0])
    if reduced is None:
        # projection of an (evidently) empty set: encode a constant contradiction
        zero = tuple([Fraction(0)] * (poly.n - 1))
        return Polyhedron((HalfSpace(zero, Fraction(-1), LE),), poly.n - 1)
    out = []
    for a, b, rel in reduced:
        out.append(HalfSpace(tuple(map(Fraction, a)), Fraction(b), LE if rel == LT else rel))
    return Polyhedron(tuple(out), poly.n - 1)


def contains_point(poly: Polyhedron, point) -> bool:
    return polyhedra.contains_point(int_rows(poly), _int_point(point))


def dimension(poly: Polyhedron) -> int:
    return polyhedra.dimension(int_rows(poly), poly.n)


def affine_hull_directions(poly: Polyhedron, point) -> list[tuple[int, ...]]:
    return polyhedra.affine_hull_directions(int_rows(poly), poly.n, _int_point(point))


def line_bounds(poly: Polyhedron, point, direction):
    """The bounds along a rational direction: L times those along it cleared by the lcm L."""
    direction = [to_fraction(x) for x in direction]
    scale = lcm(*(x.denominator for x in direction))
    bounds = polyhedra.line_bounds(int_rows(poly), _int_point(point), clear_denominators(direction))
    return tuple(None if t is None else t * scale for t in bounds)


def int_implicit_equalities(rows: list[IntRow], n: int, point) -> list[int]:
    """Indices of the LE rows that hold with equality on the whole (non-empty) set.

    An implicit equality is tight at every feasible point, so only the LE
    rows tight at the feasible ``point`` (nums, den) are probed: such a row
    is implicit when making it strict leaves no feasible point.
    """
    out = []
    for i in polyhedra._tight_rows(rows, point):
        a, b, _ = rows[i]
        probe = list(rows)
        probe[i] = (a, b, LT)
        if polyhedra._int_feasible_point(probe, n) is None:
            out.append(i)
    return out


def implicit_equality_indices(poly: Polyhedron) -> list[int]:
    """Indices of LE constraints that hold with equality on the whole set.

    On the empty set every LE index is returned.
    """
    rows = int_rows(poly)
    found = polyhedra._int_feasible_point(rows, poly.n)
    if found is None:
        return [i for i, h in enumerate(poly.constraints) if h.relation == LE]
    return int_implicit_equalities(rows, poly.n, found)


def cell_polyhedron(cell: Cell) -> Polyhedron:
    """The cell's constraints as Fractions: each row divided by the cell's scale."""
    s = cell.scale
    cons = tuple(
        HalfSpace(tuple(Fraction(x, s) for x in a), Fraction(b, s), rel) for a, b, rel in cell.rows
    )
    return Polyhedron(cons, len(cell.interior_point[0]))


def fraction_cell(poly: Polyhedron, dim: int, point, stratum=()) -> Cell:
    """The cell of a Fraction polyhedron: its rows over the lcm of all its denominators."""
    scale = lcm(*(x.denominator for h in poly.constraints for x in (*h.normal, h.rhs)))
    rows = tuple(
        (tuple(x.numerator * (scale // x.denominator) for x in h.normal),
         h.rhs.numerator * (scale // h.rhs.denominator), h.relation)
        for h in poly.constraints
    )
    return Cell(rows, scale, dim, _int_point(point), tuple(stratum))


# -- oracles: Fraction Fourier-Motzkin elimination ------------------------------------


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


def ref_point_pair(rows, n):
    """`ref_feasible_point` as the pair (nums, den) over the lcm of the point's denominators."""
    point = ref_feasible_point(rows, n)
    if point is None:
        return None
    den = lcm(*(x.denominator for x in point))
    return tuple(x.numerator * (den // x.denominator) for x in point), den


def ref_implicit_equality_indices(poly):
    """The LE rows that no point of the polyhedron meets strictly: each probed strict.

    A row slack at some point is no implicit equality, so only the rows
    tight at one feasible point are probed; on the empty set every LE row is
    returned, as every probe fails.
    """
    cons = [(h.normal, h.rhs, h.relation) for h in poly.constraints]
    point = ref_feasible_point(cons, poly.n)
    out = []
    for i, (coeffs, rhs, rel) in enumerate(cons):
        if rel != LE or (point is not None and ref_value(coeffs, point) < rhs):
            continue
        probe = list(cons)
        probe[i] = (coeffs, rhs, LT)
        if ref_feasible_point(probe, poly.n) is None:
            out.append(i)
    return out


def ref_relative_interior_point(poly):
    """The point of the system with the implicit equalities as EQ and every other LE row strict."""
    implicit = set(ref_implicit_equality_indices(poly))
    probe = [
        (h.normal, h.rhs, EQ if h.relation == EQ or i in implicit else LT)
        for i, h in enumerate(poly.constraints)
    ]
    return ref_feasible_point(probe, poly.n)


def ref_lift_exists(p: Polyhedron, index: int, base) -> bool:
    """Independent lift search: scan the fiber line over the base point.

    Exact one-variable interval arithmetic per constraint; no elimination.
    """
    lo, hi = None, None
    for h in p.constraints:
        cj = h.normal[index]
        others = [v for k, v in enumerate(h.normal) if k != index]
        rest = dot(others, base)
        if cj == 0:
            if h.relation == EQ and rest != h.rhs:
                return False
            if h.relation == LE and rest > h.rhs:
                return False
            continue
        bound = (h.rhs - rest) / cj
        if h.relation == EQ:
            if lo is None or bound > lo:
                lo = bound
            if hi is None or bound < hi:
                hi = bound
        elif cj > 0:
            hi = bound if hi is None or bound < hi else hi
        else:
            lo = bound if lo is None or bound > lo else lo
    if lo is None or hi is None:
        return True
    return lo <= hi


def ref_affine_hull_directions(poly):
    """The hull of a non-empty polyhedron: the kernel of its EQ and implicit normals."""
    normals = [h.normal for h in poly.constraints if h.relation == EQ]
    implicit = set(ref_implicit_equality_indices(poly))
    normals.extend(h.normal for i, h in enumerate(poly.constraints) if i in implicit)
    if not normals:
        return [tuple(Fraction(int(i == k)) for i in range(poly.n)) for k in range(poly.n)]
    return ref_nullspace(normals, poly.n)


def ref_interior_shift_bound(poly, omega, direction):
    """The former loop of `krull._interior_shift`: the upper end of the line only."""
    t_max = None
    for h in poly.constraints:
        if h.relation == EQ:
            continue
        slope = dot(h.normal, direction)
        if slope > 0:
            bound = (h.rhs - dot(h.normal, omega)) / slope
            t_max = bound if t_max is None or bound < t_max else t_max
    return t_max


def ref_segment_bounds(poly, q, direction):
    """The former loop of `rendering._segment_endpoints`: both ends of the line."""
    t_lo = t_hi = None
    for h in poly.constraints:
        slope = dot(h.normal, direction)
        if slope == 0:
            continue
        bound = (h.rhs - dot(h.normal, q)) / slope
        if h.relation == EQ:
            continue
        if slope > 0:
            t_hi = bound if t_hi is None or bound < t_hi else t_hi
        else:
            t_lo = bound if t_lo is None or bound > t_lo else t_lo
    return t_lo, t_hi


# -- the former integer Fourier-Motzkin step -------------------------------------------


def ref_int_normalize(rows: list[IntRow]) -> list[IntRow] | None:
    """Drop trivial rows and dedupe; None when a constant row is violated.

    Rows are deduplicated on their primitive normal a / gcd(a); of two
    inequalities the one with the smaller b / gcd(a) is kept (the strict one
    on a tie), and two equalities, signed by their first non-zero entry,
    must agree.  Each kept row is divided by the gcd of its entries.
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


def ref_int_eliminate_last(rows: list[IntRow], n: int) -> list[IntRow] | None:
    """Project onto the first n-1 coordinates; None when infeasibility is evident.

    With an equality pivot p every other row is replaced by
    |p_j| * row - sgn(p_j) * row_j * p; otherwise each row with a negative
    last entry is paired with each row with a positive one.  Both combine
    rows with integer weights, positive on every inequality.
    """
    j = n - 1
    kept: list[IntRow] = []
    pivot: IntRow | None = None
    lowers: list[IntRow] = []
    uppers: list[IntRow] = []
    for row in rows:
        c = row[0][j]
        if c == 0:
            kept.append((row[0][:j], row[1], row[2]))
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
            combined = tuple(weight * x - f * p for x, p in zip(a, pa))
            kept.append((combined, weight * b - f * pb, rel))
        return ref_int_normalize(kept)
    for la, lb, lr in lowers:
        up_w = -la[j]
        for ua, ub, ur in uppers:
            lo_w = ua[j]
            a = tuple(lo_w * x + up_w * y for x, y in zip(la[:j], ua))
            kept.append((a, lo_w * lb + up_w * ub, LT if LT in (lr, ur) else LE))
    return ref_int_normalize(kept)


def ref_fm_eliminate(poly: Polyhedron, index: int) -> Polyhedron:
    """Exact projection dropping the given coordinate (ambient shrinks by one).

    A point lies in the output exactly when it lifts to the input.
    """
    if not 0 <= index < poly.n:
        raise ValueError(f"coordinate index {index} out of range for n={poly.n}")
    # move the coordinate to the end, then eliminate it
    order = [i for i in range(poly.n) if i != index] + [index]
    rows = []
    for h in poly.constraints:
        *a, b = clear_denominators([*(h.normal[i] for i in order), h.rhs])
        rows.append((tuple(a), b, h.relation))
    reduced = ref_int_eliminate_last(rows, poly.n)
    if reduced is None:
        # projection of an (evidently) empty set: encode a constant contradiction
        zero = tuple([Fraction(0)] * (poly.n - 1))
        return Polyhedron((HalfSpace(zero, Fraction(-1), LE),), poly.n - 1)
    out = []
    for a, b, rel in reduced:
        out.append(HalfSpace(tuple(map(Fraction, a)), Fraction(b), LE if rel == LT else rel))
    return Polyhedron(tuple(out), poly.n - 1)
