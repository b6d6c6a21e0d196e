"""The `Fraction` front end of `tropica.polyhedra`, kept as a test oracle.

The package keeps every polyhedron as integer rows a.x rel b, and a cell
keeps its rows with a canonical scale.  The front end it had before held
`Fraction` constraints (`HalfSpace`, `Polyhedron`), cleared each of
denominators and called the integer kernel.  It is kept here, moved
verbatim apart from the module prefix, so that the tests written on it keep
their meaning: `make_polyhedron` still rejects a normal of the wrong
length, and `fm_eliminate` still projects with the library's
`_eliminate_last` and `_normalize`.  `contains_point`, `dimension`,
`affine_hull_directions` and `line_bounds` read a `Polyhedron` and call the
library's integer versions on its cleared rows.  `cell_polyhedron` and
`fraction_cell` convert between a `Cell` and its `Fraction` constraints
(each row divided by the scale, and back over the lcm of the denominators).

Every solve goes through the `polyhedra` module, so a test that counts
`polyhedra._int_feasible_point` by monkeypatching counts these too.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from tropica import polyhedra
from tropica.matrices import to_fraction
from tropica.polyhedra import EQ, LE, LT, IntRow, _fractions, _int_row
from tropica.varieties import Cell

Constraint = tuple[tuple[Fraction, ...], Fraction, str]


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


def _feasible_point(cons: list[Constraint], n: int) -> tuple[Fraction, ...] | None:
    """A point of the system (normal, rhs, relation), or None when it is empty."""
    found = polyhedra._int_feasible_point([_int_row(*c) for c in cons], n)
    return None if found is None else _fractions(found)


def feasible_point(poly: Polyhedron) -> tuple[Fraction, ...] | None:
    """Some point of the polyhedron, or None when it is empty."""
    return _feasible_point([(h.normal, h.rhs, h.relation) for h in poly.constraints], poly.n)


def is_empty(poly: Polyhedron) -> bool:
    return feasible_point(poly) is None


def relative_interior_point(poly: Polyhedron) -> tuple[Fraction, ...]:
    """A rational point satisfying every non-implied inequality strictly."""
    rows = int_rows(poly)
    found = polyhedra._int_feasible_point(rows, poly.n)
    if found is None:
        raise ValueError("polyhedron is empty")
    return _fractions(polyhedra._int_interior_point(rows, poly.n, found))


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


# -- the library's integer functions, on a Polyhedron -------------------------------


def contains_point(poly: Polyhedron, point) -> bool:
    return polyhedra.contains_point(int_rows(poly), point)


def dimension(poly: Polyhedron) -> int:
    return polyhedra.dimension(int_rows(poly), poly.n)


def affine_hull_directions(poly: Polyhedron, point) -> list[tuple[Fraction, ...]]:
    return polyhedra.affine_hull_directions(int_rows(poly), poly.n, point)


def line_bounds(poly: Polyhedron, point, direction):
    return polyhedra.line_bounds(int_rows(poly), point, direction)


# -- cells ----------------------------------------------------------------------------


def cell_polyhedron(cell: Cell) -> Polyhedron:
    """The cell's constraints as Fractions: each row divided by the cell's scale."""
    s = cell.scale
    cons = tuple(
        HalfSpace(tuple(Fraction(x, s) for x in a), Fraction(b, s), rel) for a, b, rel in cell.rows
    )
    return Polyhedron(cons, len(cell.interior_point))


def fraction_cell(poly: Polyhedron, dim: int, point, stratum=()) -> Cell:
    """The cell of a Fraction polyhedron: its rows over the lcm of all its denominators."""
    scale = lcm(*(x.denominator for h in poly.constraints for x in (*h.normal, h.rhs)))
    rows = tuple(
        (tuple(x.numerator * (scale // x.denominator) for x in h.normal),
         h.rhs.numerator * (scale // h.rhs.denominator), h.relation)
        for h in poly.constraints
    )
    return Cell(rows, scale, dim, tuple(point), tuple(stratum))
