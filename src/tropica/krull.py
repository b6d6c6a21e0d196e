"""Krull dimension of the coordinate semiring, with an explicit witness prime.

For generators whose vanishing locus is a d-dimensional complex, the
coordinate semiring (quotient by the congruence generated by all bend
relations) has dimension d + 1.  The lower bound is witnessed by an explicit
admissible matrix built from d + 1 affinely independent rational points of a
maximal cell; the witness is validated (admissible, rank d + 1, and every
generator's bend relations lie in the prime it defines).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction

from .polyhedra import _fractions, affine_hull_directions, line_bounds
from .polynomials import Polynomial
from .primes import AdmissibleMatrix, bend_ideal_member, check_admissible
from .varieties import PolyComplex, complex_dim, key_order, prevariety


class EmptyVarietyError(ValueError):
    """The generators have an empty vanishing locus; the dimension formula
    for the coordinate semiring does not apply."""


@dataclass(frozen=True)
class WitnessChecks:
    admissible: bool
    rank: int
    contains_bends: bool


@dataclass(frozen=True)
class DimensionReport:
    variety_dim: int
    coordinate_dim: int
    witness: AdmissibleMatrix
    witness_checks: WitnessChecks
    caveat: str = "computed from the prevariety of the given generators"

    def to_json(self) -> dict:
        return {
            "variety_dim": self.variety_dim,
            "coordinate_dim": self.coordinate_dim,
            "witness": self.witness.to_json(),
            "witness_checks": asdict(self.witness_checks),
            "caveat": self.caveat,
        }


def contains_bends(matrix: AdmissibleMatrix, gens: list[Polynomial]) -> bool:
    """True when every generator's bend relations lie in the prime."""
    return all(bend_ideal_member(matrix, g) for g in gens)


def witness_prime(x: PolyComplex, gens: list[Polynomial]) -> AdmissibleMatrix:
    """Admissible matrix of rank d+1 whose prime contains every generator bend.

    Rows are (1, p) for d+1 affinely independent rational points of a maximal
    cell: its relative interior point omega, and omega + t d for each
    affine-hull basis direction d, with t half the way to the cell's boundary
    (1 / f on a ray, f > 0 the last non-zero entry of d: one unit of the
    direction's free coordinate, by the scaling lemma of ``polyhedra``).  The
    integer directions and the clip are read off the point (nums, den) as the
    cell keeps it: the rows tight there are the equalities and implicit
    equalities of the cell, so their nullspace is its affine hull
    (``affine_hull_directions``).  Only then is omega made rational, once.
    The cell is the key-smallest of top dimension (``key_order``), on a
    complex in any cell order, so the witness is deterministic.
    """
    if not x.cells:
        raise EmptyVarietyError("cannot build a witness over an empty complex")
    if any(cell.stratum for cell in x.cells):
        raise ValueError("witness construction expects an R^n complex")
    d = complex_dim(x)
    top = [c for c in x.cells if c.dim == d]
    cell = top[key_order(top)[0]]
    directions = affine_hull_directions(cell.rows, x.ambient, cell.interior_point)
    if len(directions) != d:  # a boundary point has more tight rows
        raise ValueError("interior point is not strictly inside the cell")
    omega = _fractions(cell.interior_point)
    rows = [[Fraction(1), *omega]]
    for direction in directions:
        _, t_max = line_bounds(cell.rows, cell.interior_point, direction)
        t = Fraction(1, next(v for v in reversed(direction) if v)) if t_max is None else t_max / 2
        if t <= 0:
            raise ValueError("interior point is not strictly inside the cell")
        rows.append([Fraction(1), *(w + t * v for w, v in zip(omega, direction))])
    return check_admissible(rows, x.ambient)


def coordinate_dimension(gens: list[Polynomial]) -> DimensionReport:
    """Dimension report for the coordinate semiring of the generators.

    Raises EmptyVarietyError when the prevariety is empty.  When the
    generators present the variety of a tropical ideal the reported value is
    exactly the Krull dimension of the quotient; otherwise the report carries
    the prevariety-based value (see the caveat field).
    """
    x = prevariety(gens)
    if not x.cells:
        raise EmptyVarietyError(
            "the generators have an empty vanishing locus; no dimension claim is made"
        )
    d = complex_dim(x)
    witness = witness_prime(x, gens)
    checks = WitnessChecks(
        admissible=True,  # witness_prime built it through check_admissible, which raises otherwise
        rank=witness.rank,
        contains_bends=contains_bends(witness, gens),
    )
    return DimensionReport(d, d + 1, witness, checks)
