"""The affine hull read off a relative interior point, and one line-clipping loop.

`affine_hull_directions(rows, n, point)` takes the integer nullspace of the
normals of the rows tight at a relative interior point.  Tight-row lemma:
there the tight rows are exactly the EQ rows and the implicit equalities,
so the row space, and with it the reduced echelon basis, is that of the
definition.  The oracle `ref_affine_hull_directions` of `oracles.polyhedra`
finds the implicit equalities by probing with the `Fraction` Fourier-Motzkin
oracle and takes the `Fraction` nullspace of the EQ and implicit normals.
Scaling lemma of `polyhedra`: each library direction is primitive, its last
non-zero entry f is positive, and divided by f it is the oracle's vector,
so the hull tests compare the directions divided by f.  `line_bounds`
clips along an integer direction from the solve's (nums, den); it replaces
two clipping loops, kept as `ref_interior_shift_bound` (the witness shift
in `krull`) and `ref_segment_bounds` (the segment endpoints in
`rendering`).  Seeded polyhedra are stated as `Fraction` constraints
through the front end of `oracles.polyhedra`; cells are read on their
integer rows directly.
"""

import json
import random
from fractions import Fraction
from math import gcd

import pytest

from tropica import polyhedra
from tropica.krull import coordinate_dimension, witness_prime
from tropica.parsing import parse_polynomials
from tropica.polyhedra import EQ, LE, _fractions, _int_point
from tropica.polynomials import LAURENT, POLY
from tropica.rendering import render_svg
from tropica.sampling import random_polynomial
from tropica.varieties import (
    Cell,
    PolyComplex,
    affine_prevariety,
    complex_from_json,
    complex_to_json,
    hypersurface,
    prevariety,
)

from oracles.polyhedra import (
    affine_hull_directions,
    cell_polyhedron,
    implicit_equality_indices,
    is_empty,
    line_bounds,
    make_polyhedron,
    ref_affine_hull_directions,
    ref_interior_shift_bound,
    ref_segment_bounds,
    relative_interior_point,
)
from oracles.varieties import solves


def random_rows(rng):
    """Rational EQ/LE rows in 1-4 variables, with duplicate, parallel, opposite and zero rows.

    An opposite row with the negated right side makes both rows implicit
    equalities.
    """
    n = rng.randint(1, 4)
    rows = []
    for _ in range(rng.randint(1, 6)):
        a = tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(n))
        b = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        rows.append((a, b, EQ if rng.random() < 0.15 else LE))
        roll = rng.random()
        if roll < 0.1:
            rows.append(rows[-1])
        elif roll < 0.25:
            k = rng.randint(2, 3)
            rows.append((tuple(k * x for x in a), k * b + rng.randint(-1, 1), LE))
        elif roll < 0.5:
            rows.append((tuple(-x for x in a), -b + rng.choice([0, 0, 1]), LE))
        elif roll < 0.6:
            rows.append(((Fraction(0),) * n, Fraction(rng.randint(0, 1)), rng.choice([LE, EQ])))
    return rows, n


def by_free_entry(directions):
    """Each integer direction divided by its last non-zero entry, as `Fraction`s."""
    out = []
    for direction in directions:
        f = next(v for v in reversed(direction) if v)
        out.append(tuple(Fraction(v, f) for v in direction))
    return out


def test_hull_at_the_interior_point_matches_the_probing_oracle():
    rng = random.Random(1689)
    checked = with_implicit = 0
    while checked < 1200:
        rows, n = random_rows(rng)
        poly = make_polyhedron(rows, n)
        if is_empty(poly):
            continue
        checked += 1
        with_implicit += bool(implicit_equality_indices(poly))
        point = relative_interior_point(poly)
        assert by_free_entry(affine_hull_directions(poly, point)) == ref_affine_hull_directions(poly), rows
    assert with_implicit >= 400


def test_directions_are_primitive_positive_multiples_of_the_reference_basis():
    """Scaling lemma: d is primitive, its last non-zero entry f > 0, and d = f v for the oracle's v."""
    rng = random.Random(1690)
    checked = scaled = 0
    while checked < 600:
        rows, n = random_rows(rng)
        poly = make_polyhedron(rows, n)
        if is_empty(poly):
            continue
        checked += 1
        got = affine_hull_directions(poly, relative_interior_point(poly))
        expected = ref_affine_hull_directions(poly)
        assert len(got) == len(expected), rows
        for d, v in zip(got, expected):
            assert all(type(x) is int for x in d) and gcd(*d) == 1, (rows, d)
            f = next(x for x in reversed(d) if x)
            assert f > 0 and d == tuple(f * x for x in v), (rows, d, v)
            scaled += f > 1
    assert scaled >= 100


@pytest.mark.parametrize("builder", ["prevariety", "affine_prevariety"])
def test_hull_of_every_cell_matches_the_probing_oracle(builder):
    rng = random.Random(300)
    cells = 0
    for _ in range(150):
        n = rng.randint(1, 3)
        mode = POLY if builder == "affine_prevariety" else rng.choice([LAURENT, POLY])
        gens = [random_polynomial(rng, n, mode, 4, 2, 2) for _ in range(rng.randint(1, 2))]
        if builder == "prevariety":
            x = prevariety(gens)
        else:
            x = affine_prevariety(gens)
        for cell in x.cells:
            cells += 1
            point = cell.interior_point
            directions = polyhedra.affine_hull_directions(cell.rows, len(point[0]), point)
            assert by_free_entry(directions) == ref_affine_hull_directions(cell_polyhedron(cell)), gens
            assert len(directions) == cell.dim
    assert cells >= 300


@pytest.mark.parametrize("builder", ["prevariety", "affine_prevariety"])
def test_every_cell_round_trips_and_its_boundary_points_do_not(builder):
    """JSON keeps every built cell; a hull direction clipped to its end leaves the interior.

    `complex_from_json` requires as many hull directions at the interior
    point as the cell's dimension, which holds exactly on the relative
    interior: the end of a clipped line is on the boundary and is rejected.
    """
    rng = random.Random(301)
    cells = moved = 0
    for _ in range(150):
        n = rng.randint(1, 3)
        mode = POLY if builder == "affine_prevariety" else rng.choice([LAURENT, POLY])
        gens = [random_polynomial(rng, n, mode, 4, 2, 2) for _ in range(rng.randint(1, 2))]
        x = prevariety(gens) if builder == "prevariety" else affine_prevariety(gens)
        data = json.loads(json.dumps(complex_to_json(x)))
        assert complex_from_json(data) == x, gens
        for cell, entry in zip(x.cells, data["cells"]):
            cells += 1
            point = _fractions(cell.interior_point)
            hull = polyhedra.affine_hull_directions(cell.rows, len(point), cell.interior_point)
            for direction in hull:
                _, hi = polyhedra.line_bounds(cell.rows, cell.interior_point, direction)
                if hi is None:
                    continue
                moved += 1
                edge = tuple(p + hi * d for p, d in zip(point, direction))
                entry["interior_point"] = [str(v) for v in edge]
                with pytest.raises(ValueError, match="on the boundary of the cell"):
                    complex_from_json({**data, "cells": [entry]})
    assert cells >= 250 and moved >= 120


def test_line_bounds_match_the_former_loops():
    rng = random.Random(41)
    checked = 0
    while checked < 400:
        rows, n = random_rows(rng)
        poly = make_polyhedron(rows, n)
        if is_empty(poly):
            continue
        checked += 1
        point = relative_interior_point(poly)
        other = tuple(Fraction(rng.randint(-2, 2)) for _ in range(n))
        for direction in affine_hull_directions(poly, point) + [other]:
            lo, hi = line_bounds(poly, point, direction)
            assert hi == ref_interior_shift_bound(poly, point, direction), rows
            assert (lo, hi) == ref_segment_bounds(poly, point, direction), rows


def test_witness_on_a_ray_steps_one_unit_of_the_free_coordinate():
    """x^2 + y^3 + 0 has the ray 2x = 3y, x >= -1/3, and its hull direction (3, 2) has f = 2.

    The witness steps t = 1 / 2 along (3, 2), which is (3/2, 1): the point of
    the pin `tests/pins/dim_x2+y3+0.json`.  A step of t = 1 would read (4, 8/3).
    """
    (f,) = parse_polynomials(["x^2 + y^3 + 0"], LAURENT, None)
    x = prevariety([f])
    (cell,) = [c for c in x.cells if c.dim == 1 and c.interior_point == ((3, 2), 3)]
    (direction,) = polyhedra.affine_hull_directions(cell.rows, 2, cell.interior_point)
    assert direction == (3, 2)
    assert polyhedra.line_bounds(cell.rows, cell.interior_point, direction) == (Fraction(-1, 3), None)
    assert witness_prime(x, [f]).rows == (
        (1, 1, Fraction(2, 3)),
        (1, Fraction(5, 2), Fraction(5, 3)),
    )


def test_witness_rejects_a_boundary_interior_point():
    # a ray with its apex as interior point: the directions read off a
    # boundary point are too few, which the witness must not hide
    ray = (((1, 0), 0, EQ), ((0, 1), 0, LE))
    x = PolyComplex(2, LAURENT, (Cell(ray, 1, 1, _int_point((Fraction(0), Fraction(0)))),))
    with pytest.raises(ValueError, match="not strictly inside the cell"):
        witness_prime(x, [])
    # JSON cannot carry such a cell: complex_from_json rejects the apex
    ray = {
        "stratum": [],
        "normals": [["1", "0"], ["0", "1"]],
        "rhs": ["0", "0"],
        "relations": ["eq", "le"],
        "dim": 1,
        "interior_point": ["0", "0"],
    }
    with pytest.raises(ValueError, match="on the boundary of the cell"):
        complex_from_json({"ambient": 2, "mode": "laurent", "cells": [ray]})
    ray["interior_point"] = ["0", "-1"]
    x = complex_from_json({"ambient": 2, "mode": "laurent", "cells": [ray]})
    assert witness_prime(x, []).rank == 2


def test_dimension_report_makes_no_hull_solve(solves):
    # three tie cells, each one solve; the former hull made a fourth
    (f,) = parse_polynomials(["x + y + 0"], LAURENT, None)
    report = coordinate_dimension([f])
    assert report.coordinate_dim == 2
    assert solves[0] == 3


def test_reading_a_complex_makes_one_solve_per_cell(solves):
    # the segment x = 0, -1 <= y <= 1, with x = 0 written as two opposite LE
    # rows tight at its solve point, and the ray y = 0, x >= 0: each cell's
    # dimension is read off the rows tight at its one solve point
    segment = {
        "normals": [["1", "0"], ["-1", "0"], ["0", "1"], ["0", "-1"]],
        "rhs": ["0", "0", "1", "1"],
        "relations": ["le", "le", "le", "le"],
        "dim": 1,
        "interior_point": ["0", "1/2"],
    }
    ray = {
        "normals": [["0", "1"], ["-1", "0"]],
        "rhs": ["0", "0"],
        "relations": ["eq", "le"],
        "dim": 1,
        "interior_point": ["3", "0"],
    }
    data = {"ambient": 2, "mode": "laurent", "cells": [segment, ray]}
    rows = [((1, 0), 0, LE), ((-1, 0), 0, LE), ((0, 1), 1, LE), ((0, -1), 1, LE)]
    assert polyhedra._tight_rows(rows, polyhedra._int_feasible_point(rows, 2)) == [0, 1]
    solves[0] = 0
    x = complex_from_json(data)
    assert solves[0] == len(x.cells) == 2
    assert [cell.dim for cell in x.cells] == [1, 1]


def test_plot_of_a_line_makes_one_solve_per_clipped_cell(solves):
    # two axes and three rays: one feasibility check each, whose point is the
    # interior point when no row is tight there (was 10, and 18 before that)
    (f,) = parse_polynomials(["x + y + 0"], LAURENT, None)
    x = hypersurface(f)
    solves[0] = 0
    render_svg(x, (-5, -5, 5, 5))
    assert solves[0] == 5
