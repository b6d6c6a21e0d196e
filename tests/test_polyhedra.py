"""Exact polyhedra: feasibility, dimension, interior points, projection.

Most tests state their polyhedra as `Fraction` constraints, through the
front end of `oracles.polyhedra`, which clears each constraint and
calls the library's integer functions.  The last section calls those
functions on integer rows directly.
"""

import random
from fractions import Fraction

import pytest

from tropica import polyhedra
from tropica.matrices import dot
from tropica.polyhedra import EQ, LE, _int_point

from oracles.polyhedra import (
    affine_hull_directions,
    contains_point,
    dimension,
    fm_eliminate,
    full_space,
    implicit_equality_indices,
    intersect,
    is_empty,
    make_polyhedron,
    ref_lift_exists,
    relative_interior_point,
)


def poly(rows, n):
    return make_polyhedron(rows, n)


# -- emptiness ----------------------------------------------------------------


def test_empty_examples():
    assert is_empty(poly([((1,), 0, LE), ((-1,), -1, LE)], 1))
    assert not is_empty(poly([((1,), 1, LE)], 1))
    assert not is_empty(poly([((1, 1), 0, EQ), ((1, 0), 3, LE), ((-1, 0), 3, LE)], 2))


def test_contradictory_equalities():
    assert is_empty(poly([((1, 1), 0, EQ), ((2, 2), 1, EQ)], 2))


@pytest.mark.parametrize(
    "rows, message",
    [
        ([((1,), 1, LE)], "row 0: normal has 1 entries, expected n = 2"),
        ([((0, 0, 1), -1, LE)], "row 0: normal has 3 entries, expected n = 2"),
        ([((1, 0), 1, LE), ((0, 0, 1), -1, LE)], "row 1: normal has 3 entries, expected n = 2"),
    ],
    ids=["short", "long", "second-row"],
)
def test_make_polyhedron_rejects_normals_of_the_wrong_length(rows, message):
    """A short normal used to build and then raise IndexError; a long one read as the empty set."""
    with pytest.raises(ValueError, match=message):
        make_polyhedron(rows, 2)


def test_empty_constraint_list_is_full_space():
    assert not is_empty(full_space(3))
    assert dimension(full_space(3)) == 3


# -- dimension -----------------------------------------------------------------


def test_dimension_examples():
    assert dimension(full_space(2)) == 2
    assert dimension(poly([((1, -1), 0, EQ)], 2)) == 1
    assert dimension(poly([((1, 0), 1, EQ), ((0, 1), 2, EQ)], 2)) == 0
    assert dimension(poly([((1,), 0, LE), ((-1,), -1, LE)], 1)) == -1


def test_dimension_detects_implicit_equalities():
    squeezed = poly([((1, 1), 1, LE), ((-1, -1), -1, LE), ((1, 0), 5, LE)], 2)
    assert implicit_equality_indices(squeezed) == [0, 1]
    assert dimension(squeezed) == 1


def test_dimension_vs_sampled_affine_hull():
    # oracle: dimension of the span of (sample - first sample) for many samples
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(1, 3)
        rows = []
        for _ in range(rng.randint(1, 4)):
            normal = tuple(Fraction(rng.randint(-2, 2)) for _ in range(n))
            if all(v == 0 for v in normal):
                continue
            rows.append((normal, Fraction(rng.randint(-2, 4)), EQ if rng.random() < 0.3 else LE))
        p = poly(rows, n)
        if is_empty(p):
            assert dimension(p) == -1
            continue
        d = dimension(p)
        base = relative_interior_point(p)
        directions = affine_hull_directions(p, base)
        assert len(directions) == d
        # shifted samples along hull directions stay inside (small steps)
        for v in directions:
            for eps in (Fraction(1, 7), Fraction(-1, 7)):
                q = tuple(b + eps * x for b, x in zip(base, v))
                scale = Fraction(1)
                while not contains_point(p, tuple(b + scale * eps * x for b, x in zip(base, v))):
                    scale /= 2
                    assert scale >= Fraction(1, 2**20)


# -- relative interior -----------------------------------------------------------


def test_relative_interior_examples():
    seg = poly([((-1,), 0, LE), ((1,), 2, LE)], 1)
    (x,) = relative_interior_point(seg)
    assert Fraction(0) < x < Fraction(2)

    ray = poly([((1, -1), 0, EQ), ((-1, 0), 0, LE)], 2)
    px, py = relative_interior_point(ray)
    assert px == py and px > 0

    point = poly([((1,), 1, EQ)], 1)
    assert relative_interior_point(point) == (Fraction(1),)


def test_relative_interior_is_strict_on_non_implied_constraints():
    rng = random.Random(11)
    done = 0
    while done < 100:
        n = rng.randint(1, 3)
        rows = []
        for _ in range(rng.randint(1, 5)):
            normal = tuple(Fraction(rng.randint(-2, 2)) for _ in range(n))
            if all(v == 0 for v in normal):
                continue
            rows.append((normal, Fraction(rng.randint(-1, 4)), LE))
        p = poly(rows, n)
        if is_empty(p):
            continue
        done += 1
        point = relative_interior_point(p)
        implied = set(implicit_equality_indices(p))
        for i, h in enumerate(p.constraints):
            value = dot(h.normal, point)
            if i in implied:
                assert value == h.rhs
            else:
                assert value < h.rhs


def test_relative_interior_of_empty_raises():
    with pytest.raises(ValueError):
        relative_interior_point(poly([((1,), 0, LE), ((-1,), -1, LE)], 1))


# -- intersection ------------------------------------------------------------------


def test_intersect_examples():
    p = poly([((1, 0), 1, LE)], 2)
    assert intersect(p, full_space(2)).constraints == p.constraints
    line = intersect(poly([((1,), 0, LE)], 1), poly([((-1,), 0, LE)], 1))
    assert dimension(line) == 0
    assert is_empty(intersect(poly([((1,), 0, LE)], 1), poly([((-1,), -1, LE)], 1)))


def test_intersect_dimension_mismatch():
    with pytest.raises(ValueError):
        intersect(full_space(1), full_space(2))


# -- projection ----------------------------------------------------------------------


def test_projection_triangle():
    tri = poly([((1, 1), 1, LE), ((-1, 0), 0, LE), ((0, -1), 0, LE)], 2)
    proj = fm_eliminate(tri, 1)
    assert proj.n == 1
    for x, inside in [(Fraction(0), True), (Fraction(1, 2), True), (Fraction(1), True), (Fraction(2), False), (Fraction(-1, 4), False)]:
        assert contains_point(proj, (x,)) == inside


def test_projection_of_point():
    pt = poly([((1, 0), 1, EQ), ((0, 1), 2, EQ)], 2)
    proj = fm_eliminate(pt, 1)
    assert dimension(proj) == 0
    assert contains_point(proj, (1,)) and not contains_point(proj, (0,))


def test_projection_membership_vs_lift_oracle():
    rng = random.Random(13)
    cases = 0
    while cases < 500:
        n = rng.randint(2, 3)
        rows = []
        for _ in range(rng.randint(2, 5)):
            normal = tuple(Fraction(rng.randint(-3, 3)) for _ in range(n))
            if all(v == 0 for v in normal):
                continue
            rel = EQ if rng.random() < 0.2 else LE
            rows.append((normal, Fraction(rng.randint(-4, 4)), rel))
        if not rows:
            continue
        p = poly(rows, n)
        index = rng.randrange(n)
        proj = fm_eliminate(p, index)
        point = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 2)) for _ in range(n - 1))
        cases += 1
        assert contains_point(proj, point) == ref_lift_exists(p, index, point)


def test_projection_preserves_emptiness():
    rng = random.Random(17)
    for _ in range(100):
        n = rng.randint(2, 3)
        rows = []
        for _ in range(rng.randint(2, 6)):
            normal = tuple(Fraction(rng.randint(-2, 2)) for _ in range(n))
            if all(v == 0 for v in normal):
                continue
            rows.append((normal, Fraction(rng.randint(-3, 2)), EQ if rng.random() < 0.3 else LE))
        p = poly(rows, n)
        proj = fm_eliminate(p, rng.randrange(n))
        assert is_empty(p) == is_empty(proj)


# -- integer rows --------------------------------------------------------------------


def test_integer_row_functions_give_exact_answers_on_integer_input():
    """Integer rows, points and directions: the answers are Fractions, never floats."""
    seg = [((2,), 3, LE), ((-2,), 0, LE)]  # 0 <= x <= 3/2
    assert polyhedra.line_bounds(seg, (0,), (1,)) == (0, Fraction(3, 2))
    assert all(type(t) is Fraction for t in polyhedra.line_bounds(seg, (1,), (2,)))
    assert polyhedra.dimension(seg, 1) == 1
    assert polyhedra.affine_hull_directions(seg, 1, _int_point((Fraction(3, 4),))) == [(Fraction(1),)]
    assert polyhedra.affine_hull_directions(seg, 1, _int_point((0,))) == []  # a boundary point
    assert polyhedra.contains_point(seg, _int_point(("3/2",)))
    assert not polyhedra.contains_point(seg, _int_point((2,)))
