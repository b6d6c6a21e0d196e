"""The integer cell layer against the Fraction cell layer of `oracles.varieties`.

`varieties` scales polynomials once to integers (term k becomes
(L e_k, L c_k); a prevariety shares one L, the lcm of all its generators'
coefficient denominators) and hands Fourier-Motzkin integer rows: tie
cells, their intersections and the strict-dominance systems of
`vanishes_on_complex`.  A cell keeps its rows over a canonical scale.  The
oracle builds each tie cell as a `Fraction` polyhedron (`tie_cell`), solves
the product of the generators' non-empty tie cells (`ref_prevariety`),
finds each candidate's interior point by probing the LE rows tight at its
feasible point, and compares `Fraction` term values there;
`ref_vanishes_on_complex` refines each cell, on `Fraction` rows, into the
regions where one term dominates, and asks of each region whether its term
strictly dominates somewhere.  On seeded inputs (mixed denominators, so
L > 1; generators of different scales, so the shared L is no generator's
own; poly and Laurent mode; affine strata; complexes read back from JSON)
the JSON bytes and the booleans must agree.  The solves agree too, up to
the schedule, which each test states exactly: `prevariety` intersects one
generator at a time and drops empty partial intersections, and a
candidate's one solve gives its relative interior point, where the oracle
probes its tight rows and solves again (`ref_partials` counts both on the
oracle); vanishing makes one strict-dominance solve per term read
(`dominance_solves`).  The solve's point itself is checked against
`ref_relative_interior_point`, which probes the LE rows with the
`Fraction` Fourier-Motzkin oracle.
"""

import random
from fractions import Fraction
from math import lcm

from tropica import polyhedra
from tropica.polyhedra import EQ, LE, LT, _fractions
from tropica.polynomials import LAURENT, POLY
from tropica.varieties import affine_prevariety, hypersurface, prevariety, vanishes_on_complex

from oracles.polyhedra import make_polyhedron, ref_relative_interior_point
from oracles.varieties import (
    MIXED,
    affine_schedule_offset,
    as_bytes,
    dominance_solves,
    own_scale,
    read_back,
    ref_affine_prevariety,
    ref_hypersurface,
    ref_partials,
    ref_prevariety,
    ref_vanishes_on_complex,
    same,
    scaled_values,
    schedule_offset,
    solves,
    tight_rows,
    valued_polynomial,
)


def test_hypersurfaces_match_fraction_oracle(solves):
    rng = random.Random(91)
    merged = saved = 0
    for mode in (LAURENT, POLY):
        for _ in range(45):
            f = valued_polynomial(rng, rng.randint(1, 3), mode, rng.randint(2, 6), MIXED)
            got, expected, new_solves, ref_solves = same(
                solves, hypersurface, ref_hypersurface, f
            )
            assert as_bytes(got) == as_bytes(expected), f
            interior = ref_partials([f])[3]
            assert new_solves == ref_solves - interior
            merged += len(got.cells) < len(f) * (len(f) - 1) // 2
            saved += interior
    assert merged >= 20 and saved >= 100


def test_prevarieties_match_fraction_oracle(solves):
    rng = random.Random(92)
    cells = saved = 0
    for mode in (LAURENT, POLY):
        for _ in range(30):
            n = rng.choice([2, 2, 3])
            count = rng.choice([2, 3]) if n == 2 else 2
            gens = [
                valued_polynomial(rng, n, mode, rng.randint(2, 4), scaled_values(rng))
                for _ in range(count)
            ]
            got, expected, new_solves, ref_solves = same(solves, prevariety, ref_prevariety, gens)
            assert as_bytes(got) == as_bytes(expected), gens
            assert new_solves == ref_solves + schedule_offset(gens)
            cells += len(got.cells)
            saved += ref_partials(gens)[3]
    assert cells >= 60 and saved >= 60


def test_pruned_prevarieties_match_product_oracle(solves):
    """Three or four generators with tied coefficients: most partial intersections are empty."""
    rng = random.Random(95)
    empty = 0
    for _ in range(8):
        mode = rng.choice([LAURENT, POLY])
        gens = [
            valued_polynomial(rng, 3, mode, rng.randint(4, 6), [0, 1, -1])
            for _ in range(rng.choice([3, 4]))
        ]
        got, expected, new_solves, ref_solves = same(solves, prevariety, ref_prevariety, gens)
        assert as_bytes(got) == as_bytes(expected), gens
        products, solved, dropped, interior = ref_partials(gens)
        assert new_solves == ref_solves - products + solved - interior
        empty += dropped
    assert empty >= 2000


def denominated_polynomial(rng, n, mode, den):
    """A random generator whose coefficient denominators have lcm exactly den."""
    values = [Fraction(k, den) for k in range(-2 * den, 2 * den + 1)]
    while True:
        f = valued_polynomial(rng, n, mode, rng.randint(2, 4), values)
        if own_scale(f) == den:
            return f


def test_shared_scale_matches_fraction_oracle(solves):
    """Generators of coprime denominators: the shared L is no generator's own L.

    Each generator's rows are scaled by the shared L, a proper multiple of
    its own; by the scaling lemma the solves and the output are unchanged.
    """
    rng = random.Random(96)
    cells = 0
    for mode in (LAURENT, POLY):
        for _ in range(25):
            n = rng.choice([2, 2, 3])
            dens = rng.sample([2, 3, 5, 7], 2 if n == 3 else rng.choice([2, 3]))
            gens = [denominated_polynomial(rng, n, mode, den) for den in dens]
            shared = lcm(*(own_scale(g) for g in gens))
            assert all(own_scale(g) < shared for g in gens)
            got, expected, new_solves, ref_solves = same(solves, prevariety, ref_prevariety, gens)
            assert as_bytes(got) == as_bytes(expected), gens
            assert new_solves == ref_solves + schedule_offset(gens)
            assert as_bytes(read_back(got)) == as_bytes(got)
            cells += len(got.cells)
    assert cells >= 60


def test_affine_prevarieties_match_fraction_oracle(solves):
    rng = random.Random(93)
    strata = 0
    for _ in range(30):
        n = rng.choice([1, 2, 3])
        values = rng.choice([MIXED, scaled_values(rng)])
        gens = [
            valued_polynomial(rng, n, POLY, rng.randint(2, 4), values)
            for _ in range(rng.choice([1, 2]))
        ]
        got, expected, new_solves, ref_solves = same(
            solves, affine_prevariety, ref_affine_prevariety, gens
        )
        assert as_bytes(got) == as_bytes(expected), gens
        assert new_solves == ref_solves + affine_schedule_offset(gens)
        strata += sum(bool(c.stratum) for c in got.cells)
    assert strata >= 15


def test_vanishing_on_read_back_complexes_matches_fraction_oracle(solves):
    rng = random.Random(94)
    answers = []
    saved = 0
    for _ in range(40):
        kind = rng.choice(["hypersurface", "prevariety", "affine"])
        n = rng.choice([1, 2, 3]) if kind == "affine" else rng.choice([2, 3])
        mode = POLY if kind == "affine" else rng.choice([LAURENT, POLY])
        gens = [
            valued_polynomial(rng, n, mode, rng.randint(2, 4), MIXED)
            for _ in range(1 if kind == "hypersurface" else 2)
        ]
        if kind == "hypersurface":
            x = hypersurface(gens[0])
        else:
            x = prevariety(gens) if kind == "prevariety" else affine_prevariety(gens)
        x = read_back(x)
        for _ in range(4):
            other = valued_polynomial(rng, n, mode, rng.randint(1, 3), scaled_values(rng))
            f = rng.choice([other, gens[0] * other, gens[-1].scale(rng.choice(MIXED))])
            got, expected, new_solves, ref_solves = same(
                solves, vanishes_on_complex, ref_vanishes_on_complex, f, x
            )
            assert got is expected, (f, gens)
            assert new_solves == dominance_solves(f, x)
            answers.append(got)
            saved += ref_solves - new_solves
    assert answers.count(True) >= 40 and answers.count(False) >= 40
    assert saved >= 500


# -- the interior lemma ---------------------------------------------------------


def random_int_system(rng):
    """Integer EQ/LE rows in 1-4 variables, with duplicate, parallel and opposite rows."""
    n = rng.randint(1, 4)
    rows = []
    for _ in range(rng.randint(1, 6)):
        a = tuple(rng.randint(-2, 2) for _ in range(n))
        b = rng.randint(-3, 3)
        rows.append((a, b, EQ if rng.random() < 0.15 else LE))
        roll = rng.random()
        if roll < 0.15:
            rows.append(rows[-1])
        elif roll < 0.35:
            k = rng.randint(2, 3)
            rows.append((tuple(k * x for x in a), k * b + rng.randint(-1, 1), LE))
        elif roll < 0.5:
            rows.append((tuple(-x for x in a), rng.randint(0, 1) - b, LE))
    return rows, n


def test_strict_system_is_feasible_iff_no_row_is_tight():
    """R with every LE row strict is feasible iff no LE row is tight at R's FM point.

    Then both solves give the same point.  Either way the point is the
    oracle's relative interior point (interior lemma of `polyhedra`), which
    probes the rows tight there and solves the strict system.
    """
    rng = random.Random(96)
    shortcut = probed = empty = 0
    for _ in range(1500):
        rows, n = random_int_system(rng)
        point = polyhedra._int_feasible_point(rows, n)
        strict = [(a, b, LT if rel == LE else rel) for a, b, rel in rows]
        strict_point = polyhedra._int_feasible_point(strict, n)
        if point is None:
            assert strict_point is None, rows
            empty += 1
            continue
        poly = make_polyhedron(rows, n)
        tight = tight_rows(poly, _fractions(point))
        assert (strict_point is not None) == (not tight), rows
        if strict_point is not None:
            assert strict_point == point, rows
            shortcut += 1
        else:
            probed += 1
        assert _fractions(point) == ref_relative_interior_point(poly), rows
    assert shortcut >= 500 and probed >= 150 and empty >= 300
