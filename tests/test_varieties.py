"""Hypersurfaces, prevarieties, strata, vanishing on complexes."""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from tropica.polyhedra import _fractions, _int_point, contains_point
from tropica.polynomials import LAURENT, POLY, Polynomial
from tropica.primes import bend_ideal_member, variety_of_prime
from tropica.sampling import random_admissible, random_point, random_polynomial
from tropica.varieties import (
    affine_prevariety,
    complex_contains_point,
    complex_dim,
    complex_from_json,
    complex_to_json,
    hypersurface,
    prevariety,
    vanishes_on_complex,
)

from oracles.parsing import P
from oracles.sampling import ref_random_member_polynomial


def L(text, n=None):
    return P(text, n, LAURENT)


# -- hypersurfaces -----------------------------------------------------------------


def test_tropical_line():
    x = hypersurface(L("x + y + 0"))
    assert len(x.cells) == 3
    assert all(cell.dim == 1 for cell in x.cells)
    assert complex_dim(x) == 1
    # the origin lies in every cell
    for cell in x.cells:
        assert contains_point(cell.rows, _int_point((0, 0)))


def test_binomial_point():
    x = hypersurface(L("x + 0", 1))
    assert [(c.dim, _fractions(c.interior_point)) for c in x.cells] == [(0, (Fraction(0),))]


def test_monomial_hypersurface_empty():
    assert hypersurface(L("3*x^2*y")).cells == ()
    assert hypersurface(Polynomial.zero(2)).cells == ()


def test_hypersurface_soundness_by_sampling():
    rng = random.Random(3)
    hits = 0
    while hits < 60:
        f = random_polynomial(rng, 2, max_terms=4, max_deg=2)
        if len(f) < 2:
            continue
        hits += 1
        x = hypersurface(f)
        for cell in x.cells:
            assert f.vanishes_at(_fractions(cell.interior_point))
        for _ in range(10):
            p = random_point(rng, 2, -6, 6, 4)
            if not complex_contains_point(x, p):
                assert not f.vanishes_at(p)


def test_off_complex_points_do_not_vanish():
    f = L("x + y + 0")
    x = hypersurface(f)
    rng = random.Random(7)
    rejected = 0
    for _ in range(400):
        p = random_point(rng, 2, -8, 8, 5)
        if complex_contains_point(x, p):
            assert f.vanishes_at(p)
        else:
            rejected += 1
            assert not f.vanishes_at(p)
    assert rejected >= 200


@pytest.mark.parametrize(
    "point, message",
    [
        ((0,), "point has length 1, expected 2"),
        ((0, 0, 5), "point has length 3, expected 2"),
        ((0, 0.5), "floating point values are not allowed"),
    ],
)
def test_complex_contains_point_reads_the_point_exactly(point, message):
    # a point of the wrong length is an error, not a prefix or a padded point
    x = hypersurface(P("x + y + 0"))
    assert complex_contains_point(x, (0, 0)) and complex_contains_point(x, ("1/2", "1/2"))
    with pytest.raises(ValueError, match=message):
        complex_contains_point(x, point)


# -- prevarieties ------------------------------------------------------------------


def test_two_binomial_point():
    x = prevariety([L("x + 1", 2), L("y + 2", 2)])
    assert [(c.dim, _fractions(c.interior_point)) for c in x.cells] == [
        (0, (Fraction(1), Fraction(2)))
    ]


def test_single_generator_matches_hypersurface():
    f = L("x + y + 0")
    a, b = prevariety([f]), hypersurface(f)
    assert {c.key() for c in a.cells} == {c.key() for c in b.cells}


def test_tie_constraint_solution():
    x = prevariety([L("x + y"), L("x + 0", 2)])
    assert [(c.dim, _fractions(c.interior_point)) for c in x.cells] == [
        (0, (Fraction(0), Fraction(0)))
    ]


def test_monomial_generator_kills_prevariety():
    assert prevariety([L("x + y"), L("x*y")]).cells == ()


def test_empty_generator_list_rejected():
    with pytest.raises(ValueError):
        prevariety([])


def test_scalar_shift_leaves_prevariety_unchanged():
    rng = random.Random(11)
    done = 0
    while done < 30:
        gens = [random_polynomial(rng, 2, max_terms=3, max_deg=2) for _ in range(2)]
        if any(len(g) < 2 for g in gens):
            continue
        done += 1
        shift = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        shifted = [g.scale(shift) for g in gens]
        a = prevariety(gens)
        b = prevariety(shifted)
        assert {c.key() for c in a.cells} == {c.key() for c in b.cells}


def test_prevariety_contains_variety_of_member_primes():
    # generators drawn from the bend ideal of a prime vanish at its variety
    # point, so the prevariety contains it whenever the variety is non-empty
    rng = random.Random(13)
    checked = 0
    for trial in range(200):
        n = rng.randint(1, 2)
        first = "positive" if trial % 2 else "any"
        matrix = random_admissible(rng, n, rng.randint(1, n + 1), first_entry=first)
        point = variety_of_prime(matrix)
        if point is None:
            continue
        gens = []
        attempts = 0
        while len(gens) < 2 and attempts < 200:
            attempts += 1
            f = ref_random_member_polynomial(rng, point, LAURENT, max_extra=2, max_deg=2)
            if bend_ideal_member(matrix, f):
                gens.append(f)
        if len(gens) < 2:
            continue
        checked += 1
        x = prevariety(gens)
        assert complex_contains_point(x, point)
    assert checked >= 60


# -- affine strata -------------------------------------------------------------------


def test_affine_binomial_strata():
    x = affine_prevariety([P("x + y", mode=POLY)])
    by_stratum = {c.stratum: c for c in x.cells}
    assert set(by_stratum) == {(), (0, 1)}
    diag = by_stratum[()]
    assert diag.dim == 1
    assert by_stratum[(0, 1)].dim == 0
    assert complex_dim(x) == 1


def test_affine_constant_only_real_stratum():
    x = affine_prevariety([P("x + 0", 1, POLY)])
    assert [(c.stratum, c.dim, _fractions(c.interior_point)) for c in x.cells] == [
        ((), 0, (Fraction(0),))
    ]


def test_affine_empty_generators_rejected():
    with pytest.raises(ValueError):
        affine_prevariety([])


def test_affine_requires_poly_mode():
    with pytest.raises(ValueError):
        affine_prevariety([L("x + y")])


def test_affine_variable_generator():
    # V(x) in T^1 is the single point -inf
    x = affine_prevariety([P("x", 1, POLY)])
    assert [(c.stratum, c.dim) for c in x.cells] == [((0,), 0)]


# -- dimension --------------------------------------------------------------------------


def test_complex_dim_examples():
    assert complex_dim(hypersurface(L("x + y + 0"))) == 1
    assert complex_dim(prevariety([L("x + 1", 2), L("y + 2", 2)])) == 0
    assert complex_dim(hypersurface(L("3*x*y"))) == -1


# -- vanishing on complexes ----------------------------------------------------------------


def test_self_vanishing():
    f = L("x + y + 0")
    assert vanishes_on_complex(f, hypersurface(f))


def test_point_complex_vanishing():
    x = prevariety([L("x + 1", 2), L("y + 2", 2)])
    assert vanishes_on_complex(L("x + 1", 2), x)
    assert not vanishes_on_complex(L("x + 0", 2), x)


def test_monomial_never_vanishes_on_complex():
    x = hypersurface(L("x + y + 0"))
    assert not vanishes_on_complex(L("5*x*y^2"), x)
    # and anything vanishes on the empty complex
    assert vanishes_on_complex(L("5*x*y^2"), hypersurface(L("x*y")))


def test_vanishing_on_partial_cover():
    # x + y vanishes on the diagonal ray of the line but not on the other rays
    f = L("x + y + 0")
    assert not vanishes_on_complex(L("x + y"), hypersurface(f))


def test_products_vanish_on_factor_complex():
    rng = random.Random(17)
    done = 0
    while done < 30:
        f = random_polynomial(rng, 2, max_terms=3, max_deg=2)
        g = random_polynomial(rng, 2, max_terms=3, max_deg=2)
        if len(f) < 2 or g.is_zero():
            continue
        done += 1
        assert vanishes_on_complex(f * g, hypersurface(f))


# -- serialization -----------------------------------------------------------------------


def test_complex_json_round_trip():
    for x in (
        hypersurface(L("x + y + 0")),
        prevariety([L("x + 1", 2), L("y + 2", 2)]),
        affine_prevariety([P("x + y", mode=POLY)]),
    ):
        again = complex_from_json(complex_to_json(x))
        assert again == x


def test_complex_json_round_trip_keeps_canonical_scales():
    """Generators of different denominators: many cells have a scale below the shared L.

    A prevariety scales every generator by one L, but a cell's scale is the
    lcm of the denominators of its own constraints.  Half the generators
    have coefficients 1/den apart by integers, so their tie rows are
    integers.  A cell read back from JSON gets its scale from its text, so
    it equals the computed cell.
    """
    rng = random.Random(2110)
    cells = below = 0
    for _ in range(60):
        n = rng.choice([1, 2, 2, 3])
        gens = []
        for den in rng.sample([2, 3, 4, 5], 2 if n == 3 else rng.choice([2, 3])):
            offset = rng.choice([Fraction(1, den), None])
            coeffs = {
                tuple(rng.randint(-1, 2) for _ in range(n)): (
                    Fraction(rng.randint(-4, 4), den) if offset is None
                    else offset + rng.randint(-3, 3)
                )
                for _ in range(rng.randint(2, 4))
            }
            gens.append(Polynomial(coeffs, n, LAURENT))
        shared = lcm(*(c.denominator for g in gens for _, c in g.terms()))
        x = prevariety(gens)
        assert complex_from_json(complex_to_json(x)) == x, gens
        for cell in x.cells:
            entries = [v for a, b, _ in cell.rows for v in (*a, b)]
            assert gcd(cell.scale, *entries) == 1 and shared % cell.scale == 0
            cells += 1
            below += cell.scale < shared
    assert below >= 60 and cells - below >= 15, (below, cells)
