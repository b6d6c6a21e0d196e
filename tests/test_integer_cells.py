"""The integer cell layer against the Fraction cell layer it replaced.

`varieties` scales each polynomial once to integers (term k becomes
(L e_k, L c_k), L the lcm of its coefficient denominators) and hands
Fourier-Motzkin integer rows: tie cells, their intersections and the regions
of `vanishes_on_complex`.  The former Fraction code is kept below as the
oracle: `ref_make_cell` solves the Fraction polyhedron of each candidate and
compares `Fraction` term values at its interior point, `ref_prevariety`
builds the full product of the generators' non-empty tie cells, and
`ref_vanishes_on_complex` builds every region from `Fraction` constraints.
On seeded inputs (mixed denominators, so L > 1; generators of different
scales; poly and Laurent mode; affine strata; complexes read back from
JSON) the JSON bytes and the booleans must agree.  The solves agree too, up
to the schedule: `prevariety` intersects one generator at a time and drops
empty partial intersections (`ref_partials` counts them on the oracle).
"""

import functools
import itertools
import json
import random
from fractions import Fraction
from math import prod

import pytest

from tropica import polyhedra, varieties
from tropica.matrices import dot, rank
from tropica.polyhedra import (
    LE,
    LT,
    _feasible_point,
    feasible_point,
    full_space,
    intersect,
    is_empty,
    relative_interior_point,
)
from tropica.polynomials import LAURENT, POLY, Polynomial
from tropica.varieties import (
    Cell,
    PolyComplex,
    affine_prevariety,
    complex_from_json,
    complex_to_json,
    hypersurface,
    prevariety,
    tie_cell,
    vanishes_on_complex,
)

# -- oracles: the former Fraction cell layer --------------------------------------


def ref_argmax(f, point):
    values = {expo: c + dot(expo, point) for expo, c in f.terms()}
    top = max(values.values())
    return frozenset(expo for expo, v in values.items() if v == top)


def ref_make_cell(poly, gens):
    point = feasible_point(poly)
    if point is None:
        return None
    point = relative_interior_point(poly, point)
    signature = tuple(ref_argmax(g, point) for g in gens)
    ties = [tuple(a - b for a, b in zip(e, min(terms))) for terms in signature for e in terms]
    return signature, Cell(poly, poly.n - rank(ties), point)


def ref_maximal_cells(polys, gens):
    groups = {}
    for signature, cell in filter(None, (ref_make_cell(p, gens) for p in polys)):
        if signature not in groups or cell.key() < groups[signature].key():
            groups[signature] = cell

    def is_face(sig):
        return any(other != sig and all(b <= a for a, b in zip(sig, other)) for other in groups)

    return tuple(sorted((c for s, c in groups.items() if not is_face(s)), key=Cell.key))


def ref_hypersurface(f):
    polys = (tie_cell(f, i, j) for i, j in itertools.combinations(f.support(), 2))
    return PolyComplex(f.n, f.mode, ref_maximal_cells(polys, [f]))


def ref_prevariety(gens):
    n, mode = gens[0].n, gens[0].mode
    if any(len(g) < 2 for g in gens):
        return PolyComplex(n, mode, ())
    per_gen = []
    for g in gens:
        polys = [tie_cell(g, i, j) for i, j in itertools.combinations(g.support(), 2)]
        polys = [p for p in polys if not is_empty(p)]
        if not polys:
            return PolyComplex(n, mode, ())
        per_gen.append(polys)
    polys = (functools.reduce(intersect, combo) for combo in itertools.product(*per_gen))
    return PolyComplex(n, mode, ref_maximal_cells(polys, gens))


def ref_affine_prevariety(gens):
    n = gens[0].n
    cells = []
    for size in range(n + 1):
        for dead in itertools.combinations(range(n), size):
            restricted = [g.restrict_to_stratum(dead) for g in gens]
            if any(r.is_monomial() for r in restricted):
                continue
            live = [r for r in restricted if not r.is_zero()]
            if not live:
                ambient = n - len(dead)
                cells.append(Cell(full_space(ambient), ambient, (Fraction(0),) * ambient, dead))
                continue
            for cell in ref_prevariety(live).cells:
                cells.append(Cell(cell.polyhedron, cell.dim, cell.interior_point, dead))
    return PolyComplex(n, POLY, tuple(sorted(cells, key=Cell.key)))


def ref_partials(gens):
    """Products, partial intersections solved and those found empty, for prevariety(gens).

    The oracle solves each product of non-empty tie cells once.  One generator
    at a time, the first level reuses each tie cell's point and every later
    level solves each extension of a non-empty partial intersection once.
    A full candidate has the same rows either way, so the probes and interior
    solves that follow agree: new solves = oracle solves - products + solved.
    """
    if any(len(g) < 2 for g in gens):
        return 0, 0, 0
    per_gen = []
    for g in gens:
        polys = [tie_cell(g, i, j) for i, j in itertools.combinations(g.support(), 2)]
        polys = [p for p in polys if not is_empty(p)]
        if not polys:
            return 0, 0, 0
        per_gen.append(polys)
    solved = empty = 0
    partial = per_gen[0]
    for polys in per_gen[1:]:
        extended = [intersect(p, q) for p in partial for q in polys]
        partial = [p for p in extended if not is_empty(p)]
        solved += len(extended)
        empty += len(extended) - len(partial)
    return prod(len(polys) for polys in per_gen), solved, empty


def schedule_offset(gens):
    """New solves minus oracle solves for prevariety(gens)."""
    products, solved, _ = ref_partials(gens)
    return solved - products


def affine_schedule_offset(gens):
    """New solves minus oracle solves for affine_prevariety(gens): one prevariety per stratum."""
    n = gens[0].n
    offset = 0
    for size in range(n + 1):
        for dead in itertools.combinations(range(n), size):
            restricted = [g.restrict_to_stratum(dead) for g in gens]
            live = [r for r in restricted if not r.is_zero()]
            if live and not any(r.is_monomial() for r in restricted):
                offset += schedule_offset(live)
    return offset


def ref_term_affine(f, expo):
    return tuple(Fraction(e) for e in expo), Fraction(f.coefficient(expo))


def ref_vanishes_on_complex(f, x):
    for cell in x.cells:
        restricted = f.restrict_to_stratum(cell.stratum) if cell.stratum else f
        if restricted.is_zero():
            if cell.stratum:
                continue
            return False
        if restricted.is_monomial():
            return False
        support = restricted.support()
        base = [(h.normal, h.rhs, h.relation) for h in cell.polyhedron.constraints]
        ncoords = cell.polyhedron.n
        for i in support:
            gi, ci = ref_term_affine(restricted, i)
            region = list(base)
            for k in support:
                if k == i:
                    continue
                gk, ck = ref_term_affine(restricted, k)
                region.append((tuple(a - b for a, b in zip(gk, gi)), ci - ck, LE))
            if _feasible_point(region, ncoords) is None:
                continue
            covered = False
            for j in support:
                if j == i:
                    continue
                gj, cj = ref_term_affine(restricted, j)
                strict = region + [(tuple(a - b for a, b in zip(gj, gi)), ci - cj, LT)]
                if _feasible_point(strict, ncoords) is None:
                    covered = True
                    break
            if not covered:
                return False
    return True


# -- seeded inputs ------------------------------------------------------------------

# mixed denominators (lcm 6) and a few integers, so that terms often tie
MIXED = [0, 1, -1, 2, Fraction(1, 2), Fraction(1, 3), Fraction(5, 6), Fraction(-7, 6)]


def random_polynomial(rng, n, mode, terms, values):
    low = 0 if mode == POLY else -1
    terms = min(terms, (3 - low) ** n)
    coeffs = {}
    while len(coeffs) < terms:
        coeffs[tuple(rng.randint(low, 2) for _ in range(n))] = rng.choice(values)
    return Polynomial(coeffs, n, mode)


def scaled_values(rng):
    """Coefficients with one denominator per generator, so generators differ in L."""
    den = rng.choice([1, 2, 3, 5, 6])
    return [Fraction(k, den) for k in range(-2 * den, 2 * den + 1, rng.choice([1, den]))]


def as_bytes(x):
    return json.dumps(complex_to_json(x), indent=2, sort_keys=True)


def read_back(x):
    return complex_from_json(json.loads(json.dumps(complex_to_json(x))))


@pytest.fixture
def solves(monkeypatch):
    """Counts Fourier-Motzkin solves, from `polyhedra` and from `varieties`."""
    count = [0]
    solve = polyhedra._int_feasible_point

    def counted(rows, n):
        count[0] += 1
        return solve(rows, n)

    monkeypatch.setattr(polyhedra, "_int_feasible_point", counted)
    monkeypatch.setattr(varieties, "_int_feasible_point", counted)
    return count


def same(solves, new, ref, *args):
    """new(*args) and ref(*args), with the number of solves each made."""
    start = solves[0]
    got = new(*args)
    middle = solves[0]
    expected = ref(*args)
    return got, expected, middle - start, solves[0] - middle


def test_hypersurfaces_match_fraction_oracle(solves):
    rng = random.Random(91)
    merged = 0
    for mode in (LAURENT, POLY):
        for _ in range(45):
            f = random_polynomial(rng, rng.randint(1, 3), mode, rng.randint(2, 6), MIXED)
            got, expected, new_solves, ref_solves = same(
                solves, hypersurface, ref_hypersurface, f
            )
            assert as_bytes(got) == as_bytes(expected), f
            assert new_solves == ref_solves
            merged += len(got.cells) < len(f) * (len(f) - 1) // 2
    assert merged >= 20


def test_prevarieties_match_fraction_oracle(solves):
    rng = random.Random(92)
    cells = 0
    for mode in (LAURENT, POLY):
        for _ in range(30):
            n = rng.choice([2, 2, 3])
            count = rng.choice([2, 3]) if n == 2 else 2
            gens = [
                random_polynomial(rng, n, mode, rng.randint(2, 4), scaled_values(rng))
                for _ in range(count)
            ]
            got, expected, new_solves, ref_solves = same(solves, prevariety, ref_prevariety, gens)
            assert as_bytes(got) == as_bytes(expected), gens
            assert new_solves == ref_solves + schedule_offset(gens)
            cells += len(got.cells)
    assert cells >= 60


def test_pruned_prevarieties_match_product_oracle(solves):
    """Three or four generators with tied coefficients: most partial intersections are empty."""
    rng = random.Random(95)
    empty = 0
    for _ in range(8):
        mode = rng.choice([LAURENT, POLY])
        gens = [
            random_polynomial(rng, 3, mode, rng.randint(4, 6), [0, 1, -1])
            for _ in range(rng.choice([3, 4]))
        ]
        got, expected, new_solves, ref_solves = same(solves, prevariety, ref_prevariety, gens)
        assert as_bytes(got) == as_bytes(expected), gens
        products, solved, dropped = ref_partials(gens)
        assert new_solves == ref_solves - products + solved
        empty += dropped
    assert empty >= 2000


def test_affine_prevarieties_match_fraction_oracle(solves):
    rng = random.Random(93)
    strata = 0
    for _ in range(30):
        n = rng.choice([1, 2, 3])
        values = rng.choice([MIXED, scaled_values(rng)])
        gens = [
            random_polynomial(rng, n, POLY, rng.randint(2, 4), values)
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
    for _ in range(40):
        kind = rng.choice(["hypersurface", "prevariety", "affine"])
        n = rng.choice([1, 2, 3]) if kind == "affine" else rng.choice([2, 3])
        mode = POLY if kind == "affine" else rng.choice([LAURENT, POLY])
        gens = [
            random_polynomial(rng, n, mode, rng.randint(2, 4), MIXED)
            for _ in range(1 if kind == "hypersurface" else 2)
        ]
        if kind == "hypersurface":
            x = hypersurface(gens[0])
        else:
            x = prevariety(gens) if kind == "prevariety" else affine_prevariety(gens)
        x = read_back(x)
        for _ in range(4):
            other = random_polynomial(rng, n, mode, rng.randint(1, 3), scaled_values(rng))
            f = rng.choice([other, gens[0] * other, gens[-1].scale(rng.choice(MIXED))])
            got, expected, new_solves, ref_solves = same(
                solves, vanishes_on_complex, ref_vanishes_on_complex, f, x
            )
            assert got is expected, (f, gens)
            assert new_solves == ref_solves
            answers.append(got)
    assert answers.count(True) >= 40 and answers.count(False) >= 40
