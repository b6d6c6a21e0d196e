"""The integer cell layer against the Fraction cell layer it replaced.

`varieties` scales polynomials once to integers (term k becomes
(L e_k, L c_k); a prevariety shares one L, the lcm of all its generators'
coefficient denominators) and hands Fourier-Motzkin integer rows: tie
cells, their intersections and the strict-dominance systems of
`vanishes_on_complex`.  A cell keeps its rows over a canonical scale; the
oracle reads its `Fraction` constraints with `fraction_polyhedra.cell_polyhedron`
and builds its cells with `fraction_cell`.  The former code is kept below as
the oracle: `tie_cell` is the former
`varieties.tie_cell`, the Fraction polyhedron of a tie cell, `ref_make_cell`
solves the Fraction polyhedron of each candidate, finds its interior point
with `ref_int_interior_point` (probe every LE row tight at the feasible
point, then solve the strict system) and compares `Fraction` term values
there, `ref_prevariety` builds the full product of the generators'
non-empty tie cells, and
`ref_vanishes_on_complex` (Fraction rows) and `ref_int_vanishes_on_complex`
(integer rows) refine each cell into the regions where one term dominates.
On seeded inputs (mixed denominators, so L > 1; generators of different
scales, so the shared L is no generator's own; poly and Laurent mode;
affine strata; complexes read back from JSON) the JSON bytes and the
booleans must agree.  The solves agree too, up to the schedule, which each
test states exactly: `prevariety` intersects one generator at a time and
drops empty partial intersections, a candidate whose feasible point meets
every LE row strictly needs no interior solve (`ref_partials` counts both
on the oracle), and vanishing makes one strict-dominance solve per term
read (`dominance_solves`).
"""

import functools
import itertools
import json
import random
from dataclasses import replace
from fractions import Fraction
from math import lcm, prod

import pytest

from tropica import polyhedra, varieties
from tropica.matrices import dot
from tropica.polyhedra import EQ, LE, LT, _fractions, _int_point
from tropica.polynomials import LAURENT, POLY, Exponents, Polynomial
from tropica.varieties import (
    Cell,
    PolyComplex,
    affine_prevariety,
    complex_from_json,
    complex_to_json,
    hypersurface,
    prevariety,
    vanishes_on_complex,
)

from fraction_polyhedra import (
    HalfSpace,
    Polyhedron,
    _feasible_point,
    cell_polyhedron,
    feasible_point,
    fraction_cell,
    full_space,
    int_rows,
    intersect,
    is_empty,
    make_polyhedron,
    relative_interior_point,
)
from test_cell_signatures import ref_difference
from test_integer_kernel import rank

# -- oracles: the former Fraction cell layer --------------------------------------


def tie_cell(f: Polynomial, i: Exponents, j: Exponents) -> Polyhedron:
    """{x : term_i(x) = term_j(x) >= term_k(x) for all k}."""
    ci = f.coefficient(i)
    cons = [HalfSpace(tuple(Fraction(a - b) for a, b in zip(i, j)), f.coefficient(j) - ci, EQ)]
    for k, ck in f.terms():
        if k != i and k != j:
            cons.append(HalfSpace(tuple(Fraction(a - b) for a, b in zip(k, i)), ci - ck, LE))
    return Polyhedron(tuple(cons), f.n)


def own_scale(f):
    """The lcm of f's coefficient denominators: the L of f scaled on its own."""
    return lcm(*(c.denominator for _, c in f.terms()))


def ref_int_interior_point(rows, n, point):
    """The former `polyhedra._int_interior_point`: probe every tight LE row, then solve."""
    implicit = set(polyhedra._int_implicit_equalities(rows, n, point))
    probe = [(a, b, EQ if rel == EQ or i in implicit else LT) for i, (a, b, rel) in enumerate(rows)]
    found = polyhedra._int_feasible_point(probe, n)
    if found is None:
        raise ValueError("polyhedron is empty")
    return found


def tight_rows(poly, point):
    """Indices of the LE constraints that hold with equality at the point."""
    return [
        i
        for i, h in enumerate(poly.constraints)
        if h.relation == LE and dot(h.normal, point) == h.rhs
    ]


def ref_argmax(f, point):
    values = {expo: c + dot(expo, point) for expo, c in f.terms()}
    top = max(values.values())
    return frozenset(expo for expo, v in values.items() if v == top)


def ref_make_cell(poly, gens):
    point = feasible_point(poly)
    if point is None:
        return None
    point = _fractions(ref_int_interior_point(int_rows(poly), poly.n, _int_point(point)))
    signature = tuple(ref_argmax(g, point) for g in gens)
    ties = [tuple(a - b for a, b in zip(e, min(terms))) for terms in signature for e in terms]
    return signature, fraction_cell(poly, poly.n - rank(ties), point)


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
                point = (Fraction(0),) * ambient
                cells.append(fraction_cell(full_space(ambient), ambient, point, dead))
                continue
            for cell in ref_prevariety(live).cells:
                cells.append(replace(cell, stratum=dead))
    return PolyComplex(n, POLY, tuple(sorted(cells, key=Cell.key)))


def ref_partials(gens):
    """Products, partial intersections solved, those found empty, and interior shortcuts.

    The oracle solves each product of non-empty tie cells once.  One generator
    at a time, the first level reuses each tie cell's point and every later
    level solves each extension of a non-empty partial intersection once.
    A full candidate has the same rows either way, so the probes and interior
    solves that follow agree, except that a non-empty candidate whose
    feasible point meets every LE row strictly (a shortcut) needs no
    interior solve: new solves = oracle solves - products + solved - shortcuts.
    """
    if any(len(g) < 2 for g in gens):
        return 0, 0, 0, 0
    per_gen = []
    for g in gens:
        polys = [tie_cell(g, i, j) for i, j in itertools.combinations(g.support(), 2)]
        polys = [p for p in polys if not is_empty(p)]
        if not polys:
            return 0, 0, 0, 0
        per_gen.append(polys)
    solved = empty = 0
    partial = per_gen[0]
    for polys in per_gen[1:]:
        extended = [intersect(p, q) for p in partial for q in polys]
        partial = [p for p in extended if not is_empty(p)]
        solved += len(extended)
        empty += len(extended) - len(partial)
    shortcuts = sum(not tight_rows(p, feasible_point(p)) for p in partial)
    return prod(len(polys) for polys in per_gen), solved, empty, shortcuts


def schedule_offset(gens):
    """New solves minus oracle solves for prevariety(gens)."""
    products, solved, _, shortcuts = ref_partials(gens)
    return solved - products - shortcuts


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


def ref_uncovered(restricted, cell, i):
    """Term i's region of the cell is non-empty and no other term agrees with it there.

    A convex set covered by finitely many hyperplanes lies in one of them, so
    this holds exactly when term i strictly dominates somewhere on the cell.
    """
    support = restricted.support()
    poly = cell_polyhedron(cell)
    base = [(h.normal, h.rhs, h.relation) for h in poly.constraints]
    ncoords = poly.n
    gi, ci = ref_term_affine(restricted, i)
    region = list(base)
    for k in support:
        if k == i:
            continue
        gk, ck = ref_term_affine(restricted, k)
        region.append((tuple(a - b for a, b in zip(gk, gi)), ci - ck, LE))
    if _feasible_point(region, ncoords) is None:
        return False
    for j in support:
        if j == i:
            continue
        gj, cj = ref_term_affine(restricted, j)
        strict = region + [(tuple(a - b for a, b in zip(gj, gi)), ci - cj, LT)]
        if _feasible_point(strict, ncoords) is None:
            return False
    return True


def ref_vanishes_on_complex(f, x):
    for cell in x.cells:
        restricted = f.restrict_to_stratum(cell.stratum) if cell.stratum else f
        if restricted.is_zero():
            if cell.stratum:
                continue
            return False
        if restricted.is_monomial():
            return False
        if any(ref_uncovered(restricted, cell, i) for i in restricted.support()):
            return False
    return True


def ref_int_vanishes_on_complex(f, x):
    """The former integer loop of `varieties.vanishes_on_complex`: regions, then strict probes."""
    for cell in x.cells:
        restricted = f.restrict_to_stratum(cell.stratum) if cell.stratum else f
        if restricted.is_zero():
            if cell.stratum:
                continue  # value is bottom on the whole stratum
            return False  # the zero polynomial vanishes nowhere on R^n
        if restricted.is_monomial():
            return False
        terms = varieties._scaled_terms(restricted, own_scale(restricted))
        poly = cell_polyhedron(cell)
        base = int_rows(poly)
        ncoords = poly.n
        for i in range(len(terms)):
            others = [k for k in range(len(terms)) if k != i]
            region = base + [ref_difference(terms, k, i, LE) for k in others]
            if polyhedra._int_feasible_point(region, ncoords) is None:
                continue
            # covered when term_j < term_i nowhere on the region, for some j
            if not any(
                polyhedra._int_feasible_point(
                    region + [ref_difference(terms, j, i, LT)], ncoords
                )
                is None
                for j in others
            ):
                return False
    return True


def dominance_solves(f, x):
    """The solves of strict dominance on x, from the oracle's per-term answers.

    One solve per term of each cell read, up to and including the first term
    that is uncovered (so strictly dominates somewhere); a zero or monomial
    restriction answers with no solve.
    """
    total = 0
    for cell in x.cells:
        restricted = f.restrict_to_stratum(cell.stratum) if cell.stratum else f
        if restricted.is_zero():
            if cell.stratum:
                continue
            return total
        if restricted.is_monomial():
            return total
        for read, i in enumerate(restricted.support(), 1):
            if ref_uncovered(restricted, cell, i):
                return total + read
        total += len(restricted)
    return total


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
    merged = skipped = 0
    for mode in (LAURENT, POLY):
        for _ in range(45):
            f = random_polynomial(rng, rng.randint(1, 3), mode, rng.randint(2, 6), MIXED)
            got, expected, new_solves, ref_solves = same(
                solves, hypersurface, ref_hypersurface, f
            )
            assert as_bytes(got) == as_bytes(expected), f
            shortcuts = ref_partials([f])[3]
            assert new_solves == ref_solves - shortcuts
            merged += len(got.cells) < len(f) * (len(f) - 1) // 2
            skipped += shortcuts
    assert merged >= 20 and skipped >= 100


def test_prevarieties_match_fraction_oracle(solves):
    rng = random.Random(92)
    cells = skipped = 0
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
            skipped += ref_partials(gens)[3]
    assert cells >= 60 and skipped >= 60


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
        products, solved, dropped, shortcuts = ref_partials(gens)
        assert new_solves == ref_solves - products + solved - shortcuts
        empty += dropped
    assert empty >= 2000


def denominated_polynomial(rng, n, mode, den):
    """A random generator whose coefficient denominators have lcm exactly den."""
    values = [Fraction(k, den) for k in range(-2 * den, 2 * den + 1)]
    while True:
        f = random_polynomial(rng, n, mode, rng.randint(2, 4), values)
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
    saved = 0
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
            former, _, former_solves, fraction_solves = same(
                solves, ref_int_vanishes_on_complex, ref_vanishes_on_complex, f, x
            )
            assert got is expected is former, (f, gens)
            assert former_solves == fraction_solves
            assert new_solves == dominance_solves(f, x)
            answers.append(got)
            saved += former_solves - new_solves
    assert answers.count(True) >= 40 and answers.count(False) >= 40
    assert saved >= 500


# -- the strictness lemma ---------------------------------------------------------


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

    Then both solves give the same point, and `relative_interior_point`
    returns it with no further solve; either way it matches the oracle.
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
        expected = _fractions(ref_int_interior_point(rows, n, point))
        assert relative_interior_point(poly) == expected, rows
    assert shortcut >= 500 and probed >= 150 and empty >= 300
