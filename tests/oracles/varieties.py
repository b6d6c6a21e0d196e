"""Oracles of `tropica.varieties`: the `Fraction` cell layer, and the seeded polynomials.

A tropical hypersurface is where the maximum of the terms is attained at
least twice: the union of the tie cells {term_i = term_j >= every other
term}.  `tie_cell` is that polyhedron, with `Fraction` constraints.
`ref_make_cell` solves a candidate polyhedron, finds its relative interior
point (`ref_int_interior_point`: probe every LE row tight at the feasible
point, then solve the strict system), compares `Fraction` term values there
(`ref_argmax`) and ranks the ties.  `ref_maximal_cells` keeps one cell per
argmax signature, the key-smallest, and drops a signature that strictly
contains another; `ref_maximal_by_containment` drops instead every cell
that Fourier-Motzkin probes show inside another (`ref_cell_subset`).
`ref_hypersurface`, `ref_prevariety` (the full product of the generators'
non-empty tie cells) and `ref_affine_prevariety` (one prevariety per
stratum, sorted by key at the end) are built on them.
`ref_vanishes_on_complex` asks whether some term strictly dominates
somewhere on a cell, with `Fraction` rows.  `ref_difference` is the former
per-entry `varieties._difference`.

These oracles solve through `tropica.polyhedra`, the layer below, with the
`Fraction` front end of `oracles.polyhedra`, so the `solves` fixture counts
their solves as well as the library's.  `ref_partials`, `schedule_offset`,
`affine_schedule_offset` and `dominance_solves` state how many solves the
library makes beside the oracle: the library's solve of a candidate already
gives its relative interior point, where the oracle probes and solves again.
"""

import functools
import itertools
import json
from dataclasses import replace
from fractions import Fraction
from math import lcm, prod

import pytest

from tropica import polyhedra, rendering, varieties
from tropica.matrices import dot
from tropica.polyhedra import EQ, LE, LT, _fractions, _int_point
from tropica.polynomials import POLY, Exponents, Polynomial
from tropica.varieties import Cell, PolyComplex, complex_from_json, complex_to_json

from oracles.matrices import rank
from oracles.polyhedra import (
    HalfSpace,
    Polyhedron,
    cell_polyhedron,
    feasible_point,
    fraction_cell,
    full_space,
    int_implicit_equalities,
    int_rows,
    intersect,
    is_empty,
    system_point,
)

# -- oracles -----------------------------------------------------------------------------


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


def ref_difference(terms, k, i, rel):
    """The former `varieties._difference`: the row term_k rel term_i, as a.x rel b."""
    _, gk, ck = terms[k]
    _, gi, ci = terms[i]
    return tuple(a - b for a, b in zip(gk, gi)), ci - ck, rel


def ref_int_interior_point(rows, n, point):
    """The former `polyhedra._int_interior_point`: probe every tight LE row, then solve."""
    implicit = set(int_implicit_equalities(rows, n, point))
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
    """(signature, cell) of a candidate polyhedron, or None when it is empty."""
    point = feasible_point(poly)
    if point is None:
        return None
    point = _fractions(ref_int_interior_point(int_rows(poly), poly.n, _int_point(point)))
    signature = tuple(ref_argmax(g, point) for g in gens)
    ties = [tuple(a - b for a, b in zip(e, min(terms))) for terms in signature for e in terms]
    return signature, fraction_cell(poly, poly.n - rank(ties), point)


def ref_maximal_cells(made) -> tuple[Cell, ...]:
    """The former `varieties._maximal_cells`: every signature against every other."""
    groups = {}
    for signature, cell in made:
        if signature not in groups or cell.key() < groups[signature].key():
            groups[signature] = cell

    def is_face(sig):
        return any(other != sig and all(b <= a for a, b in zip(sig, other)) for other in groups)

    return tuple(sorted((c for s, c in groups.items() if not is_face(s)), key=Cell.key))


def ref_cell_subset(a, b):
    """Exact inclusion test: a is contained in b."""
    if a.stratum != b.stratum:
        return False
    a, b = cell_polyhedron(a), cell_polyhedron(b)
    base = [(h.normal, h.rhs, h.relation) for h in a.constraints]
    n = a.n
    for h in b.constraints:
        neg = tuple(-x for x in h.normal)
        if system_point(base + [(neg, -h.rhs, LT)], n) is not None:
            return False
        if h.relation == EQ and system_point(base + [(h.normal, h.rhs, LT)], n) is not None:
            return False
    return True


def ref_dedup_maximal(cells):
    """Drop cells contained in another cell; among equal sets keep one."""
    kept = []
    for cell in sorted(cells, key=Cell.key):
        if any(ref_cell_subset(cell, other) for other in kept):
            continue
        kept = [k for k in kept if not ref_cell_subset(k, cell)]
        kept.append(cell)
    return sorted(kept, key=Cell.key)


def ref_maximal_by_containment(made) -> tuple[Cell, ...]:
    """The made cells that lie in no other, by Fourier-Motzkin probes: no signature is read."""
    return tuple(ref_dedup_maximal([cell for _, cell in made]))


def ref_hypersurface(f, maximal=ref_maximal_cells):
    polys = (tie_cell(f, i, j) for i, j in itertools.combinations(f.support(), 2))
    return PolyComplex(f.n, f.mode, maximal(filter(None, (ref_make_cell(p, [f]) for p in polys))))


def ref_prevariety(gens, maximal=ref_maximal_cells):
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
    return PolyComplex(n, mode, maximal(filter(None, (ref_make_cell(p, gens) for p in polys))))


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
    if system_point(region, ncoords) is None:
        return False
    for j in support:
        if j == i:
            continue
        gj, cj = ref_term_affine(restricted, j)
        strict = region + [(tuple(a - b for a, b in zip(gj, gi)), ci - cj, LT)]
        if system_point(strict, ncoords) is None:
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


# -- the solves the library makes beside the oracle --------------------------------------


def ref_partials(gens):
    """Products, partial intersections solved, those found empty, and the oracle's interior solves.

    The oracle solves each product of non-empty tie cells once.  One generator
    at a time, the first level reuses each tie cell's point and every later
    level solves each extension of a non-empty partial intersection once.
    A full candidate has the same rows either way, and its point is its
    relative interior point, so it takes no further solve; the oracle probes
    each LE row tight at that point and solves the strict system:
    new solves = oracle solves - products + solved - interior solves.
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
    interior = sum(1 + len(tight_rows(p, feasible_point(p))) for p in partial)
    return prod(len(polys) for polys in per_gen), solved, empty, interior


def schedule_offset(gens):
    """New solves minus oracle solves for prevariety(gens)."""
    products, solved, _, interior = ref_partials(gens)
    return solved - products - interior


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


@pytest.fixture
def solves(monkeypatch):
    """Counts Fourier-Motzkin solves, from `polyhedra`, `varieties` and `rendering`."""
    count = [0]
    solve = polyhedra._int_feasible_point

    def counted(rows, n):
        count[0] += 1
        return solve(rows, n)

    monkeypatch.setattr(polyhedra, "_int_feasible_point", counted)
    monkeypatch.setattr(varieties, "_int_feasible_point", counted)
    monkeypatch.setattr(rendering, "_int_feasible_point", counted)
    return count


def same(solves, new, ref, *args):
    """new(*args) and ref(*args), with the number of solves each made."""
    start = solves[0]
    got = new(*args)
    middle = solves[0]
    expected = ref(*args)
    return got, expected, middle - start, solves[0] - middle


def as_bytes(x):
    return json.dumps(complex_to_json(x), indent=2, sort_keys=True)


def read_back(x):
    return complex_from_json(json.loads(json.dumps(complex_to_json(x))))


# -- seeded polynomials ------------------------------------------------------------------

# mostly zero, so that many terms tie; one half, so that L is sometimes 2
VALUES = [0, 0, 0, 0, 1, -1, Fraction(1, 2)]
# mixed denominators (lcm 6) and a few integers, so that terms often tie
MIXED = [0, 1, -1, 2, Fraction(1, 2), Fraction(1, 3), Fraction(5, 6), Fraction(-7, 6)]


def random_polynomial(rng, n, mode):
    """2-6 draws of an exponent in low..2 and a coefficient of VALUES."""
    low = 0 if mode == POLY else -1
    coeffs = {}
    for _ in range(rng.randint(2, 6)):
        coeffs[tuple(rng.randint(low, 2) for _ in range(n))] = rng.choice(VALUES)
    return Polynomial(coeffs, n, mode)


def collinear_polynomial(rng, n, mode):
    """Terms on one lattice line, with a few off it: several tie pairs share one signature."""
    low = 0 if mode == POLY else -1
    base = tuple(rng.randint(low, 1) for _ in range(n))
    step = tuple(rng.randint(0, 1) for _ in range(n))
    if not any(step):
        step = (1,) + step[1:]
    coeffs = {tuple(b + t * s for b, s in zip(base, step)): rng.choice(VALUES) for t in range(3)}
    for _ in range(rng.randint(0, 2)):
        coeffs[tuple(rng.randint(low, 2) for _ in range(n))] = rng.choice(VALUES)
    return Polynomial(coeffs, n, mode)


def collinear_or_random_polynomial(rng, n, mode):
    """A collinear polynomial two times in five, else a random one."""
    if rng.random() < 0.4:
        return collinear_polynomial(rng, n, mode)
    return random_polynomial(rng, n, mode)


def valued_polynomial(rng, n, mode, terms, values):
    """``terms`` terms (fewer if the window is smaller), with coefficients from ``values``."""
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


def fan_polynomial(rng, n, mode, max_terms=6):
    """Small exponents and coefficients, so that cells are often non-generic.

    Half the polynomials have all coefficients 0: their hypersurfaces are fans
    on which many terms tie at the origin.
    """
    low = 0 if mode == POLY else -1
    values = rng.choice([[0], [0, 0, 1, -1, Fraction(1, 2)]])
    coeffs = {}
    target = rng.randint(2, max_terms)
    while len(coeffs) < target:
        expo = tuple(rng.randint(low, 2) for _ in range(n))
        coeffs[expo] = rng.choice(values)
    return Polynomial(coeffs, n, mode)
