"""Argmax-signature cells against the LP-probing implementation they replaced.

The reference functions below are the former `varieties._cell_subset` /
`_dedup_maximal` pair (cell inclusion by Fourier-Motzkin feasibility probes)
and the first `polyhedra.implicit_equality_indices`, which probed every LE
constraint.  They are kept here only as oracles.  Tie cells come from the
`Fraction` oracle `tie_cell` of `test_integer_cells`; `rank` and the later
`implicit_equality_indices` are the shared copies of `test_integer_kernel`.
The implicit equalities of a non-empty set are checked on
`polyhedra._int_implicit_equalities` over `int_rows`.  The `Fraction`
polyhedra and their conversions to and from cells are those of
`fraction_polyhedra`.
"""

import itertools
import json
import random
from fractions import Fraction

import pytest

from tropica import varieties
from tropica.polyhedra import EQ, LE, LT, _int_feasible_point, _int_implicit_equalities
from tropica.polynomials import LAURENT, POLY, Polynomial
from tropica.varieties import Cell, complex_to_json

from fraction_polyhedra import (
    HalfSpace,
    Polyhedron,
    _feasible_point,
    cell_polyhedron,
    fraction_cell,
    int_rows,
    is_empty,
)
from test_integer_cells import tie_cell
from test_integer_kernel import implicit_equality_indices, rank

# -- reference implementations -------------------------------------------------


def ref_implicit_equality_indices(poly):
    cons = [(h.normal, h.rhs, h.relation) for h in poly.constraints]
    out = []
    for i, (coeffs, rhs, rel) in enumerate(cons):
        if rel != LE:
            continue
        probe = list(cons)
        probe[i] = (coeffs, rhs, LT)
        if _feasible_point(probe, poly.n) is None:
            out.append(i)
    return out


def ref_relative_interior_point(poly):
    implicit = set(ref_implicit_equality_indices(poly))
    probe = [
        (h.normal, h.rhs, EQ if h.relation == EQ or i in implicit else LT)
        for i, h in enumerate(poly.constraints)
    ]
    return _feasible_point(probe, poly.n)


def ref_dimension(poly):
    implicit = set(ref_implicit_equality_indices(poly))
    normals = [
        h.normal for i, h in enumerate(poly.constraints) if h.relation == EQ or i in implicit
    ]
    return poly.n - rank(normals) if normals else poly.n


def ref_make_cell(poly):
    if is_empty(poly):
        return None
    return fraction_cell(poly, ref_dimension(poly), ref_relative_interior_point(poly))


def ref_cell_subset(a, b):
    """Exact inclusion test: a is contained in b."""
    if a.stratum != b.stratum:
        return False
    a, b = cell_polyhedron(a), cell_polyhedron(b)
    base = [(h.normal, h.rhs, h.relation) for h in a.constraints]
    n = a.n
    for h in b.constraints:
        neg = tuple(-x for x in h.normal)
        if _feasible_point(base + [(neg, -h.rhs, LT)], n) is not None:
            return False
        if h.relation == EQ and _feasible_point(base + [(h.normal, h.rhs, LT)], n) is not None:
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


def ref_hypersurface(f):
    cells = [ref_make_cell(tie_cell(f, i, j)) for i, j in itertools.combinations(f.support(), 2)]
    cells = [c for c in cells if c is not None]
    return varieties.PolyComplex(f.n, f.mode, tuple(ref_dedup_maximal(cells)))


def ref_prevariety(gens):
    n, mode = gens[0].n, gens[0].mode
    if any(len(g) < 2 for g in gens):
        return varieties.PolyComplex(n, mode, ())
    per_gen = []
    for g in gens:
        polys = [tie_cell(g, i, j) for i, j in itertools.combinations(g.support(), 2)]
        per_gen.append([p for p in polys if not is_empty(p)])
    cells = []
    for combo in itertools.product(*per_gen):
        poly = Polyhedron(tuple(h for p in combo for h in p.constraints), n)
        cell = ref_make_cell(poly)
        if cell is not None:
            cells.append(cell)
    return varieties.PolyComplex(n, mode, tuple(ref_dedup_maximal(cells)))


# -- random inputs -------------------------------------------------------------


def tied_polynomial(rng, n, mode, max_terms=6):
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


def as_bytes(x):
    return json.dumps(complex_to_json(x), indent=2, sort_keys=True)


def test_complexes_match_lp_reference(monkeypatch):
    rng = random.Random(20250130)
    cases = merged = 0
    for _ in range(40):
        f = tied_polynomial(rng, rng.choice([2, 3]), LAURENT)
        expected = ref_hypersurface(f)
        assert as_bytes(varieties.hypersurface(f)) == as_bytes(expected)
        pairs = itertools.combinations(f.support(), 2)
        candidates = sum(not is_empty(tie_cell(f, i, j)) for i, j in pairs)
        merged += len(expected.cells) < candidates
        cases += 1
    for _ in range(25):
        # the reference's pairwise probes grow fast with n, so n = 3 keeps 2 x 4 terms
        n = rng.choice([2, 3])
        count, max_terms = (rng.choice([2, 2, 3]), 6) if n == 2 else (2, 4)
        gens = [tied_polynomial(rng, n, LAURENT, max_terms) for _ in range(count)]
        assert as_bytes(varieties.prevariety(gens)) == as_bytes(ref_prevariety(gens))
        cases += 1
    affine = []
    for _ in range(10):
        n = rng.choice([2, 3])
        gens = [tied_polynomial(rng, n, POLY, 4) for _ in range(rng.choice([1, 2]))]
        affine.append((gens, as_bytes(varieties.affine_prevariety(gens))))
    monkeypatch.setattr(varieties, "prevariety", ref_prevariety)
    for gens, new in affine:
        assert new == as_bytes(varieties.affine_prevariety(gens))
        cases += 1
    assert cases == 75
    assert merged >= 10  # dedup dropped or merged cells in many of the hypersurfaces


def test_tied_generators_give_non_generic_cells():
    # three lines through the origin: the cells meet in a point where all terms tie
    f = Polynomial({(1, 0): 0, (0, 1): 0, (0, 0): 0, (1, 1): -5}, 2)
    assert as_bytes(varieties.hypersurface(f)) == as_bytes(ref_hypersurface(f))
    g = Polynomial({(1, 0): 0, (0, 1): 0}, 2)
    h = Polynomial({(1, 0): 0, (0, 0): 0}, 2)
    x = varieties.prevariety([g, h, g])
    assert as_bytes(x) == as_bytes(ref_prevariety([g, h, g]))
    assert [c.dim for c in x.cells] == [0]


# -- implicit equalities -------------------------------------------------------


def random_polyhedron(rng):
    n = rng.randint(1, 3)
    rows = []
    for _ in range(rng.randint(0, 6)):
        normal = tuple(Fraction(rng.randint(-2, 2)) for _ in range(n))
        rhs = Fraction(rng.randint(-2, 2))
        kind = rng.random()
        if kind < 0.15:
            rows.append(HalfSpace(normal, rhs, EQ))
        elif kind < 0.45:
            # a pair of opposite inequalities: an implicit equality (or emptiness)
            rows.append(HalfSpace(normal, rhs, LE))
            rows.append(HalfSpace(tuple(-a for a in normal), -rhs - rng.choice([0, 0, 1]), LE))
        else:
            rows.append(HalfSpace(normal, rhs, LE))
    rng.shuffle(rows)
    return Polyhedron(tuple(rows), n)


def test_implicit_equalities_match_probe_every_constraint():
    rng = random.Random(7)
    empty = implicit = 0
    for _ in range(400):
        p = random_polyhedron(rng)
        expected = ref_implicit_equality_indices(p)
        rows = int_rows(p)
        point = _int_feasible_point(rows, p.n)
        if point is None:  # empty: every LE row probes infeasible
            assert expected == [i for i, h in enumerate(p.constraints) if h.relation == LE]
            empty += 1
        else:
            assert _int_implicit_equalities(rows, p.n, point) == expected
            implicit += bool(expected)
    assert empty >= 20 and implicit >= 20


@pytest.mark.parametrize(
    "rows, expected",
    [
        ([((1,), 0, LE), ((-1,), 1, LE)], []),  # 0 >= x >= -1: nothing implicit
        ([((1,), 0, LE), ((-1,), 0, LE), ((1,), 5, LE)], [0, 1]),  # x = 0
        ([((1,), -1, LE), ((-1,), 0, LE), ((0,), 0, EQ)], [0, 1]),  # empty: every LE
    ],
)
def test_implicit_equalities_small(rows, expected):
    p = Polyhedron(tuple(HalfSpace((Fraction(a[0]),), Fraction(b), r) for a, b, r in rows), 1)
    assert implicit_equality_indices(p) == expected == ref_implicit_equality_indices(p)
