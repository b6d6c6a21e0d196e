"""Argmax-signature cells against cells kept maximal by Fourier-Motzkin containment probes.

`varieties` keeps a cell unless its argmax signature strictly contains
another's.  `ref_maximal_by_containment` of `oracles.varieties` asks the
definition instead: a cell goes when probes show it inside another cell
(the former `_cell_subset`/`_dedup_maximal` pair).  On seeded
hypersurfaces, prevarieties and affine prevarieties with many tied terms
both must give the same complex, byte for byte.  The implicit equalities of
a polyhedron are checked against `ref_implicit_equality_indices`, which
makes each LE row strict in turn and solves with the `Fraction`
Fourier-Motzkin oracle: on a non-empty set they are the LE rows tight at
the library's solve point (`polyhedra._tight_rows` over `int_rows`, by the
interior lemma of `polyhedra`), and on the empty set it names every LE row.
"""

import itertools
import random
from fractions import Fraction

import pytest

from tropica import varieties
from tropica.polyhedra import EQ, LE, _int_feasible_point, _tight_rows
from tropica.polynomials import LAURENT, POLY, Polynomial

from oracles.polyhedra import (
    HalfSpace,
    Polyhedron,
    implicit_equality_indices,
    int_rows,
    is_empty,
    ref_implicit_equality_indices,
)
from oracles.varieties import (
    as_bytes,
    fan_polynomial,
    ref_hypersurface,
    ref_maximal_by_containment,
    ref_prevariety,
    tie_cell,
)


def lp_hypersurface(f):
    return ref_hypersurface(f, ref_maximal_by_containment)


def lp_prevariety(gens):
    return ref_prevariety(gens, ref_maximal_by_containment)


def test_complexes_match_lp_reference(monkeypatch):
    rng = random.Random(20250130)
    cases = merged = 0
    for _ in range(40):
        f = fan_polynomial(rng, rng.choice([2, 3]), LAURENT)
        expected = lp_hypersurface(f)
        assert as_bytes(varieties.hypersurface(f)) == as_bytes(expected)
        pairs = itertools.combinations(f.support(), 2)
        candidates = sum(not is_empty(tie_cell(f, i, j)) for i, j in pairs)
        merged += len(expected.cells) < candidates
        cases += 1
    for _ in range(25):
        # the reference's pairwise probes grow fast with n, so n = 3 keeps 2 x 4 terms
        n = rng.choice([2, 3])
        count, max_terms = (rng.choice([2, 2, 3]), 6) if n == 2 else (2, 4)
        gens = [fan_polynomial(rng, n, LAURENT, max_terms) for _ in range(count)]
        assert as_bytes(varieties.prevariety(gens)) == as_bytes(lp_prevariety(gens))
        cases += 1
    affine = []
    for _ in range(10):
        n = rng.choice([2, 3])
        gens = [fan_polynomial(rng, n, POLY, 4) for _ in range(rng.choice([1, 2]))]
        affine.append((gens, as_bytes(varieties.affine_prevariety(gens))))
    monkeypatch.setattr(varieties, "prevariety", lp_prevariety)
    for gens, new in affine:
        assert new == as_bytes(varieties.affine_prevariety(gens))
        cases += 1
    assert cases == 75
    assert merged >= 10  # dedup dropped or merged cells in many of the hypersurfaces


def test_tied_generators_give_non_generic_cells():
    # three lines through the origin: the cells meet in a point where all terms tie
    f = Polynomial({(1, 0): 0, (0, 1): 0, (0, 0): 0, (1, 1): -5}, 2)
    assert as_bytes(varieties.hypersurface(f)) == as_bytes(lp_hypersurface(f))
    g = Polynomial({(1, 0): 0, (0, 1): 0}, 2)
    h = Polynomial({(1, 0): 0, (0, 0): 0}, 2)
    x = varieties.prevariety([g, h, g])
    assert as_bytes(x) == as_bytes(lp_prevariety([g, h, g]))
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
            assert _tight_rows(rows, point) == expected
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
