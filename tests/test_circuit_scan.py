"""The pivot-row subset test of `truncated_tropicalization` against the full-rank scan.

The scan used to rank the whole basis restricted to the columns outside each
subset S.  It now ranks only the live rows (pivot column in S) on the free
columns outside S, and skips subsets without a pivot column.  The old scan is
kept below, verbatim apart from names, as the oracle: on seeded ideals
(n = 1-3, 1-3 generators, windows of at most 15 monomials) and on coloops,
the unit ideal, monomial, zero and duplicate generators and fractional
coefficients, both must give the same circuits in the same order and the
same `trivial` flag, and no subset may reach a rank call without a live row.
"""

import itertools
import random
from fractions import Fraction

import pytest

from tropica import tropical_linear
from tropica.matrices import int_rank, rank, row_echelon, to_fraction
from tropica.polynomials import POLY, Polynomial
from tropica.tropical_linear import (
    CircuitSet,
    _shift,
    monomial_window,
    truncated_tropicalization,
    window_size,
)


def _full_rank_scan(rational_gens: list[dict], n: int, degree: int) -> CircuitSet:
    window = monomial_window(n, POLY, degree)
    gen_maps = []
    for g in rational_gens:
        coeffs = {tuple(e): to_fraction(c) for e, c in g.items()}
        clean = {e: c for e, c in coeffs.items() if c != 0}
        if not clean:
            continue
        gdeg = max(sum(e) for e in clean)
        gen_maps.append((clean, gdeg))
    if not gen_maps:
        return CircuitSet(window, ())
    columns = {expo: i for i, expo in enumerate(window.monomials)}
    rows = []
    for clean, gdeg in gen_maps:
        for shift in window.monomials:
            if sum(shift) > degree - gdeg:
                continue
            row = [Fraction(0)] * len(window)
            for expo, coeff in clean.items():
                row[columns[_shift(expo, shift)]] = coeff
            rows.append(row)
    basis = [row for row in row_echelon(rows) if any(v != 0 for v in row)]
    r = len(basis)
    if r == 0:
        return CircuitSet(window, ())
    circuits: list[frozenset] = []
    max_size = len(window) - r + 1
    indices = range(len(window))
    for size in range(1, max_size + 1):
        for combo in itertools.combinations(indices, size):
            combo_set = set(combo)
            if any(c <= combo_set for c in circuits):
                continue
            outside = [i for i in indices if i not in combo_set]
            submatrix = [[row[i] for i in outside] for row in basis]
            if rank(submatrix) < r:
                circuits.append(frozenset(combo))
    vectors = tuple(
        Polynomial({window.monomials[i]: 0 for i in c}, n, POLY)
        for c in sorted(circuits, key=lambda c: sorted(c))
    )
    trivial = frozenset([columns[(0,) * n]]) in circuits
    return CircuitSet(window, vectors, trivial)


@pytest.fixture(autouse=True)
def live_rows(monkeypatch):
    """The number of rows of every rank call the scan makes."""
    calls = []

    def counted(rows):
        calls.append(len(rows))
        return int_rank(rows)

    monkeypatch.setattr(tropical_linear, "int_rank", counted)
    yield calls
    assert 0 not in calls  # a subset without a pivot column is skipped, not ranked


def _assert_same(gens, n, degree):
    got = truncated_tropicalization(gens, n, degree)
    want = _full_rank_scan(gens, n, degree)
    assert got.circuits == want.circuits, (gens, n, degree)
    assert got.trivial == want.trivial, (gens, n, degree)
    return got


X, Y = (1, 0, 0), (0, 1, 0)

SPECIAL = [
    ([{(1, 0): 1, (0, 1): -1}], 2, 3),  # x - y
    ([{X: 1}], 3, 2),  # monomial ideal: every multiple of x is a coloop
    ([{(1, 0): 1}, {(0, 1): 1}], 2, 2),  # (x, y)
    ([{(0, 0, 0): 5}], 3, 1),  # the unit ideal
    ([{(0, 0): Fraction(1, 2)}, {(1, 0): 1, (0, 0): -1}], 2, 2),  # unit plus another generator
    ([{(1, 0): 0, (0, 1): 0}, {}], 2, 2),  # zero generators only
    ([{(1, 0): 1, (0, 1): -1}, {(1, 0): 1, (0, 1): -1}], 2, 2),  # a duplicate generator
    ([{(1, 0): 2, (0, 1): -2}, {(1, 0): Fraction(-1, 3), (0, 1): Fraction(1, 3)}], 2, 2),
    ([{X: Fraction(3, 2), Y: Fraction(-5, 7), (0, 0, 0): Fraction(1, 4)}], 3, 2),
    ([{(2, 0, 0): 1, (0, 1, 1): -1}, {X: 1}], 3, 2),  # x^2 - y*z and the coloop x
    ([{(1, 0): 1, (0, 0): -1}, {(0, 1): 1, (0, 0): -1}], 2, 4),  # the point (1, 1): 15 monomials
    ([{(3,): 1, (0,): -2}], 1, 14),
    ([{(1, 0, 0): 1, (0, 1, 0): -1, (0, 0, 1): 2}, {(0, 1, 0): 0}], 3, 2),
]


@pytest.mark.parametrize("gens, n, degree", SPECIAL)
def test_pivot_rows_match_full_rank_scan_on_special_ideals(gens, n, degree):
    _assert_same(gens, n, degree)


def test_special_ideals_cover_the_named_cases():
    assert _assert_same([{(0, 0, 0): 5}], 3, 1).trivial
    monomial = _assert_same([{X: 1}], 3, 2)
    assert not monomial.trivial
    assert {(1, 0, 0)} in [set(c.support()) for c in monomial.circuits]
    assert _assert_same([{(1, 0): 0}, {}], 2, 2).circuits == ()


def _random_coefficient(rng):
    return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2, 3]))


def _random_ideal(rng):
    n = rng.randint(1, 3)
    degree = rng.choice([d for d in range(1, 15) if window_size(n, POLY, d, 15) <= 15])
    window = monomial_window(n, POLY, degree).monomials
    gens = []
    for _ in range(rng.randint(1, 3)):
        kind = rng.random()
        if kind < 0.1:
            gens.append({rng.choice(window): 0})  # the zero generator
        elif kind < 0.2 and gens:
            gens.append(dict(gens[-1]))  # a duplicate
        else:
            terms = rng.sample(window, k=min(len(window), rng.randint(1, 4)))
            gens.append({e: _random_coefficient(rng) for e in terms})
    return gens, n, degree


def test_pivot_rows_match_full_rank_scan_on_seeded_ideals():
    rng = random.Random(20261018)
    seen_coloop = seen_trivial = seen_multi = 0
    for _ in range(80):
        gens, n, degree = _random_ideal(rng)
        result = _assert_same(gens, n, degree)
        seen_coloop += any(len(c.support()) == 1 for c in result.circuits)
        seen_trivial += result.trivial
        seen_multi += len(result.circuits) > 1
    # the seeded inputs reach every kind of answer
    assert seen_coloop and seen_trivial and seen_multi
