"""`truncated_tropicalization` (hyperplane walk) against three former implementations.

`truncated_tropicalization` finds each circuit as the complement of a
hyperplane of the basis's column matroid, with one integer null-space solve
per (r - 1)-subset of column representatives that no recorded flat holds.
Its basis is the integer echelon basis of `matrices.int_echelon`.  Three
former implementations are kept below as oracles, each on the `Fraction`
reduced row echelon basis (`ref_row_echelon`, the former
`matrices.row_echelon`):

- `_full_rank_scan` ranks the whole basis restricted to the columns outside
  each subset S (verbatim apart from names);
- `_pivot_row_scan` is the subset scan that the hyperplane walk replaced,
  moved here verbatim apart from its name: it ranks only the live rows
  (pivot column in S) on the free columns outside S;
- `_fraction_basis_walk` is the hyperplane walk itself on that basis, the
  former `truncated_tropicalization`.

All three build their circuits as monomial sets, as `CircuitSet` holds
them, and read no `trivial` flag: it is a property of the circuits.

On seeded ideals (n = 1-3, 1-3 generators, windows of at most 15 monomials)
and on coloops, the unit ideal, several generators, the n = 0 constant,
monomial, zero and duplicate generators and fractional coefficients, all
four must give the same circuits in the same order and the same `trivial`
flag; 600 more seeded ideals, most with non-integer coefficients, are
checked against `_fraction_basis_walk` alone.  The autouse `solves`
fixture records the nullity of every null-space solve of the walk: each is
at least 1 (|T| = r - 1 < r), and the solves of nullity 1 are exactly one
per circuit.  `int_nullspace` itself is checked
against the former `Fraction` `nullspace` (`ref_nullspace`) on seeded
integer matrices.
"""

import itertools
import random
from fractions import Fraction

import pytest

from tropica import tropical_linear
from tropica.matrices import clear_denominators, int_nullspace, int_rank, to_fraction
from tropica.polynomials import POLY
from tropica.tropical_linear import (
    MAX_WINDOW_MONOMIALS,
    CircuitSet,
    _parallel_representatives,
    _require_window_size,
    _shift,
    check_tropical_axiom,
    monomial_window,
    truncated_tropicalization,
    window_size,
)

from test_integer_kernel import rank, ref_nullspace, ref_row_echelon


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
    basis = [row for row in ref_row_echelon(rows) if any(v != 0 for v in row)]
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
    supports = sorted(circuits, key=lambda c: sorted(c))
    return CircuitSet(window, tuple(frozenset(window.monomials[i] for i in c) for c in supports))


def _pivot_row_scan(rational_gens: list[dict], n: int, degree: int) -> CircuitSet:
    """Circuits of the degree-truncated tropicalization of a rational ideal.

    ``rational_gens`` are classical polynomials over Q given as maps from
    exponent tuples to non-zero rational coefficients.  The degree-<= d slice
    of the ideal is the row space of the multiplication matrix (each
    generator shifted by every monomial that keeps it inside the window);
    under the trivial valuation its vectors are Boolean, so the circuits are
    exactly the support-minimal non-zero row-space vectors.

    Subsets S of the window are scanned by size, skipping supersets of
    circuits found.  Let b_1..b_r be the reduced row echelon basis with
    pivot columns p_1..p_r.  Every row-space vector is v = sum_k v[p_k] b_k,
    because b_k is 1 at p_k and 0 at the other pivots.  If v vanishes
    outside S, then v[p_k] = 0 for each pivot outside S, so v combines only
    the live rows (pivot in S), and it vanishes on the pivots outside S.
    Hence a non-zero v supported in S exists iff the live rows, restricted
    to the free columns outside S, are dependent: rank < number of live
    rows.  A subset without a pivot has no live row and holds no circuit.
    """
    _require_window_size(n, POLY, degree, MAX_WINDOW_MONOMIALS, "for circuit enumeration")
    window = monomial_window(n, POLY, degree)
    gen_maps = []
    for g in rational_gens:
        coeffs = {tuple(e): to_fraction(c) for e, c in g.items()}
        clean = {e: c for e, c in coeffs.items() if c != 0}
        if not clean:
            continue
        if any(len(e) != n or min(e) < 0 for e in clean):
            raise ValueError("generators must be polynomials in n non-negative exponents")
        gdeg = max(sum(e) for e in clean)
        if gdeg > degree:
            raise ValueError(f"generator degree {gdeg} exceeds the window degree {degree}")
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
    basis = [row for row in ref_row_echelon(rows) if any(v != 0 for v in row)]
    r = len(basis)
    if r == 0:
        return CircuitSet(window, ())
    circuits: list[frozenset[int]] = []
    max_size = len(window) - r + 1
    indices = range(len(window))
    pivots = [next(j for j, v in enumerate(row) if v != 0) for row in basis]
    free = [j for j in indices if j not in pivots]
    int_basis = [clear_denominators(row) for row in basis]
    for size in range(1, max_size + 1):
        for combo in itertools.combinations(indices, size):
            combo_set = set(combo)
            if any(c <= combo_set for c in circuits):
                continue
            live = [row for row, p in zip(int_basis, pivots) if p in combo_set]
            if not live:
                continue
            outside = [j for j in free if j not in combo_set]
            if int_rank([[row[j] for j in outside] for row in live]) < len(live):
                circuits.append(frozenset(combo))
    supports = sorted(circuits, key=lambda c: sorted(c))
    return CircuitSet(window, tuple(frozenset(window.monomials[i] for i in c) for c in supports))


def _fraction_basis_walk(rational_gens: list[dict], n: int, degree: int) -> CircuitSet:
    """The hyperplane walk on the reduced row echelon basis of `Fraction` rows.

    The former `truncated_tropicalization`, verbatim apart from its name,
    this docstring and its circuits, built as monomial sets: the basis came
    from the `Fraction` elimination and was then cleared of denominators row
    by row, and the pivots were re-scanned.
    """
    _require_window_size(n, POLY, degree, MAX_WINDOW_MONOMIALS, "for circuit enumeration")
    window = monomial_window(n, POLY, degree)
    gen_maps = []
    for g in rational_gens:
        coeffs = {tuple(e): to_fraction(c) for e, c in g.items()}
        clean = {e: c for e, c in coeffs.items() if c != 0}
        if not clean:
            continue
        if any(len(e) != n or any(a < 0 for a in e) for e in clean):
            raise ValueError("generators must be polynomials in n non-negative exponents")
        gdeg = max(sum(e) for e in clean)
        if gdeg > degree:
            raise ValueError(f"generator degree {gdeg} exceeds the window degree {degree}")
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
    basis = [clear_denominators(row) for row in ref_row_echelon(rows) if any(v != 0 for v in row)]
    if not basis:
        return CircuitSet(window, ())
    m = len(window)
    pivots = [next(j for j, v in enumerate(row) if v) for row in basis]
    # each recorded flat is kept as the bitmask of the columns outside it
    outsides: list[int] = []
    circuits: list[int] = []
    for subset in itertools.combinations(_parallel_representatives(basis, m), len(basis) - 1):
        mask = sum(1 << j for j in subset)
        if not all(mask & recorded for recorded in outsides):
            continue  # T lies in a recorded flat
        live = [row for row, p in zip(basis, pivots) if not mask >> p & 1]
        restricted = [[row[j] for row in live] for j in subset if j not in pivots]
        null = int_nullspace(restricted, len(live))
        outside = 0
        for ys in null:
            vector = [0] * m
            for y, row in zip(ys, live):
                if y:
                    vector = [a + y * b for a, b in zip(vector, row)]
            outside |= sum(1 << j for j, value in enumerate(vector) if value)
        outsides.append(outside)
        if len(null) == 1:
            circuits.append(outside)
    supports = sorted([j for j in range(m) if c >> j & 1] for c in circuits)
    return CircuitSet(window, tuple(frozenset(window.monomials[j] for j in c) for c in supports))


@pytest.fixture(autouse=True)
def solves(monkeypatch):
    """The nullity of every null-space solve the hyperplane walk makes."""
    nullities = []

    def counted(rows, ncols):
        basis = int_nullspace(rows, ncols)
        nullities.append(len(basis))
        return basis

    monkeypatch.setattr(tropical_linear, "int_nullspace", counted)
    yield nullities
    assert 0 not in nullities  # an (r - 1)-subset never spans the whole row space


def _assert_same(gens, n, degree, solves):
    solves.clear()
    got = truncated_tropicalization(gens, n, degree)
    assert solves.count(1) == len(got.circuits), (gens, n, degree)  # one solve per hyperplane
    for oracle in (_full_rank_scan, _pivot_row_scan, _fraction_basis_walk):
        want = oracle(gens, n, degree)
        assert got.circuits == want.circuits, (oracle.__name__, gens, n, degree)
        assert got.trivial == want.trivial, (oracle.__name__, gens, n, degree)
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
    ([{X: 1}, {Y: 1}], 3, 2),  # two monomial generators: coloops only
    ([{(1, 0): 1, (0, 1): -1}, {(2, 0): 1}], 2, 3),  # x - y and x^2: coloops beside {x, y}
    ([{(1, 1): 1, (0, 0): -1}, {(0, 2): 3}], 2, 3),  # x*y - 1 and the coloop y^2
    # three generators: the point (1, 2, -1)
    ([{X: 1, (0, 0, 0): -1}, {Y: 1, (0, 0, 0): -2}, {(0, 0, 1): 1, (0, 0, 0): 1}], 3, 2),
    ([{(1, 0): 1, (0, 1): -1}, {(1, 0): 1, (0, 1): 1}, {(2, 0): 1, (1, 1): 2}], 2, 3),
    ([{(0, 0): 1}], 2, 4),  # the unit ideal on a 15-monomial window
    ([{(1, 0): 1, (0, 0): -1}, {(1, 0): 1, (0, 0): -2}], 2, 3),  # x - 1 and x - 2 give 1
]


@pytest.mark.parametrize("gens, n, degree", SPECIAL)
def test_hyperplanes_match_both_scans_on_special_ideals(gens, n, degree, solves):
    _assert_same(gens, n, degree, solves)


def test_special_ideals_cover_the_named_cases(solves):
    assert _assert_same([{(0, 0, 0): 5}], 3, 1, solves).trivial
    assert _assert_same([{(1, 0): 1, (0, 0): -1}, {(1, 0): 1, (0, 0): -2}], 2, 3, solves).trivial
    unit = _assert_same([{(0, 0): 1}], 2, 4, solves)
    assert [len(c) for c in unit.circuits] == [1] * 15  # every monomial a coloop
    monomial = _assert_same([{X: 1}], 3, 2, solves)
    assert not monomial.trivial
    assert frozenset({(1, 0, 0)}) in monomial.circuits
    mixed = _assert_same([{(1, 0): 1, (0, 1): -1}, {(2, 0): 1}], 2, 3, solves)
    sizes = sorted(len(c) for c in mixed.circuits)
    assert sizes[0] == 1 and sizes[-1] == 2  # coloops beside the circuit {x, y}
    assert _assert_same([{(1, 0): 0}, {}], 2, 2, solves).circuits == ()


@pytest.mark.parametrize("coeff, degree", [(3, 2), (Fraction(1, 2), 0), (-1, 5)])
def test_constant_in_no_variables_is_the_unit_ideal(coeff, degree, solves):
    """With n = 0 the window is the constant monomial alone.

    `_pivot_row_scan` cannot take this input (its exponent check calls
    `min` on the empty exponent tuple), so only `_full_rank_scan` is the
    oracle here.
    """
    got = truncated_tropicalization([{(): coeff}], 0, degree)
    assert got.circuits == _full_rank_scan([{(): coeff}], 0, degree).circuits
    assert got.circuits == (frozenset({()}),) and got.trivial
    assert solves == [1]
    assert truncated_tropicalization([{(): 0}], 0, degree).circuits == ()


def _random_coefficient(rng):
    return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2, 3]))


def _non_integer_coefficient(rng):
    return Fraction(rng.choice([-7, -3, -2, -1, 1, 2, 5, 9]), rng.choice([1, 2, 3, 4, 6, 7, 12]))


def _random_ideal(rng, coefficient=_random_coefficient):
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
            gens.append({e: coefficient(rng) for e in terms})
    return gens, n, degree


def test_hyperplanes_match_both_scans_on_seeded_ideals(solves):
    rng = random.Random(20261018)
    seen_coloop = seen_trivial = seen_multi = 0
    for _ in range(80):
        gens, n, degree = _random_ideal(rng)
        result = _assert_same(gens, n, degree, solves)
        seen_coloop += any(len(c) == 1 for c in result.circuits)
        seen_trivial += result.trivial
        seen_multi += len(result.circuits) > 1
    # the seeded inputs reach every kind of answer
    assert seen_coloop and seen_trivial and seen_multi


def test_integer_basis_matches_fraction_basis_on_seeded_ideals(solves):
    # the integer echelon rows are non-zero multiples of the Fraction ones
    rng = random.Random(20261019)
    fractional = 0
    for _ in range(600):
        gens, n, degree = _random_ideal(rng, _non_integer_coefficient)
        solves.clear()
        got = truncated_tropicalization(gens, n, degree)
        assert solves.count(1) == len(got.circuits), (gens, n, degree)
        want = _fraction_basis_walk(gens, n, degree)
        assert (got.circuits, got.trivial) == (want.circuits, want.trivial), (gens, n, degree)
        fractional += any(Fraction(c).denominator > 1 for g in gens for c in g.values())
    assert fractional >= 500


def _random_int_matrix(rng):
    """Integer rows, rank-deficient about half the time (combined or zero rows)."""
    ncols = rng.randint(1, 7)
    rows = [[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(rng.randint(0, 5))]
    if rows and rng.random() < 0.5:
        a, b = rng.choice(rows), rng.choice(rows)
        s, t = rng.randint(-3, 3), rng.randint(-3, 3)
        rows.insert(rng.randint(0, len(rows)), [s * x + t * y for x, y in zip(a, b)])
    if rng.random() < 0.2:
        rows.append([0] * ncols)
    return rows, ncols


def test_int_nullspace_matches_fraction_nullspace_on_seeded_matrices():
    rng = random.Random(15)
    deficient = 0
    for _ in range(400):
        rows, ncols = _random_int_matrix(rng)
        got = int_nullspace(rows, ncols)
        assert got == [clear_denominators(v) for v in ref_nullspace(rows, ncols)], rows
        r = int_rank(rows)
        assert len(got) == ncols - r
        deficient += r < min(len(rows), ncols)
        for vec in got:
            assert all(sum(a * x for a, x in zip(row, vec)) == 0 for row in rows)
            assert all(isinstance(x, int) for x in vec)
    assert deficient > 50


def test_tideal_trop_circuits_satisfy_the_elimination_axiom():
    # The circuits of a slice are those of a matroid, and under the trivial
    # valuation the axiom on two distinct circuits sharing u is strong circuit
    # elimination (Oxley, Matroid Theory, Prop. 1.4.12): an oracle for
    # check_tropical_axiom that needs no second implementation.
    rng = random.Random(20261019)
    checked = shared = 0
    for _ in range(300):
        gens, n, degree = _random_ideal(rng)
        found = truncated_tropicalization(gens, n, degree)
        if len(found.circuits) > 60:  # the triples grow as pairs x shared monomials
            continue
        result = check_tropical_axiom(found)
        assert result.passed, (gens, n, degree, result.counterexample)
        checked += 1
        shared += sum(1 for f, g in itertools.combinations(found.circuits, 2) if f & g)
    assert (checked, shared) == (294, 4704)
