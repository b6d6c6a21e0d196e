"""`truncated_tropicalization` (hyperplane walk) against the circuits by definition.

`truncated_tropicalization` finds each circuit as the complement of a
hyperplane of the basis's column matroid, with one integer null-space solve
per (r - 1)-subset of column representatives that no recorded flat holds.
Its basis is the integer echelon basis of `matrices.int_echelon`.  The
oracles of `oracles.tropical_linear` work on the `Fraction` reduced row
echelon basis (`ref_row_echelon`, the former `matrices.row_echelon`):

- `ref_full_rank_scan` reads the circuits off their definition, the
  support-minimal non-zero vectors of the row space: it ranks the whole
  basis restricted to the columns outside each subset S;
- `ref_fraction_basis_walk` is the hyperplane walk itself on that basis,
  the former `truncated_tropicalization`.

Both build their circuits as monomial sets, as `CircuitSet` holds them, and
read no `trivial` flag: it is a property of the circuits.

On seeded ideals (n = 1-3, 1-3 generators, windows of at most 15 monomials)
and on coloops, the unit ideal, several generators, the n = 0 constant,
monomial, zero and duplicate generators and fractional coefficients, all
three must give the same circuits in the same order and the same `trivial`
flag; 600 more seeded ideals, most with non-integer coefficients, are
checked against `ref_fraction_basis_walk` alone.  The autouse `nullities`
fixture records the nullity of every null-space solve of the walk: each is
at least 1 (|T| = r - 1 < r), and the solves of nullity 1 are exactly one
per circuit.  `int_nullspace` itself is checked against the `Fraction`
`ref_nullspace` on seeded integer matrices.
"""

import itertools
import random
from fractions import Fraction

import pytest

from tropica import tropical_linear
from tropica.matrices import clear_denominators, int_nullspace, int_rank
from tropica.tropical_linear import check_tropical_axiom, truncated_tropicalization

from oracles.matrices import ref_nullspace
from oracles.tropical_linear import (
    non_integer_coefficient,
    random_ideal,
    ref_fraction_basis_walk,
    ref_full_rank_scan,
)


@pytest.fixture(autouse=True)
def nullities(monkeypatch):
    """The nullity of every null-space solve the hyperplane walk makes."""
    nullities = []

    def counted(rows, ncols):
        basis = int_nullspace(rows, ncols)
        nullities.append(len(basis))
        return basis

    monkeypatch.setattr(tropical_linear, "int_nullspace", counted)
    yield nullities
    assert 0 not in nullities  # an (r - 1)-subset never spans the whole row space


def _assert_same(gens, n, degree, nullities):
    nullities.clear()
    got = truncated_tropicalization(gens, n, degree)
    assert nullities.count(1) == len(got.circuits), (gens, n, degree)  # one solve per hyperplane
    for oracle in (ref_full_rank_scan, ref_fraction_basis_walk):
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
def test_hyperplanes_match_the_oracles_on_special_ideals(gens, n, degree, nullities):
    _assert_same(gens, n, degree, nullities)


def test_special_ideals_cover_the_named_cases(nullities):
    assert _assert_same([{(0, 0, 0): 5}], 3, 1, nullities).trivial
    assert _assert_same([{(1, 0): 1, (0, 0): -1}, {(1, 0): 1, (0, 0): -2}], 2, 3, nullities).trivial
    unit = _assert_same([{(0, 0): 1}], 2, 4, nullities)
    assert [len(c) for c in unit.circuits] == [1] * 15  # every monomial a coloop
    monomial = _assert_same([{X: 1}], 3, 2, nullities)
    assert not monomial.trivial
    assert frozenset({(1, 0, 0)}) in monomial.circuits
    mixed = _assert_same([{(1, 0): 1, (0, 1): -1}, {(2, 0): 1}], 2, 3, nullities)
    sizes = sorted(len(c) for c in mixed.circuits)
    assert sizes[0] == 1 and sizes[-1] == 2  # coloops beside the circuit {x, y}
    assert _assert_same([{(1, 0): 0}, {}], 2, 2, nullities).circuits == ()


@pytest.mark.parametrize("coeff, degree", [(3, 2), (Fraction(1, 2), 0), (-1, 5)])
def test_constant_in_no_variables_is_the_unit_ideal(coeff, degree, nullities):
    """With n = 0 the window is the constant monomial alone."""
    got = truncated_tropicalization([{(): coeff}], 0, degree)
    assert got.circuits == ref_full_rank_scan([{(): coeff}], 0, degree).circuits
    assert got.circuits == (frozenset({()}),) and got.trivial
    assert nullities == [1]
    assert truncated_tropicalization([{(): 0}], 0, degree).circuits == ()


def test_hyperplanes_match_the_oracles_on_seeded_ideals(nullities):
    rng = random.Random(20261018)
    seen_coloop = seen_trivial = seen_multi = 0
    for _ in range(80):
        gens, n, degree = random_ideal(rng)
        result = _assert_same(gens, n, degree, nullities)
        seen_coloop += any(len(c) == 1 for c in result.circuits)
        seen_trivial += result.trivial
        seen_multi += len(result.circuits) > 1
    # the seeded inputs reach every kind of answer
    assert seen_coloop and seen_trivial and seen_multi


def test_integer_basis_matches_fraction_basis_on_seeded_ideals(nullities):
    # the integer echelon rows are non-zero multiples of the Fraction ones
    rng = random.Random(20261019)
    fractional = 0
    for _ in range(600):
        gens, n, degree = random_ideal(rng, non_integer_coefficient)
        nullities.clear()
        got = truncated_tropicalization(gens, n, degree)
        assert nullities.count(1) == len(got.circuits), (gens, n, degree)
        want = ref_fraction_basis_walk(gens, n, degree)
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
        gens, n, degree = random_ideal(rng)
        found = truncated_tropicalization(gens, n, degree)
        if len(found.circuits) > 60:  # the triples grow as pairs x shared monomials
            continue
        result = check_tropical_axiom(found)
        assert result.passed, (gens, n, degree, result.counterexample)
        checked += 1
        shared += sum(1 for f, g in itertools.combinations(found.circuits, 2) if f & g)
    assert (checked, shared) == (294, 4704)
