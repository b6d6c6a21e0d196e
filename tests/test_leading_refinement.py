"""Leading classes by lexicographic refinement, against the `Fraction` matrix products.

The prime queries compare term keys row by row and stop at the first row
that separates the top terms.  The oracles are those of `oracles.primes`,
which multiply the stored `Fraction` rows and compare whole vectors.
`full_keys` reads every term's whole key off `primes._keys`; it measures
the inputs (how deep the top terms tie, which scale D clears them) and is
what `_polynomial_top` must agree with, but it is no oracle of the queries.

The inputs cover n = 1-4, every rank 1..n+1 and denominators up to 12.  A
polynomial tied on the first k rows has its terms shifted from one term
along the integer kernel of those rows, so the refinement reaches every row.
"""

import random
from fractions import Fraction

import pytest

from tropica.matrices import int_nullspace
from tropica.polynomials import Polynomial
from tropica.primes import (
    GREATER,
    LESS,
    EQUAL,
    AdmissibilityError,
    _keys,
    _polynomial_top,
    bend_ideal_member,
    check_admissible,
    compare_terms,
    leading_class,
    pair_in_prime,
)

import oracles.primes
from oracles.primes import (
    SHAPES,
    cases,
    fraction,
    fraction_polynomial,
    random_matrix,
    ref_bend_ideal_member,
    ref_compare_terms,
    ref_leading_class,
    ref_pair_in_prime,
)


def full_keys(matrix, f):
    """The whole key of every term of f, and the scale D, from `primes._keys`."""
    return _keys(matrix, [(coeff, expo) for expo, coeff in f.terms()])


def test_random_matrix_fails_after_its_draw_cap(monkeypatch):
    def reject(rows, n):
        raise AdmissibilityError(["rows are linearly dependent"])

    monkeypatch.setattr(oracles.primes, "check_admissible", reject)
    with pytest.raises(AssertionError, match=r"random_matrix: .* 100 draws \(n=2, 3 rows\)"):
        random_matrix(random.Random(0), 2, 3)


def tie_depth(matrix, f):
    """How many leading rows at least two top terms of f share: the rows refinement reaches - 1."""
    keys, _ = full_keys(matrix, f)
    depth = 0
    while depth < len(matrix.rows):
        prefix = max(key[: depth + 1] for key in keys)
        if sum(key[: depth + 1] == prefix for key in keys) < 2:
            break
        depth += 1
    return depth


def test_cases_mix_rows_with_and_without_coefficient_column():
    # _polynomial_top scales the coefficients on a row with c0 != 0 and only the
    # maximum of a row with c0 = 0: the cases have either kind of row first, the
    # other later, under denominators D > 1
    mixes = {"c0 = 0, then c0 != 0": 0, "c0 != 0, then c0 = 0": 0}
    for matrix, polys in cases(2):
        col0 = [row[0] != 0 for row in matrix.cleared_rows]
        scaled = sum(full_keys(matrix, f)[1] > 1 for f in polys)
        if not col0[0] and any(col0[1:]):
            mixes["c0 = 0, then c0 != 0"] += scaled
        if col0[0] and not all(col0[1:]):
            mixes["c0 != 0, then c0 = 0"] += scaled
    assert min(mixes.values()) >= 50, mixes


def test_top_key_is_the_largest_full_key():
    # the key rows read off the terms are U_int @ (D c, D u), the scale D and the tied terms too
    for matrix, polys in cases(2):
        for f in polys:
            keys, den = full_keys(matrix, f)
            top = max(keys)
            assert _polynomial_top(matrix, f) == ([i for i, key in enumerate(keys) if key == top], top, den)


# -- the four queries -------------------------------------------------------------


def test_refinement_reaches_every_row():
    # a polynomial tied on rows 0..k-1 at its top makes the refinement compute row k
    for n, r in SHAPES:
        depths = {tie_depth(m, f) for m, polys in cases(1, 3) if m.rank == r and m.n == n for f in polys}
        # rank n + 1 ties no two distinct terms on every row
        assert set(range(r + (r <= n))) <= depths, (n, r, depths)


def test_leading_class_and_member_match_fraction_products():
    members = 0
    for matrix, polys in cases(2):
        for f in polys:
            assert leading_class(matrix, f) == ref_leading_class(matrix, f), (matrix, f)
            got = bend_ideal_member(matrix, f)
            assert got == ref_bend_ideal_member(matrix, f), (matrix, f)
            members += got
    assert members >= 100


def test_pair_in_prime_matches_fraction_products():
    rng = random.Random(3)
    congruent = rescaled = 0
    for matrix, polys in cases(4):
        for f in polys:
            # g over other denominators than f: f's leading term, then terms below it
            lead = ref_leading_class(matrix, f)[0]
            top = (f.coefficient(lead), lead)
            g = {lead: top[0]}
            den = rng.choice((5, 7, 11))
            for expo, coeff in fraction_polynomial(rng, matrix.n).terms():
                coeff -= Fraction(rng.randint(1, 9), den)
                if expo not in g and ref_compare_terms(matrix, (coeff, expo), top) != GREATER:
                    g[expo] = coeff
            g = Polynomial(g, matrix.n)
            rescaled += full_keys(matrix, f)[1] != full_keys(matrix, g)[1]
            others = (rng.choice(polys), fraction_polynomial(rng, matrix.n, 7))
            for h in (g, *others, Polynomial.zero(matrix.n)):
                got = pair_in_prime(matrix, f, h)
                assert got == ref_pair_in_prime(matrix, f, h), (matrix, f, h)
                assert pair_in_prime(matrix, h, f) == got
                congruent += got
    assert congruent >= 500 and rescaled >= 300, (congruent, rescaled)


def test_pair_in_prime_across_key_scales():
    # the same leading term with keys at scales 1 and 12: congruent only after cross-scaling
    matrix = check_admissible([[1, Fraction(1, 2), 0], [0, 0, 1]], 2)
    f = Polynomial({(1, 0): Fraction(1), (0, 0): Fraction(-3)}, 2)
    g = Polynomial({(1, 0): Fraction(1), (0, 1): Fraction(-7, 6), (0, 0): Fraction(-1, 12)}, 2)
    assert full_keys(matrix, f)[1] != full_keys(matrix, g)[1]
    assert pair_in_prime(matrix, f, g) and ref_pair_in_prime(matrix, f, g)


def fraction_term(rng, n, fractional):
    if fractional:
        return fraction(rng), tuple(fraction(rng, -3, 3, 4) for _ in range(n))
    return fraction(rng), tuple(rng.randint(-3, 3) for _ in range(n))


def test_compare_terms_matches_fraction_products():
    rng = random.Random(5)
    answers = {LESS: 0, EQUAL: 0, GREATER: 0}
    for matrix, _ in cases(6, 4):
        n = matrix.n
        for _ in range(30):
            t1 = fraction_term(rng, n, rng.random() < 0.5)
            pick = rng.randrange(3)
            if pick == 0:
                t2 = t1
            elif pick == 1:
                # tied on the first k rows, all of them when k = r: a fractional kernel shift
                kernel = int_nullspace(matrix.cleared_rows[: rng.randint(1, matrix.rank)], n + 1)
                vec = rng.choice(kernel) if kernel else [0] * (n + 1)
                a = fraction(rng, -3, 3, 5)
                t2 = (t1[0] + a * vec[0], tuple(e + a * v for e, v in zip(t1[1], vec[1:])))
            else:
                t2 = fraction_term(rng, n, rng.random() < 0.5)
            got = compare_terms(matrix, t1, t2)
            assert got == ref_compare_terms(matrix, t1, t2), (matrix, t1, t2)
            answers[got] += 1
    assert min(answers.values()) >= 200, answers


def test_monomial_queries():
    matrix = check_admissible([[0, 1, 0], [1, 0, 0]], 2)
    f = Polynomial({(0, 0): Fraction(3, 7)}, 2)
    assert leading_class(matrix, f) == ((0, 0),)
    assert not bend_ideal_member(matrix, f)
    assert pair_in_prime(matrix, f, f)
