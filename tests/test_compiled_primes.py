"""Integer-key prime queries against the `Fraction` matrix products of `oracles.primes`.

The oracles multiply the stored `Fraction` rows: `ref_compare_terms` takes
the sign of the first non-zero entry of U (c1 - c2, u1 - u2),
`ref_leading_class` is the pairwise loop over the terms on it, and
`ref_pair_in_prime` and `ref_bend_ideal_member` are built on those two.
`compare_terms` reads integer exponents, so terms with rational ones are
compared scaled by `integral_exponent_terms`, and must be refused as given.
`ref_admissibility_violations` is the former check, which read the rows as
`Fraction`s and ranked them through `oracles.matrices.rank`, and
`ref_random_admissible` (`oracles.sampling`) the former
`sampling.random_admissible` loop, which checked the rank itself before
`check_admissible` checked it again: it shows that the draws did not
change.
"""

import random
from fractions import Fraction

import pytest

from tropica import primes
from tropica.matrices import clear_denominators, to_fraction
from tropica.polynomials import Polynomial
from tropica.primes import (
    EQUAL,
    LESS,
    AdmissibilityError,
    admissibility_violations,
    bend_ideal_member,
    check_admissible,
    compare_terms,
    leading_class,
    pair_in_prime,
)
from tropica.sampling import random_admissible

import oracles.primes
from oracles.primes import (
    integral_exponent_terms,
    kernel_direction,
    matrices,
    member_polynomial,
    mixed_matrix,
    ref_admissibility_violations,
    ref_bend_ideal_member,
    ref_compare_terms,
    ref_leading_class,
    ref_pair_in_prime,
    shifted_polynomial,
    small_fraction,
)
from oracles.sampling import ref_random_admissible


def test_mixed_matrix_fails_after_its_draw_cap(monkeypatch):
    def reject(rows, n):
        raise AdmissibilityError(["rows are linearly dependent"])

    monkeypatch.setattr(oracles.primes, "check_admissible", reject)
    with pytest.raises(AssertionError, match=r"mixed_matrix: .* 100 draws \(n=1, 2 rows\)"):
        mixed_matrix(random.Random(0), 1, 2)


# -- tests -----------------------------------------------------------------------


def test_leading_class_and_membership_match_reference():
    ties = 0
    for rng, matrix in matrices(71, 12):
        for i in range(8):
            f = member_polynomial(rng, matrix) if i % 2 else shifted_polynomial(rng, matrix)
            expected = ref_leading_class(matrix, f)
            assert leading_class(matrix, f) == expected, (matrix, f)
            assert bend_ideal_member(matrix, f) == ref_bend_ideal_member(matrix, f)
            ties += len(expected) >= 2
    assert ties > 300  # tied leading classes, where the order of the result matters


def test_compare_terms_matches_reference():
    equal = 0
    for rng, matrix in matrices(73, 10):
        n = matrix.n
        direction = kernel_direction(matrix)
        for i in range(10):
            coeff = small_fraction(rng, 7)
            t1 = (coeff, tuple(small_fraction(rng, rng.choice((1, 3))) for _ in range(n)))
            if i % 3 == 0:
                t2 = t1
            elif i % 3 == 1 and direction is not None:
                dc, du = direction
                t2 = (t1[0] - dc, tuple(a - b for a, b in zip(t1[1], du)))
            else:
                t2 = (small_fraction(rng, 5), tuple(rng.randint(-3, 3) for _ in range(n)))
            expected = ref_compare_terms(matrix, t1, t2)
            (s1, s2), den = integral_exponent_terms(t1, t2)
            if den > 1:
                with pytest.raises(ValueError, match="an exponent must be an integer"):
                    compare_terms(matrix, t1, t2)
            assert compare_terms(matrix, s1, s2) == expected, (matrix, t1, t2)
            assert compare_terms(matrix, s2, s1) == ref_compare_terms(matrix, t2, t1)
            equal += expected == EQUAL
    assert equal > 200


def test_pair_in_prime_across_denominators_of_lower_terms():
    # g keeps f's leading term and adds lower terms over other denominators,
    # so the two polynomials are cleared by different common denominators
    congruent = 0
    for rng, matrix in matrices(79, 8):
        n = matrix.n
        for i in range(8):
            f = member_polynomial(rng, matrix) if i % 2 else shifted_polynomial(rng, matrix)
            lead = ref_leading_class(matrix, f)[0]
            top = (f.coefficient(lead), lead)
            coeffs = {lead: top[0]}
            den = rng.choice((2, 3, 5, 7, 11))
            for _ in range(rng.randint(0, 3)):
                expo = tuple(rng.randint(-3, 3) for _ in range(n))
                c = Fraction(rng.randint(-20, 20), den)
                if expo not in coeffs and ref_compare_terms(matrix, (c, expo), top) == LESS:
                    coeffs[expo] = c
            if i % 4 == 3:  # lift the leading term by 1/den: not congruent
                coeffs[lead] = top[0] + Fraction(1, den)
            g = Polynomial(coeffs, n)
            expected = ref_pair_in_prime(matrix, f, g)
            assert pair_in_prime(matrix, f, g) == expected, (matrix, f, g)
            assert pair_in_prime(matrix, g, f) == expected
            congruent += expected
    assert congruent > 200


def test_random_admissible_draws_unchanged():
    for seed in range(300):
        n = 1 + seed % 4
        nrows = 1 + seed // 4 % (n + 1)
        first = ("any", "zero", "positive")[seed % 3]
        old, new = random.Random(seed), random.Random(seed)
        assert random_admissible(new, n, nrows, first_entry=first) == ref_random_admissible(
            old, n, nrows, first_entry=first
        )
        assert new.getstate() == old.getstate()


def test_check_admissible_clears_rows_once():
    # row sets with the flaws of the benchmark's falsify queries: the integer rows that
    # ranked the matrix become its cleared_rows, and the violations are those of the former check.
    # "zero" inserts a zero row; "extra" gives n+2 to n+4 rows, the rank never computed,
    # sometimes with a zero row among them and with either sign
    rng = random.Random(83)
    seen = {"dependent": 0, "zero": 0, "sign": 0, "extra": 0, None: 0}
    signs = {"extra": 0, "extra and sign": 0}
    for _ in range(500):
        n = rng.randint(1, 4)
        nrows = rng.randint(1, n + 1)
        rows = [
            [small_fraction(rng, rng.choice((1, 2, 5, 12))) for _ in range(n + 1)]
            for _ in range(nrows)
        ]
        flaw = rng.choice(tuple(seen))
        pivot = next((r for r in rows if r[0] != 0), None)
        if pivot is not None and (pivot[0] < 0) != (flaw == "sign"):
            rows[rows.index(pivot)] = [-x for x in pivot]
        if flaw == "dependent":
            factor = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            rows.append([factor * x for x in rows[0]])
        elif flaw == "zero":
            rows.insert(rng.randint(0, len(rows)), [Fraction(0)] * (n + 1))
        elif flaw == "extra":
            extra = n + 2 + rng.randint(0, 2) - len(rows)
            rows += [[small_fraction(rng, 3) for _ in range(n + 1)] for _ in range(extra)]
            if rng.random() < 0.3:
                rows.insert(rng.randint(0, len(rows)), [0] * (n + 1))
            pivot = next((r for r in rows if r[0] != 0), None)
            if pivot is not None and rng.random() < 0.5:
                rows[rows.index(pivot)] = [-x for x in pivot]
        if rng.random() < 0.3:
            rows = [[str(x) for x in row] for row in rows]
        expected = ref_admissibility_violations(rows, n)
        assert admissibility_violations(rows, n) == expected
        try:
            matrix = check_admissible(rows, n)
        except AdmissibilityError as exc:
            assert exc.violations == expected, rows
        else:
            assert expected == []
            frozen_rows = tuple(tuple(map(to_fraction, row)) for row in rows)
            assert matrix.rows == frozen_rows
            assert matrix.cleared_rows == tuple(map(clear_denominators, frozen_rows))
        seen[flaw] += bool(expected) == (flaw is not None)
        if flaw == "extra":
            signs["extra and sign" if len(expected) == 3 else "extra"] += 1
    assert min(seen.values()) >= 40, seen
    assert min(signs.values()) >= 20, signs


def test_rank_is_not_computed_beyond_n_plus_1_rows(monkeypatch):
    # more than n+1 rows are linearly dependent: both violations, in order, with no rank computed
    ranks = []
    int_rank = primes.int_rank
    monkeypatch.setattr(primes, "int_rank", lambda rows: ranks.append(rows) or int_rank(rows))
    cases = [
        ([[1, 0], [0, 1], [1, 1]], []),
        ([[0, 1], ["-1/2", 0], [0, 0], [3, 4]], ["first non-zero entry of column 0 must be positive"]),
    ]
    for rows, sign in cases:
        with pytest.raises(AdmissibilityError) as caught:
            check_admissible(rows, 1)
        extra = [f"at most 2 rows allowed, got {len(rows)}", "rows are linearly dependent"]
        assert caught.value.violations == extra + sign == ref_admissibility_violations(rows, 1)
    assert ranks == []
    check_admissible([[1, 0], [0, 1]], 1)  # n+1 rows: ranked
    assert ranks == [((1, 0), (0, 1))]
