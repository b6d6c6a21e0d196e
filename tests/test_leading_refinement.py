"""Leading classes by lexicographic refinement, against the full keys they replaced.

The reference functions below are the former full-key forms of the prime
queries: every term gets all r entries of its key from `primes._keys`, the
top class is `[i : keys[i] == max(keys)]`, a member's top key is attained at
least twice (`keys.count(top) >= 2`), and `pair_in_prime` compares the top
keys of f and g at the common scale D_f D_g.  They are kept here only as
oracles.

The inputs cover n = 1-4, every rank 1..n+1 and denominators up to 12.  A
polynomial tied on the first k rows has its terms shifted from one term
along the integer kernel of those rows, so the refinement reaches every row.
"""

import random
from fractions import Fraction

import pytest

from tropica.matrices import int_nullspace
from tropica.polynomials import LAURENT, Polynomial
from tropica.primes import (
    EQUAL,
    GREATER,
    LESS,
    AdmissibilityError,
    _keys,
    _polynomial_top,
    bend_ideal_member,
    check_admissible,
    compare_terms,
    leading_class,
    pair_in_prime,
)

MAX_DEN = 12
SHAPES = [(n, r) for n in range(1, 5) for r in range(1, n + 2)]

# -- reference implementations -------------------------------------------------


def ref_keys(matrix, f):
    return _keys(matrix, [(coeff, expo) for expo, coeff in f.terms()])


def ref_leading_class(matrix, f):
    keys, _ = ref_keys(matrix, f)
    top = max(keys)
    return tuple(expo for (expo, _), key in zip(f.terms(), keys) if key == top)


def ref_bend_ideal_member(matrix, f):
    if f.is_zero():
        return True
    if f.is_monomial():
        return False
    keys, _ = ref_keys(matrix, f)
    return keys.count(max(keys)) >= 2


def ref_pair_in_prime(matrix, f, g):
    if f.is_zero() or g.is_zero():
        return f.is_zero() and g.is_zero()
    keys_f, den_f = ref_keys(matrix, f)
    keys_g, den_g = ref_keys(matrix, g)
    return [x * den_g for x in max(keys_f)] == [x * den_f for x in max(keys_g)]


def ref_compare_terms(matrix, t1, t2):
    (k1, k2), _ = _keys(matrix, [t1, t2])
    return GREATER if k1 > k2 else LESS if k1 < k2 else EQUAL


# -- inputs ---------------------------------------------------------------------


def fraction(rng, lo=-6, hi=6, max_den=MAX_DEN):
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


MAX_DRAWS = 100


def random_matrix(rng, n, r):
    """An admissible matrix of rank r with entries over denominators up to 12.

    Dependent rows are drawn again, at most MAX_DRAWS times (the seeds here
    need at most 2), so that a defect making every draw inadmissible fails
    the test instead of hanging it.
    """
    for _ in range(MAX_DRAWS):
        rows = [[fraction(rng) for _ in range(n + 1)] for _ in range(r)]
        if rng.random() < 0.3:
            rows[0][0] = Fraction(0)
        pivot = next((row for row in rows if row[0] != 0), None)
        if pivot is not None and pivot[0] < 0:
            rows[rows.index(pivot)] = [-x for x in pivot]
        try:
            return check_admissible(rows, n)
        except AdmissibilityError:  # dependent rows: draw again
            continue
    raise AssertionError(
        f"random_matrix: no admissible matrix in {MAX_DRAWS} draws (n={n}, {r} rows)"
    )


def test_random_matrix_fails_after_its_draw_cap(monkeypatch):
    def reject(rows, n):
        raise AdmissibilityError(["rows are linearly dependent"])

    monkeypatch.setitem(globals(), "check_admissible", reject)
    with pytest.raises(AssertionError, match=r"random_matrix: .* 100 draws \(n=2, 3 rows\)"):
        random_matrix(random.Random(0), 2, 3)


def tied_terms(rng, matrix, k, count):
    """Up to ``count`` terms that tie with one base term on rows 0..k-1."""
    n = matrix.n
    base_c, base_e = fraction(rng), tuple(rng.randint(-3, 3) for _ in range(n))
    kernel = int_nullspace(matrix.cleared_rows[:k], n + 1)
    terms = {base_e: base_c}
    for _ in range(3 * count):
        if len(terms) >= count or not kernel:
            break
        shift = [0] * (n + 1)
        for vec in kernel:
            a = rng.randint(-2, 2)
            shift = [s + a * v for s, v in zip(shift, vec)]
        expo = tuple(e + s for e, s in zip(base_e, shift[1:]))
        terms.setdefault(expo, base_c + shift[0])
    return terms


def tied_polynomial(rng, matrix, k):
    """Terms tied on the first k rows, and sometimes random terms beside them."""
    terms = tied_terms(rng, matrix, k, rng.randint(2, 5))
    for _ in range(rng.choice((0, 0, 1, 3))):
        expo = tuple(rng.randint(-3, 3) for _ in range(matrix.n))
        terms.setdefault(expo, fraction(rng))
    return Polynomial(terms, matrix.n)


def random_polynomial(rng, n, max_den=MAX_DEN):
    terms = {}
    for _ in range(rng.randint(1, 6)):
        terms[tuple(rng.randint(-3, 3) for _ in range(n))] = fraction(rng, max_den=max_den)
    return Polynomial(terms, n)


def tie_depth(matrix, f):
    """How many leading rows at least two top terms of f share: the rows refinement reaches - 1."""
    keys, _ = ref_keys(matrix, f)
    depth = 0
    while depth < len(matrix.rows):
        prefix = max(key[: depth + 1] for key in keys)
        if sum(key[: depth + 1] == prefix for key in keys) < 2:
            break
        depth += 1
    return depth


def cases(seed, per_shape=8):
    """(matrix, polynomials) per shape, with polynomials tied on the first k rows for every k."""
    rng = random.Random(seed)
    for n, r in SHAPES:
        for _ in range(per_shape):
            matrix = random_matrix(rng, n, r)
            polys = [tied_polynomial(rng, matrix, k) for k in range(r + 1) for _ in range(2)]
            polys += [random_polynomial(rng, n) for _ in range(4)]
            yield matrix, polys


def test_cases_mix_rows_with_and_without_coefficient_column():
    # _polynomial_top scales the coefficients on a row with c0 != 0 and only the
    # maximum of a row with c0 = 0: the cases have either kind of row first, the
    # other later, under denominators D > 1
    mixes = {"c0 = 0, then c0 != 0": 0, "c0 != 0, then c0 = 0": 0}
    for matrix, polys in cases(2):
        col0 = [row[0] != 0 for row in matrix.cleared_rows]
        scaled = sum(ref_keys(matrix, f)[1] > 1 for f in polys)
        if not col0[0] and any(col0[1:]):
            mixes["c0 = 0, then c0 != 0"] += scaled
        if col0[0] and not all(col0[1:]):
            mixes["c0 != 0, then c0 = 0"] += scaled
    assert min(mixes.values()) >= 50, mixes


def test_top_key_is_the_largest_full_key():
    # the key rows read off the terms are U_int @ (D c, D u), the scale D and the tied terms too
    for matrix, polys in cases(2):
        for f in polys:
            keys, den = ref_keys(matrix, f)
            top = max(keys)
            assert _polynomial_top(matrix, f) == ([i for i, key in enumerate(keys) if key == top], top, den)


# -- the four queries -------------------------------------------------------------


def test_refinement_reaches_every_row():
    # a polynomial tied on rows 0..k-1 at its top makes the refinement compute row k
    for n, r in SHAPES:
        depths = {tie_depth(m, f) for m, polys in cases(1, 3) if m.rank == r and m.n == n for f in polys}
        # rank n + 1 ties no two distinct terms on every row
        assert set(range(r + (r <= n))) <= depths, (n, r, depths)


def test_leading_class_and_member_match_full_keys():
    members = 0
    for matrix, polys in cases(2):
        for f in polys:
            assert leading_class(matrix, f) == ref_leading_class(matrix, f), (matrix, f)
            got = bend_ideal_member(matrix, f)
            assert got == ref_bend_ideal_member(matrix, f), (matrix, f)
            members += got
    assert members >= 100


def test_pair_in_prime_matches_full_keys():
    rng = random.Random(3)
    congruent = rescaled = 0
    for matrix, polys in cases(4):
        for f in polys:
            # g over other denominators than f: f's leading term, then terms below it
            lead = ref_leading_class(matrix, f)[0]
            top = (f.coefficient(lead), lead)
            g = {lead: top[0]}
            den = rng.choice((5, 7, 11))
            for expo, coeff in random_polynomial(rng, matrix.n).terms():
                coeff -= Fraction(rng.randint(1, 9), den)
                if expo not in g and ref_compare_terms(matrix, (coeff, expo), top) != GREATER:
                    g[expo] = coeff
            g = Polynomial(g, matrix.n)
            rescaled += ref_keys(matrix, f)[1] != ref_keys(matrix, g)[1]
            for h in (g, rng.choice(polys), random_polynomial(rng, matrix.n, 7), Polynomial.zero(matrix.n)):
                got = pair_in_prime(matrix, f, h)
                assert got == ref_pair_in_prime(matrix, f, h), (matrix, f, h)
                assert pair_in_prime(matrix, h, f) == got
                congruent += got
    assert congruent >= 500 and rescaled >= 300, (congruent, rescaled)


def test_pair_in_prime_across_denominators():
    # the same leading term with keys at scales 1 and 12: congruent only after cross-scaling
    matrix = check_admissible([[1, Fraction(1, 2), 0], [0, 0, 1]], 2)
    f = Polynomial({(1, 0): Fraction(1), (0, 0): Fraction(-3)}, 2)
    g = Polynomial({(1, 0): Fraction(1), (0, 1): Fraction(-7, 6), (0, 0): Fraction(-1, 12)}, 2)
    assert ref_keys(matrix, f)[1] != ref_keys(matrix, g)[1]
    assert pair_in_prime(matrix, f, g) and ref_pair_in_prime(matrix, f, g)


def random_term(rng, n, fractional):
    if fractional:
        return fraction(rng), tuple(fraction(rng, -3, 3, 4) for _ in range(n))
    return fraction(rng), tuple(rng.randint(-3, 3) for _ in range(n))


def test_compare_terms_matches_full_keys():
    rng = random.Random(5)
    answers = {LESS: 0, EQUAL: 0, GREATER: 0}
    for matrix, _ in cases(6, 4):
        n = matrix.n
        for _ in range(30):
            t1 = random_term(rng, n, rng.random() < 0.5)
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
                t2 = random_term(rng, n, rng.random() < 0.5)
            got = compare_terms(matrix, t1, t2)
            assert got == ref_compare_terms(matrix, t1, t2), (matrix, t1, t2)
            answers[got] += 1
    assert min(answers.values()) >= 200, answers


def test_monomial_queries():
    matrix = check_admissible([[0, 1, 0], [1, 0, 0]], 2, LAURENT)
    f = Polynomial({(0, 0): Fraction(3, 7)}, 2)
    assert leading_class(matrix, f) == ((0, 0),)
    assert not bend_ideal_member(matrix, f)
    assert pair_in_prime(matrix, f, f)
