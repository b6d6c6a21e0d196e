"""Oracles of `tropica.primes`: `Fraction` matrix products, and the seeded primes and polynomials.

The prime U of a matrix orders terms c*x^u by the vectors U (c, u), compared
lexicographically.  `ref_compare_terms` multiplies the difference of two
terms by the stored `Fraction` rows, one row at a time, and reads the sign
of the first non-zero entry; `ref_leading_class` is the pairwise loop over the terms on it, and
`ref_pair_in_prime` and `ref_bend_ideal_member` are built on those two.
None of them reads `primes._keys`.  `ref_admissibility_violations` is the
former admissibility check, which read the rows as `Fraction`s and ranked
them through `oracles.matrices.rank`.

The builders draw admissible matrices of every shape (n = 1-4, every rank
1..n+1) over denominators up to 12, each with a cap on its draws so that a
defect making every draw inadmissible fails a test instead of hanging it,
and polynomials whose top terms tie on some or all rows.
"""

import random
from fractions import Fraction
from math import lcm

from tropica.matrices import dot, int_nullspace, nullspace, to_fraction
from tropica.polynomials import Polynomial
from tropica.primes import EQUAL, GREATER, LESS, AdmissibilityError, check_admissible
from tropica.sampling import random_admissible

from oracles.matrices import rank
from oracles.sampling import ref_random_member_polynomial

# -- oracles -----------------------------------------------------------------------


def ref_compare_terms(matrix, t1, t2):
    delta = [Fraction(a) - Fraction(b) for a, b in zip((t1[0], *t1[1]), (t2[0], *t2[1]))]
    for row in matrix.rows:
        value = dot(row, delta)
        if value:
            return GREATER if value > 0 else LESS
    return EQUAL


def ref_leading_class(matrix, f):
    best = []
    for expo, coeff in f.terms():
        if not best:
            best = [(expo, coeff)]
            continue
        cmp = ref_compare_terms(matrix, (coeff, expo), (best[0][1], best[0][0]))
        if cmp == GREATER:
            best = [(expo, coeff)]
        elif cmp == EQUAL:
            best.append((expo, coeff))
    return tuple(expo for expo, _ in best)


def ref_pair_in_prime(matrix, f, g):
    if f.is_zero() or g.is_zero():
        return f.is_zero() and g.is_zero()
    lf = ref_leading_class(matrix, f)[0]
    lg = ref_leading_class(matrix, g)[0]
    return ref_compare_terms(matrix, (f.coefficient(lf), lf), (g.coefficient(lg), lg)) == EQUAL


def ref_bend_ideal_member(matrix, f):
    if f.is_zero():
        return True
    if f.is_monomial():
        return False
    return len(ref_leading_class(matrix, f)) >= 2


def ref_admissibility_violations(rows, n):
    problems = []
    rows = [[to_fraction(x) for x in r] for r in rows]
    if not rows:
        return ["matrix must have at least one row"]
    if any(len(r) != n + 1 for r in rows):
        return [f"every row must have {n + 1} entries (coefficient column plus {n} exponent columns)"]
    if len(rows) > n + 1:
        problems.append(f"at most {n + 1} rows allowed, got {len(rows)}")
    if rank(rows) != len(rows):
        problems.append("rows are linearly dependent")
    col0 = [r[0] for r in rows]
    first_nonzero = next((x for x in col0 if x != 0), None)
    if first_nonzero is not None and first_nonzero < 0:
        problems.append("first non-zero entry of column 0 must be positive")
    return problems


# -- seeded primes -----------------------------------------------------------------

MAX_DEN = 12
SHAPES = [(n, r) for n in range(1, 5) for r in range(1, n + 2)]
MAX_DRAWS = 100


def fraction(rng, lo=-6, hi=6, max_den=MAX_DEN):
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def small_fraction(rng, max_den):
    return fraction(rng, -4, 4, max_den)


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


def mixed_matrix(rng, n, nrows):
    """Admissible matrix whose entries have denominators up to 12.

    Inadmissible draws are drawn again, at most MAX_DRAWS times (the seeds
    here need 1), so that a defect making every draw inadmissible fails the
    test instead of hanging it.
    """
    for _ in range(MAX_DRAWS):
        rows = [
            [small_fraction(rng, rng.choice((1, 2, 5, 12))) for _ in range(n + 1)]
            for _ in range(nrows)
        ]
        pivot = next((r for r in rows if r[0] != 0), None)
        if pivot is not None and pivot[0] < 0:
            rows[rows.index(pivot)] = [-x for x in pivot]
        try:
            return check_admissible(rows, n)
        except AdmissibilityError:
            continue
    raise AssertionError(
        f"mixed_matrix: no admissible matrix in {MAX_DRAWS} draws (n={n}, {nrows} rows)"
    )


def matrices(seed, per_shape):
    """(rng, matrix) per shape, alternating `random_admissible` and `mixed_matrix`."""
    rng = random.Random(seed)
    for n, r in SHAPES:
        for i in range(per_shape):
            yield rng, (mixed_matrix(rng, n, r) if i % 2 else random_admissible(rng, n, r))


# -- seeded polynomials ------------------------------------------------------------


def kernel_direction(matrix):
    """(dc, du) with U @ (dc, du) = 0 and du a non-zero integer vector, or None."""
    for vec in nullspace(matrix.rows, matrix.n + 1):
        if any(vec[1:]):
            scale = lcm(*(x.denominator for x in vec[1:]))
            return vec[0] * scale, tuple(int(x * scale) for x in vec[1:])
    return None


def shifted_polynomial(rng, matrix):
    """Random terms, each followed by copies shifted along the kernel direction."""
    n = matrix.n
    direction = kernel_direction(matrix)
    coeffs = {}
    for _ in range(rng.randint(1, 4)):
        expo = tuple(rng.randint(-3, 3) for _ in range(n))
        c = small_fraction(rng, rng.choice((1, 3, 4, 7)))
        coeffs[expo] = c
        if direction is not None:
            dc, du = direction
            for k in range(1, rng.randint(1, 3) + 1):
                coeffs[tuple(e - k * d for e, d in zip(expo, du))] = c - k * dc
    return Polynomial(coeffs, n)


def member_polynomial(rng, matrix):
    point = tuple(small_fraction(rng, 5) for _ in range(matrix.n))
    return ref_random_member_polynomial(rng, point, max_deg=3)


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


def fraction_polynomial(rng, n, max_den=MAX_DEN):
    terms = {}
    for _ in range(rng.randint(1, 6)):
        terms[tuple(rng.randint(-3, 3) for _ in range(n))] = fraction(rng, max_den=max_den)
    return Polynomial(terms, n)


def cases(seed, per_shape=8):
    """(matrix, polynomials) per shape, with polynomials tied on the first k rows for every k."""
    rng = random.Random(seed)
    for n, r in SHAPES:
        for _ in range(per_shape):
            matrix = random_matrix(rng, n, r)
            polys = [tied_polynomial(rng, matrix, k) for k in range(r + 1) for _ in range(2)]
            polys += [fraction_polynomial(rng, n) for _ in range(4)]
            yield matrix, polys
