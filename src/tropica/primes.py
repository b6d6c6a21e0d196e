"""Prime congruences presented by admissible rational matrices.

A prime congruence of the (Laurent) polynomial semiring is a total,
cancellative ordering of terms.  It is presented by a rational matrix with
n+1 columns: column 0 weights the coefficient and columns 1..n weight the
exponents; term t1 beats term t2 when the first non-zero entry of
U @ ((c1, u1) - (c2, u2)) is positive.  A matrix presents a prime of the
polynomial and of the Laurent semiring alike (Joó and Mincheva, cited
below), so it carries no mode: every query reads only its rows.  Rows are
stored exactly as given: adding earlier rows to later ones preserves the
order, but upward row operations change the prime, so no automatic
reduction is applied.

Queries run on integers.  Multiplying a row by a positive number leaves the
sign of each entry of U @ (t1 - t2) unchanged, hence the order too (Joó and
Mincheva, Prime congruences of additively idempotent semirings and a
Nullstellensatz for tropical polynomials, Selecta Math. 2018).  So each
matrix caches its rows cleared of denominators (``cleared_rows``), and the
terms of one query are scaled by their common denominator D > 0, which
again keeps every sign.  A term's key is then the integer tuple
U_int @ (D c, D u), and terms compare as their keys compare
lexicographically.  Polynomial exponents are integers, so for a polynomial
D is the lcm of its coefficient denominators alone.

A polynomial query asks only for the top class, which ``_polynomial_top``
finds by lexicographic refinement: row 0 is computed for every term and
only the terms attaining its maximum are kept, then row 1 for those
survivors, and so on.  Lemma: under a lexicographic order a term that is
below the maximum on row k is below the top whatever its later entries,
and the survivors of rows 0..k-1 agree on those rows.  So the survivors
after the last row are exactly the terms whose key equals max(keys), and
the row maxima are that key.  Only the terms still tied get a row's entry
computed.  ``compare_terms`` has two terms, so it compares their full keys
(``_keys``).

For a polynomial the entry of row k = (c0, rest) is read off each term
(c, u) as c0 (D c) + D (rest . u), with no scaled vector built per term.
Lemma: on a row with c0 = 0 the entry is D (rest . u), and D > 0 is the
same for every term of one polynomial, so comparing rest . u ranks the
terms as the entries do; only the row maximum is multiplied by D, and the
key stays U_int @ (D c, D u).  The coefficients are scaled by D only once a
row with c0 != 0 is reached.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from operator import mul

from .matrices import clear_denominators, int_rank, to_fraction, to_int
from .polynomials import Exponents, Polynomial
from .scalars import is_bottom

Term = tuple[Fraction, Exponents]

GEOMETRIC = "geometric"
MINIMAL = "minimal"
OTHER = "other"

LESS, EQUAL, GREATER = "less", "equal", "greater"


class AdmissibilityError(ValueError):
    """Raised when a matrix fails admissibility conditions.

    ``violations`` lists each failed condition; the message joins them
    with "; ".
    """

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@dataclass(frozen=True)
class AdmissibleMatrix:
    """Validated defining matrix of a prime congruence.

    ``cleared_rows`` holds each row times the lcm of its denominators: the same
    order, on integer entries.  ``check_admissible`` fills it with the rows
    it cleared for its rank test, so it is computed once, not on first use.
    """

    rows: tuple[tuple[Fraction, ...], ...]
    n: int
    cleared_rows: tuple[tuple[int, ...], ...] = field(kw_only=True, repr=False, compare=False)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def to_json(self) -> list[list[str]]:
        return [[str(x) for x in row] for row in self.rows]


def matrix_from_json(data) -> AdmissibleMatrix:
    """Matrix JSON, as ``to_json`` writes it: a non-empty array of non-empty rows.

    The first row fixes n + 1 columns, and ``check_admissible`` reads each entry once.
    """
    if not isinstance(data, list) or not data or not all(isinstance(r, list) and r for r in data):
        raise ValueError("matrix JSON must be a non-empty array of non-empty arrays")
    return check_admissible(data, len(data[0]) - 1)


def check_admissible(rows, n: int) -> AdmissibleMatrix:
    """Validate and freeze a defining matrix; raises AdmissibilityError with every violation.

    Each entry is read once (a ``Fraction`` is taken as is) and each row is
    cleared of denominators once; the integer rows serve the rank and sign
    tests and become its ``cleared_rows``.  Clearing multiplies a row by a
    positive lcm, so the first non-zero column-0 entry keeps its sign.  More
    than n+1 rows of n+1 entries have rank at most n+1, fewer than the rows,
    so they are linearly dependent without a rank computation.
    """
    n = to_int(n, "variable count")
    frozen = tuple([tuple([x if type(x) is Fraction else to_fraction(x) for x in row]) for row in rows])
    if not frozen:
        raise AdmissibilityError(["matrix must have at least one row"])
    if any(len(r) != n + 1 for r in frozen):
        columns = f"{n + 1} entries (coefficient column plus {n} exponent columns)"
        raise AdmissibilityError([f"every row must have {columns}"])
    cleared = tuple(map(clear_denominators, frozen))
    problems = []
    if len(frozen) > n + 1:
        problems += [f"at most {n + 1} rows allowed, got {len(frozen)}", "rows are linearly dependent"]
    elif int_rank(cleared) != len(frozen):
        problems.append("rows are linearly dependent")
    if next((r[0] for r in cleared if r[0]), 0) < 0:
        problems.append("first non-zero entry of column 0 must be positive")
    if problems:
        raise AdmissibilityError(problems)
    return AdmissibleMatrix(frozen, n, cleared_rows=cleared)


def admissibility_violations(rows, n: int) -> list[str]:
    """The violations ``check_admissible`` raises, or [] for an admissible matrix."""
    try:
        check_admissible(rows, n)
    except AdmissibilityError as exc:
        return exc.violations
    return []


def _term_vector(term: Term, n: int) -> tuple[Fraction, tuple[Fraction, ...]]:
    coeff, expo = term
    if is_bottom(coeff):
        raise ValueError("terms must have a non-bottom coefficient")
    if len(expo) != n:
        raise ValueError(f"exponent vector has length {len(expo)}, expected {n}")
    coeff = coeff if type(coeff) is Fraction else to_fraction(coeff)
    return coeff, tuple([e if type(e) is Fraction else to_fraction(e) for e in expo])


def _scaled(vectors) -> tuple[list[tuple[int, ...]], int]:
    """(c, u) vectors times their common denominator D, as integer tuples (D c, D u), and D."""
    den = 1
    for coeff, expo in vectors:
        den = lcm(den, coeff.denominator, *(e.denominator for e in expo))
    scaled = [
        tuple(x.numerator * (den // x.denominator) for x in (coeff, *expo)) for coeff, expo in vectors
    ]
    return scaled, den


def _keys(matrix: AdmissibleMatrix, vectors) -> tuple[list[tuple[int, ...]], int]:
    """Full integer keys U_int @ (D c, D u) of (c, u) vectors, and their common denominator D."""
    scaled, den = _scaled(vectors)
    rows = matrix.cleared_rows
    return [tuple(sum(map(mul, row, v)) for row in rows) for v in scaled], den


def _polynomial_top(matrix: AdmissibleMatrix, f: Polynomial) -> tuple[list[int], tuple[int, ...], int]:
    """The top class of a non-zero f as indices into ``f.terms()``, its key, and D.

    The lexicographic refinement of the module docstring, with each row's
    entries read off the terms.
    """
    if f.n != matrix.n:
        raise ValueError(f"polynomial has {f.n} variables, expected {matrix.n}")
    terms = f.terms()
    den = lcm(*[coeff.denominator for _, coeff in terms])
    coeffs = None
    tied = range(len(terms))
    key = []
    for row in matrix.cleared_rows:
        c0, rest = row[0], row[1:]
        if c0:
            if coeffs is None:
                coeffs = [coeff.numerator * (den // coeff.denominator) for _, coeff in terms]
            values = [c0 * coeffs[i] + den * sum(map(mul, rest, terms[i][0])) for i in tied]
        else:
            values = [sum(map(mul, rest, terms[i][0])) for i in tied]
        top = max(values)
        key.append(top if c0 else den * top)
        tied = [i for i, value in zip(tied, values) if value == top]
    return tied, tuple(key), den


def compare_terms(matrix: AdmissibleMatrix, t1: Term, t2: Term) -> str:
    """Sign of the first non-zero entry of U @ (t1 - t2): the order of the two full keys."""
    (key1, key2), _ = _keys(matrix, [_term_vector(t1, matrix.n), _term_vector(t2, matrix.n)])
    if key1 == key2:
        return EQUAL
    return GREATER if key1 > key2 else LESS


def leading_class(matrix: AdmissibleMatrix, f: Polynomial) -> tuple[Exponents, ...]:
    """Support elements of f that are maximal (mutually equal) under the order."""
    if f.is_zero():
        raise ValueError("the zero polynomial has no leading class")
    tied, _, _ = _polynomial_top(matrix, f)
    terms = f.terms()
    return tuple(terms[i][0] for i in tied)


def pair_in_prime(matrix: AdmissibleMatrix, f: Polynomial, g: Polynomial) -> bool:
    """True when f and g have the same image in the quotient by the prime.

    Both reduce to their leading terms, so the pair lies in the congruence
    exactly when the leading terms compare equal.  The zero polynomial is
    congruent only to itself.  The keys of f are scaled by D_f and those of
    g by D_g, so the leading keys are compared at the common scale D_f D_g.
    """
    f._require_compatible(g)
    if f.is_zero() or g.is_zero():
        return f.is_zero() and g.is_zero()
    _, top_f, den_f = _polynomial_top(matrix, f)
    _, top_g, den_g = _polynomial_top(matrix, g)
    return [x * den_g for x in top_f] == [x * den_f for x in top_g]


def bend_ideal_member(matrix: AdmissibleMatrix, f: Polynomial) -> bool:
    """Membership of f in the ideal of polynomials whose bends lie in the prime.

    Equivalent to every bend pair of f being in the congruence: the leading
    class must contain at least two terms.  The zero polynomial belongs to
    every such ideal; monomials to none (their only bend pair would force the
    congruence to be improper).
    """
    if f.is_zero():
        return True
    if f.is_monomial():
        return False
    tied, _, _ = _polynomial_top(matrix, f)
    return len(tied) >= 2


def classify_prime(matrix: AdmissibleMatrix) -> tuple[str, int]:
    """(geometric | minimal | other, rank).

    Geometric primes are the rank-1 matrices with non-zero (1,1) entry (the
    quotient is the tropical semifield itself).  Full-rank matrices present
    minimal primes: no pair of distinct terms is identified, so no smaller
    prime exists.
    """
    r = matrix.rank
    if r == 1 and matrix.rows[0][0] != 0:
        return GEOMETRIC, r
    if r == matrix.n + 1:
        return MINIMAL, r
    return OTHER, r


def variety_of_prime(matrix: AdmissibleMatrix) -> tuple[Fraction, ...] | None:
    """The at-most-one point of R^n on which the whole congruence holds.

    Empty exactly when the (1,1) entry is zero (no geometric prime lies over
    the congruence); otherwise row 1 scaled to leading entry 1 reads off the
    point coordinates.
    """
    first = matrix.rows[0]
    if first[0] == 0:
        return None
    return tuple(x / first[0] for x in first[1:])


def geometric_prime_of_point(point) -> AdmissibleMatrix:
    """Single-row matrix (1, p) of the prime that evaluates terms at p."""
    row = [1, *point]
    return check_admissible([row], len(row) - 1)
