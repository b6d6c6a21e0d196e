"""Prime congruences presented by admissible rational matrices.

A prime congruence of the (Laurent) polynomial semiring is a total,
cancellative ordering of terms.  It is presented by a rational matrix with
n+1 columns: column 0 weights the coefficient and columns 1..n weight the
exponents; term t1 beats term t2 when the first non-zero entry of
U @ ((c1, u1) - (c2, u2)) is positive.  Rows are stored exactly as given:
adding earlier rows to later ones preserves the order, but upward row
operations change the prime, so no automatic reduction is applied.

Queries run on integers.  Multiplying a row by a positive number leaves the
sign of each entry of U @ (t1 - t2) unchanged, hence the order too (Joó and
Mincheva, Prime congruences of additively idempotent semirings and a
Nullstellensatz for tropical polynomials, Selecta Math. 2018).  So each
matrix caches its rows cleared of denominators (``int_rows``), and the terms
of one query are scaled by their common denominator D > 0, which again
keeps every sign.  A term's key is then the integer tuple U_int @ (D c, D u),
and terms compare as their keys compare lexicographically.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import mul

from .matrices import clear_denominators, rank, to_fraction
from .polynomials import Exponents, LAURENT, Polynomial, _check_mode
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
    """Validated defining matrix of a prime congruence."""

    rows: tuple[tuple[Fraction, ...], ...]
    n: int
    mode: str = LAURENT

    @property
    def rank(self) -> int:
        return len(self.rows)

    @cached_property
    def int_rows(self) -> tuple[tuple[int, ...], ...]:
        """Each row times the lcm of its denominators: same order, integer entries."""
        return tuple(map(clear_denominators, self.rows))

    def to_json(self) -> list[list[str]]:
        return [[str(x) for x in row] for row in self.rows]


def admissibility_violations(rows, n: int) -> list[str]:
    """Report every violated admissibility condition (empty list = valid)."""
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


def check_admissible(rows, n: int, mode: str = LAURENT) -> AdmissibleMatrix:
    """Validate and freeze a defining matrix; raises AdmissibilityError."""
    _check_mode(mode)
    frozen = tuple(tuple(to_fraction(x) for x in row) for row in rows)
    if any(len(r) != n + 1 for r in frozen) or not frozen:
        raise AdmissibilityError([f"matrix must be non-empty with {n + 1} columns"])
    problems = admissibility_violations(frozen, n)
    if problems:
        raise AdmissibilityError(problems)
    return AdmissibleMatrix(frozen, n, mode)


def _term_vector(term: Term, n: int) -> tuple[Fraction, tuple[Fraction, ...]]:
    coeff, expo = term
    if is_bottom(coeff):
        raise ValueError("terms must have a non-bottom coefficient")
    if len(expo) != n:
        raise ValueError(f"exponent vector has length {len(expo)}, expected {n}")
    return to_fraction(coeff), tuple(to_fraction(e) for e in expo)


def _keys(matrix: AdmissibleMatrix, vectors) -> tuple[list[tuple[int, ...]], int]:
    """Integer keys U_int @ (D c, D u) of (c, u) vectors, and their common denominator D."""
    den = 1
    for coeff, expo in vectors:
        den = lcm(den, coeff.denominator, *(e.denominator for e in expo))
    rows = matrix.int_rows
    keys = []
    for coeff, expo in vectors:
        scaled = [coeff.numerator * (den // coeff.denominator)]
        scaled.extend(e.numerator * (den // e.denominator) for e in expo)
        keys.append(tuple(sum(map(mul, row, scaled)) for row in rows))
    return keys, den


def _polynomial_keys(matrix: AdmissibleMatrix, f: Polynomial):
    if f.n != matrix.n:
        raise ValueError(f"polynomial has {f.n} variables, expected {matrix.n}")
    return _keys(matrix, [(coeff, expo) for expo, coeff in f.terms()])


def compare_terms(matrix: AdmissibleMatrix, t1: Term, t2: Term) -> str:
    """Sign of the first non-zero entry of U @ (t1 - t2)."""
    (k1, k2), _ = _keys(matrix, [_term_vector(t1, matrix.n), _term_vector(t2, matrix.n)])
    if k1 > k2:
        return GREATER
    if k1 < k2:
        return LESS
    return EQUAL


def leading_class(matrix: AdmissibleMatrix, f: Polynomial) -> tuple[Exponents, ...]:
    """Support elements of f that are maximal (mutually equal) under the order."""
    if f.is_zero():
        raise ValueError("the zero polynomial has no leading class")
    keys, _ = _polynomial_keys(matrix, f)
    top = max(keys)
    return tuple(expo for (expo, _), key in zip(f.terms(), keys) if key == top)


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
    keys_f, den_f = _polynomial_keys(matrix, f)
    keys_g, den_g = _polynomial_keys(matrix, g)
    return [x * den_g for x in max(keys_f)] == [x * den_f for x in max(keys_g)]


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
    keys, _ = _polynomial_keys(matrix, f)
    return keys.count(max(keys)) >= 2


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


def geometric_prime_of_point(point, mode: str = LAURENT) -> AdmissibleMatrix:
    """Single-row matrix (1, p) of the prime that evaluates terms at p."""
    p = [to_fraction(x) for x in point]
    return check_admissible([[Fraction(1)] + p], len(p), mode)
