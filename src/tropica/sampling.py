"""Seeded random generators for polynomials, points and admissible matrices.

Used by the property suites, the CLI axiom checker and the experiment
scripts.  Everything draws from a caller-supplied random.Random so runs are
reproducible.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .polynomials import LAURENT, POLY, Polynomial
from .primes import (
    GEOMETRIC,
    AdmissibilityError,
    AdmissibleMatrix,
    bend_ideal_member,
    check_admissible,
    classify_prime,
    leading_class,
    variety_of_prime,
)
from .tropical_linear import MembershipSample, MonomialWindow


def random_fraction(rng: random.Random, lo: int = -4, hi: int = 4, max_den: int = 3) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def random_point(rng: random.Random, n: int, lo: int = -4, hi: int = 4, max_den: int = 3):
    return tuple(random_fraction(rng, lo, hi, max_den) for _ in range(n))


def random_exponents(rng: random.Random, n: int, mode: str, max_deg: int = 3):
    if mode == POLY:
        return tuple(rng.randint(0, max_deg) for _ in range(n))
    return tuple(rng.randint(-max_deg, max_deg) for _ in range(n))


def random_polynomial(
    rng: random.Random,
    n: int,
    mode: str = LAURENT,
    max_terms: int = 4,
    max_deg: int = 3,
    min_terms: int = 1,
) -> Polynomial:
    terms = rng.randint(min_terms, max_terms)
    coeffs = {}
    for _ in range(terms):
        coeffs[random_exponents(rng, n, mode, max_deg)] = random_fraction(rng)
    return Polynomial(coeffs, n, mode)


def random_nonzero_polynomial(rng, n, mode=LAURENT, max_terms=4, max_deg=3) -> Polynomial:
    while True:
        f = random_polynomial(rng, n, mode, max_terms, max_deg)
        if not f.is_zero():
            return f


def random_admissible(
    rng: random.Random,
    n: int,
    nrows: int,
    mode: str = LAURENT,
    first_entry: str = "any",
) -> AdmissibleMatrix:
    """Random admissible matrix with exactly ``nrows`` independent rows.

    ``first_entry`` controls the (1,1) entry: "any", "zero" (never a
    geometric prime above), or "positive" (row 1 evaluates at a point).
    """
    if not 1 <= nrows <= n + 1:
        raise ValueError("row count out of range")
    while True:
        rows = [[random_fraction(rng) for _ in range(n + 1)] for _ in range(nrows)]
        if first_entry == "zero":
            rows[0][0] = Fraction(0)
        elif first_entry == "positive":
            rows[0][0] = Fraction(abs(rng.randint(1, 4)), rng.randint(1, 3))
        col0 = [r[0] for r in rows]
        pivot = next((i for i, x in enumerate(col0) if x != 0), None)
        if pivot is not None and col0[pivot] < 0:
            rows[pivot] = [-x for x in rows[pivot]]
        try:
            return check_admissible(rows, n, mode)
        except AdmissibilityError:  # dependent rows: draw again
            continue


def random_member_polynomial(
    rng: random.Random,
    point,
    mode: str = LAURENT,
    max_extra: int = 3,
    max_deg: int = 2,
) -> Polynomial:
    """Random polynomial whose maximum at ``point`` is attained at least twice.

    Two support elements are pinned to a common value; any further terms are
    pushed strictly below it.
    """
    if max_deg < 1:
        raise ValueError("member polynomials need max_deg >= 1 (two distinct exponents)")
    n = len(point)
    target = random_fraction(rng)
    support: set[tuple[int, ...]] = set()
    while len(support) < 2:
        support.add(random_exponents(rng, n, mode, max_deg))
    coeffs = {}
    for expo in support:
        shift = sum(Fraction(e) * Fraction(p) for e, p in zip(expo, point))
        coeffs[expo] = target - shift
    for _ in range(rng.randint(0, max_extra)):
        expo = random_exponents(rng, n, mode, max_deg)
        if expo in coeffs:
            continue
        shift = sum(Fraction(e) * Fraction(p) for e, p in zip(expo, point))
        drop = Fraction(rng.randint(1, 4), rng.randint(1, 3))
        coeffs[expo] = target - shift - drop
    return Polynomial(coeffs, n, mode)


def point_members(rng: random.Random, point, window: MonomialWindow, count: int) -> MembershipSample:
    """``count`` distinct members of the geometric prime at ``point``, inside ``window``.

    Members come from ``random_member_polynomial`` with the window's mode and
    degree; the oracle is "vanishes at the point".  Stops at ``count`` members
    or ``count * 200`` draws, since a small window may hold fewer members.
    """
    point = tuple(point)
    members: dict[Polynomial, None] = {}  # insertion-ordered set
    attempts = 0
    while len(members) < count and attempts < count * 200:
        attempts += 1
        poly = random_member_polynomial(rng, point, window.mode, max_deg=window.degree)
        if poly.degree() <= window.degree:
            members[poly] = None
    oracle = lambda h: h.is_zero() or h.vanishes_at(point)
    return MembershipSample(tuple(members), oracle, point)


def prime_members(
    rng: random.Random, matrix: AdmissibleMatrix, window: MonomialWindow, count: int
) -> MembershipSample:
    """Distinct members of the bend ideal of ``matrix`` inside ``window``.

    Each drawn member comes with a partner that keeps its leading terms and
    moves one low term, the shape on which the elimination axiom can fail.
    Stops at ``count`` members (a partner may add one more) or ``count * 200``
    draws.  A geometric prime also carries its point for the witness search.
    """
    members: dict[Polynomial, None] = {}
    attempts = 0
    while len(members) < count and attempts < count * 200:
        attempts += 1
        drawn = rng.sample(window.monomials, k=min(3, len(window)))
        coeffs = {expo: Fraction(rng.randint(-2, 2)) for expo in drawn}
        poly = Polynomial(coeffs, window.n, window.mode)
        if not bend_ideal_member(matrix, poly):
            continue
        members[poly] = None
        leaders = leading_class(matrix, poly)
        low = [e for e in poly.support() if e not in leaders]
        if low:
            moved = rng.choice(low)
            target = rng.choice(window.monomials)
            if target not in poly.support():
                term = Polynomial({target: poly.coefficient(moved)}, window.n, window.mode)
                partner = poly.delete_term(moved) + term
                if bend_ideal_member(matrix, partner):
                    members[partner] = None
    oracle = lambda h: bend_ideal_member(matrix, h)
    point = variety_of_prime(matrix) if classify_prime(matrix)[0] == GEOMETRIC else None
    return MembershipSample(tuple(members), oracle, point)
