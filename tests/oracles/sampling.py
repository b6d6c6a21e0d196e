"""Oracles of `tropica.sampling`: the draw loops by their definitions, on the same random stream.

`ref_prime_members` and `ref_random_admissible` draw with the same
`random.Random` calls as the library, so a test compares samples,
polynomials and the generator's state afterwards.
`ref_random_member_polynomial` and `ref_point_members` are the one
geometric draw loop, which the tests build their geometric samples from:
`tropica` draws no member of a geometric prime, since by lemma (a) the
elimination axiom holds for every member.  It is a `Fraction` loop that
builds a polynomial for every draw, repeats and rejects included, and
`test_point_members_pinned` pins its stream.  `ref_prime_members` draws up
to three monomials with coefficients in -2..2 and keeps a draw whose top
key U (c, u), over the prime's integer rows, is attained twice; then it
tries its partner, one low term moved to a random monomial, kept when its
top key is attained twice too.  It reads no `primes` query.
`ref_random_admissible` is the former `random_admissible` loop, which
checked the rank itself before `check_admissible` checked it again.  The
draw primitives `_fraction` and `_exponents` are written out here, so no
oracle calls `tropica.sampling`.
"""

import functools
from fractions import Fraction
from operator import mul

import pytest

from tropica.matrices import to_fraction
from tropica.polynomials import LAURENT, POLY, Polynomial
from tropica.primes import (
    AdmissibilityError,
    check_admissible,
    geometric_prime_of_point,
    variety_of_prime,
)
from tropica.sampling import prime_members, window_admits_member
from tropica.tropical_linear import MembershipSample

from oracles.matrices import dot, rank


def _fraction(rng, lo=-4, hi=4, max_den=3):
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def _exponents(rng, n, mode, max_deg):
    low = 0 if mode == POLY else -max_deg
    return tuple(rng.randint(low, max_deg) for _ in range(n))


def ref_random_member_polynomial(rng, point, mode=LAURENT, max_extra=3, max_deg=2):
    if max_deg < 1:
        raise ValueError("member polynomials need max_deg >= 1 (two distinct exponents)")
    point = [to_fraction(p) for p in point]
    n = len(point)
    target = _fraction(rng)
    support = set()
    while len(support) < 2:
        support.add(_exponents(rng, n, mode, max_deg))
    coeffs = {}
    for expo in support:
        coeffs[expo] = target - dot(expo, point)
    for _ in range(rng.randint(0, max_extra)):
        expo = _exponents(rng, n, mode, max_deg)
        if expo in coeffs:
            continue
        drop = Fraction(rng.randint(1, 4), rng.randint(1, 3))
        coeffs[expo] = target - dot(expo, point) - drop
    return Polynomial(coeffs, n, mode)


def ref_point_members(rng, point, window, count):
    prime = geometric_prime_of_point(point)
    point = variety_of_prime(prime)
    members = {}
    attempts = 0
    while len(members) < count and attempts < count * 200:
        attempts += 1
        poly = ref_random_member_polynomial(rng, point, window.mode, max_deg=window.degree)
        if poly.degree() <= window.degree:
            members[poly] = None
    return MembershipSample(tuple(members), prime)


def ref_prime_members(rng, matrix, window, count):
    if window.n != matrix.n:
        raise ValueError(f"the window has {window.n} variables, the prime {matrix.n}")
    if len(window) < 2:
        raise ValueError(f"the window holds {len(window)} monomial; a member needs two terms")
    weights = [row[0] for row in matrix.cleared_rows]
    lifted = {
        expo: [sum(map(mul, row[1:], expo)) for row in matrix.cleared_rows]
        for expo in window.monomials
    }

    @functools.cache
    def key(coeff: int, expo) -> tuple[int, ...]:
        return tuple(coeff * w + x for w, x in zip(weights, lifted[expo]))

    def is_member(coeffs) -> bool:
        keys = [key(c, e) for e, c in coeffs.items()]
        return keys.count(max(keys)) >= 2

    members: dict[Polynomial, None] = {}
    attempts = 0
    while len(members) < count and attempts < count * 200:
        attempts += 1
        drawn = rng.sample(window.monomials, k=min(3, len(window)))
        coeffs = {expo: rng.randint(-2, 2) for expo in drawn}
        if not is_member(coeffs):
            continue
        poly = Polynomial(coeffs, window.n, window.mode)
        members[poly] = None
        top = max(key(c, e) for e, c in coeffs.items())
        low = [e for e in poly.support() if key(coeffs[e], e) != top]
        if low:
            moved = rng.choice(low)
            target = rng.choice(window.monomials)
            if target not in coeffs:
                partner = {e: c for e, c in coeffs.items() if e != moved}
                partner[target] = coeffs[moved]
                if is_member(partner):
                    members[Polynomial(partner, window.n, window.mode)] = None
    return MembershipSample(tuple(members), matrix)


def ref_random_admissible(rng, n, nrows, first_entry="any"):
    while True:
        rows = [[_fraction(rng) for _ in range(n + 1)] for _ in range(nrows)]
        if first_entry == "zero":
            rows[0][0] = Fraction(0)
        elif first_entry == "positive":
            rows[0][0] = Fraction(abs(rng.randint(1, 4)), rng.randint(1, 3))
        if rank(rows) != nrows:
            continue
        col0 = [r[0] for r in rows]
        pivot = next((i for i, x in enumerate(col0) if x != 0), None)
        if pivot is not None and col0[pivot] < 0:
            rows[pivot] = [-x for x in rows[pivot]]
        return check_admissible(rows, n)


def tied_prime(rng, n, rank):
    """An admissible matrix of 0/1 entries: many terms share a key."""
    while True:
        rows = [[rng.randint(0, 1) for _ in range(n + 1)] for _ in range(rank)]
        try:
            return check_admissible(rows, n)
        except AdmissibilityError:
            continue


def assert_no_member_error(rng, matrix, window, count, drawn):
    """Where the oracle drew no member, ``prime_members`` raises instead.

    A window where no two monomials tie at a coefficient gap in -4..4 (the
    gaps of draws in -2..2) fails before any draw, so ``rng`` is left as it
    was; otherwise the error comes after the oracle's draws, which left
    the generator at ``drawn``.  Returns whether such a tie exists.
    """
    before = rng.getstate()
    admits = window_admits_member(matrix, window)
    message = "no member in" if admits else "no member can be drawn"
    with pytest.raises(ValueError, match=message):
        prime_members(rng, matrix, window, count)
    assert rng.getstate() == (drawn if admits else before)
    return admits
