"""Seeded random generators for polynomials, points and admissible matrices.

Used by the property suites, the CLI axiom checker and the experiment
scripts.  Everything draws from a caller-supplied random.Random so runs are
reproducible.

The member sampler ``prime_members`` draws on integers: a draw is
accepted or rejected on integer data, before any ``Polynomial`` is built.
The CLI axiom checker samples only non-geometric primes; on a geometric
prime the axiom holds for every member (lemma (a), in ``cli``), so it
draws none.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction
from operator import mul

from .polynomials import LAURENT, POLY, Polynomial
from .primes import AdmissibilityError, AdmissibleMatrix, check_admissible
from .tropical_linear import MembershipSample, MonomialWindow

DRAWN_GAPS = range(-4, 5)  # c1 - c2 for two coefficients drawn in -2..2


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
            return check_admissible(rows, n)
        except AdmissibilityError:  # dependent rows: draw again
            continue


def require_member_degree(max_deg: int) -> None:
    """A member has two distinct exponents, so its degree bound must be at least 1."""
    if max_deg < 1:
        raise ValueError("member polynomials need max_deg >= 1 (two distinct exponents)")


def require_member_window(window: MonomialWindow) -> None:
    """A member has two terms, so its window must hold two monomials."""
    if len(window) < 2:
        raise ValueError(f"the window holds {len(window)} monomial; a member needs two terms")


def window_admits_member(matrix: AdmissibleMatrix, window: MonomialWindow) -> bool:
    """Whether two distinct window monomials tie under ``matrix`` at a gap draws can hit.

    ``prime_members`` draws coefficients in -2..2, so two drawn terms can
    tie only at an integer coefficient gap c1 - c2 in -4..4, and a draw is a
    member only when two of its terms tie.  Two monomials tie at the gap
    c1 - c2 iff U_int @ (c1 - c2, e1 - e2) = 0, that is, v = U_int[:, 1:] @
    (e1 - e2) = -(c1 - c2) w for the column w = U_int[:, 0].  With w_p its
    first non-zero entry, v is a multiple of w iff w_p v - v_p w = 0, a
    linear map of v, and then the gap is -v_p / w_p; with w = 0, iff v = 0,
    at every gap.  So one pass over the window groups the monomials by the
    image of that map, and decides whether one group holds two monomials
    whose levels v_p differ by k w_p for an integer k in -4..4.
    """
    weights = [row[0] for row in matrix.cleared_rows]
    pivot = next((i for i, w in enumerate(weights) if w), None)
    step = 0 if pivot is None else weights[pivot]
    seen: dict[tuple[int, ...], set[int]] = {}
    for expo in window.monomials:
        lifted = [sum(map(mul, row[1:], expo)) for row in matrix.cleared_rows]
        level = 0
        if pivot is not None:
            level = lifted[pivot]
            lifted = [step * x - level * w for x, w in zip(lifted, weights)]
        levels = seen.setdefault(tuple(lifted), set())
        if any(level - k * step in levels for k in DRAWN_GAPS):
            return True
        levels.add(level)
    return False


def prime_members(
    rng: random.Random, matrix: AdmissibleMatrix, window: MonomialWindow, count: int
) -> MembershipSample:
    """Distinct members of the bend ideal of ``matrix`` inside ``window``.

    Draws stop at ``count`` members (a partner may add one more) or after
    ``count * 200`` draws.  A draw that is a member brings its partner,
    which keeps the leading terms and moves one low term, the shape on
    which the elimination axiom can fail.  A window where no two monomials
    tie at a gap that draws can hit (``window_admits_member``) is an error
    before any draw, and draws that end with no member are one after them.

    Draws are tested on integer keys: coefficients and exponents are
    integers, so a term's key is ``U_int @ (c, e)`` with no denominator, and
    the exponent part is computed once per window monomial.  A draw is a
    member when its top key is attained twice; a partner keeps the top class
    (the moved term is below it), so it is a member when its new term's key
    is at most the top.  Repeats are found on the integer coefficient maps,
    and a partner is a map edit.  A draw has at most three terms and a
    member at least two at its top, so at most one term is below the top,
    and the partner's RNG choice of it reads no order.  One ``Polynomial``
    is built per member returned.
    """
    if window.n != matrix.n:
        raise ValueError(f"the window has {window.n} variables, the prime {matrix.n}")
    require_member_window(window)
    if not window_admits_member(matrix, window):
        raise ValueError(
            "no member can be drawn: no two window monomials tie under the prime "
            "at a coefficient gap in -4..4"
        )
    weights = [row[0] for row in matrix.cleared_rows]
    lifted = {
        expo: [sum(map(mul, row[1:], expo)) for row in matrix.cleared_rows]
        for expo in window.monomials
    }

    @functools.cache
    def key(coeff: int, expo) -> tuple[int, ...]:
        return tuple(coeff * w + x for w, x in zip(weights, lifted[expo]))

    members: dict[frozenset, dict] = {}
    for _ in range(count * 200):
        drawn = rng.sample(window.monomials, k=min(3, len(window)))
        coeffs = {expo: rng.randint(-2, 2) for expo in drawn}
        keys = {expo: key(c, expo) for expo, c in coeffs.items()}
        top = max(keys.values())
        if list(keys.values()).count(top) < 2:
            continue
        partner = None
        low = [e for e in coeffs if keys[e] != top]  # two of at most three terms are at the top
        if low:
            moved = rng.choice(low)
            target = rng.choice(window.monomials)
            if target not in coeffs and key(coeffs[moved], target) <= top:
                partner = {e: c for e, c in coeffs.items() if e != moved}
                partner[target] = coeffs[moved]
        for member in filter(None, (coeffs, partner)):
            members.setdefault(frozenset(member.items()), member)
        if len(members) >= count:
            break
    if not members:
        raise ValueError(f"no member in {max(count * 200, 0)} draws with coefficients in -2..2")
    polys = (Polynomial(c, window.n, window.mode) for c in members.values())
    return MembershipSample(tuple(polys), matrix)
