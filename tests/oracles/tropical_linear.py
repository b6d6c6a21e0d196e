"""Oracles of `tropica.tropical_linear`: window sizes, witness searches, circuit scans and span brute force.

**Windows.**  `ref_window_size` counts a window by its closed form,
C(n + d, n) monomials in poly mode and (2d + 1)^n in Laurent mode, one
variable at a time until the count passes a limit; `monomial_window`
counts by building.

**The elimination axiom.**  `ref_elimination_witness` searches the witness
of a triple (f, g, u) among the polynomials that drop u, equal max(f_v, g_v)
wherever f and g differ and keep or drop each tie: up to 2^ties candidates
against a membership oracle, and, at a geometric prime, the tie-level
candidates at its point.  `ref_check_axiom` runs it on every triple of a
`MembershipSample`, by default with `bend_ideal_member` of the prime as the
oracle.  On circuits, which are monomial sets under the trivial valuation,
`ref_set_witness` searches the 2^ties candidate sets, and
`ref_check_circuits` runs the polynomial search over unit-coefficient
polynomials with `ref_member` (a support is a union of circuit supports) as
the oracle.  The searches share one tie cap, `MAX_TIES`, which a test may
lift by patching this module.

**Circuits of a rational ideal.**  The degree-<= d slice of the ideal is
the row space of the multiplication matrix, and its circuits are the
support-minimal non-zero vectors of that space.  `ref_full_rank_scan`
reads them off that definition: it scans subsets S of the window by size
and ranks the `Fraction` reduced row echelon basis restricted to the
columns outside S.  `ref_fraction_basis_walk` is the former
`truncated_tropicalization`, the hyperplane walk on that `Fraction` basis,
cheap enough for the 600 seeded ideals the full scan cannot afford.

**Tropical spans.**  `combine` is the tropical linear combination of the
generators with the scalars `lams`; over `grid_scalars` it is the brute
force that span membership is checked against.
"""

import itertools
from fractions import Fraction
from math import gcd
from typing import Callable

from tropica.matrices import clear_denominators, int_nullspace, to_fraction
from tropica.polynomials import POLY, Exponents, Polynomial
from tropica.primes import GEOMETRIC, bend_ideal_member, classify_prime, variety_of_prime
from tropica.scalars import BOTTOM, is_bottom, trop_add, trop_mul
from tropica.tropical_linear import (
    AxiomResult,
    CircuitSet,
    MembershipSample,
    monomial_window,
    window_order,
)

from oracles.matrices import dot, rank, ref_row_echelon

MAX_TIES = 16  # tie positions per triple the reference searches try (2^ties candidates)

# -- windows -----------------------------------------------------------------------------


def ref_window_size(n: int, mode: str, degree: int, limit: int) -> int:
    """The number of monomials in the window, or limit + 1 when it holds more."""
    if degree == 0:
        return 1  # the constant monomial alone, whatever n is
    size = 1
    for k in range(1, n + 1):
        # C(d + k, k) after k poly-mode steps, (2d + 1)^k in Laurent mode
        size = size * (degree + k) // k if mode == POLY else size * (2 * degree + 1)
        if size > limit:
            return limit + 1
    return size


# -- the elimination axiom ---------------------------------------------------------------


def require_few_ties(count: int) -> None:
    if count > MAX_TIES:
        raise ValueError("too many tie positions for exhaustive search")


def axiom_outcome(run):
    """The result of a check, or ("ValueError", message) when it raised one."""
    try:
        return run()
    except ValueError as exc:
        return ("ValueError", str(exc))


def ref_elimination_witness(
    f: Polynomial,
    g: Polynomial,
    u: Exponents,
    oracle: Callable[[Polynomial], bool],
    point: tuple[Fraction, ...] | None = None,
) -> Polynomial | None:
    """Search for the elimination-axiom witness for the shared monomial u.

    The witness h must drop u, equal max(f_v, g_v) wherever f and g differ,
    and stay <= the common value on ties.  Candidates vary the tie positions
    over {common value, bottom}.  When the oracle comes from a geometric
    ``point``, where a tie sometimes has to drop to a lower level, each tie
    is then also tried alone at the top forced level at the point, when that
    level is <= its common value.  Returns the first candidate the oracle
    accepts, else None.
    """
    u = tuple(u)
    fu, gu = f.coefficient(u), g.coefficient(u)
    if is_bottom(fu) or fu != gu:
        raise ValueError("u must carry the same non-bottom coefficient in f and g")
    if (f.n, f.mode) != (g.n, g.mode):
        raise ValueError("all vectors must have the same variable count and mode")
    forced: dict[Exponents, Fraction] = {}
    ties: list[tuple[Exponents, Fraction]] = []
    for expo in sorted({*f.support(), *g.support()}, key=window_order):
        if expo == u:
            continue
        fv, gv = f.coefficient(expo), g.coefficient(expo)
        if fv == gv:
            ties.append((expo, fv))
        else:
            forced[expo] = trop_add(fv, gv)
    require_few_ties(len(ties))

    def candidates():
        for dropped in range(len(ties) + 1):
            for subset in itertools.combinations(range(len(ties)), dropped):
                values = dict(forced)
                for idx, (expo, common) in enumerate(ties):
                    if idx not in subset:
                        values[expo] = common
                yield values
        if point is not None and forced:
            top = max(value + dot(expo, point) for expo, value in forced.items())
            for expo, common in ties:
                level = top - dot(expo, point)
                if level <= common:
                    yield {**forced, expo: level}

    for values in candidates():
        h = Polynomial(values, f.n, f.mode)
        if oracle(h):
            return h
    return None


def ref_check_axiom(sample: MembershipSample, oracle=None) -> AxiomResult:
    oracle = oracle or (lambda h: bend_ideal_member(sample.prime, h))
    point = variety_of_prime(sample.prime) if classify_prime(sample.prime)[0] == GEOMETRIC else None
    for f, g in itertools.combinations_with_replacement(sample.samples, 2):
        for u in sorted(set(f.support()).intersection(g.support()), key=window_order):
            if f.coefficient(u) != g.coefficient(u):
                continue
            if ref_elimination_witness(f, g, u, oracle, point) is None:
                return AxiomResult(False, (f, g, u))
    return AxiomResult(True)


def ref_set_witness(
    f: frozenset[Exponents],
    g: frozenset[Exponents],
    u: Exponents,
    oracle: Callable[[frozenset[Exponents]], bool],
) -> frozenset[Exponents] | None:
    """Search for the elimination-axiom witness of two circuits at a shared monomial u.

    Under the trivial valuation a vector is its support.  The witness h must
    drop u, hold every monomial of F = f xor g (where max(f_v, g_v) is the
    unit) and may hold any tie of T = (f & g) - {u} (values <= the unit).
    Candidates are F | S for S a subset of T: all of T first, then with one
    tie dropped, two, and so on, ties in window order.  Returns the first
    candidate the oracle accepts, else None.
    """
    u = tuple(u)
    if u not in f or u not in g:
        raise ValueError("u must lie in the supports of both f and g")
    ties = sorted((f & g) - {u}, key=window_order)
    require_few_ties(len(ties))
    everything = (f | g) - {u}  # F with every tie kept
    for dropped in range(len(ties) + 1):
        for subset in itertools.combinations(ties, dropped):
            h = everything.difference(subset)
            if oracle(h):
                return h
    return None


def ref_member(circuits, v: Polynomial) -> bool:
    """Support is a union of circuit supports (with unit values)."""
    if v.is_zero():
        return True
    if any(value != 0 for _, value in v.terms()):
        return False
    supp = frozenset(v.support())
    covered = set()
    for cs in tuple(frozenset(c.support()) for c in circuits):
        if cs <= supp:
            covered |= cs
    return covered == supp


def ref_check_circuits(circuits) -> AxiomResult:
    for f, g in itertools.combinations_with_replacement(circuits, 2):
        for u in sorted(set(f.support()).intersection(g.support()), key=window_order):
            if f.coefficient(u) != g.coefficient(u):
                continue
            if ref_elimination_witness(f, g, u, lambda h: ref_member(circuits, h)) is None:
                return AxiomResult(False, (f, g, u))
    return AxiomResult(True)


# -- circuits of a rational ideal --------------------------------------------------------


def multiplication_rows(rational_gens: list[dict], n: int, degree: int):
    """(window, rows): each non-zero generator times every monomial that keeps it in the window.

    The rows span the degree-<= d slice of the ideal, as `Fraction` vectors
    over the window's monomials.
    """
    window = monomial_window(n, POLY, degree)
    columns = {expo: i for i, expo in enumerate(window.monomials)}
    rows = []
    for g in rational_gens:
        coeffs = {tuple(e): to_fraction(c) for e, c in g.items()}
        clean = {e: c for e, c in coeffs.items() if c != 0}
        if not clean:
            continue
        if any(len(e) != n or any(a < 0 for a in e) for e in clean):
            raise ValueError("generators must be polynomials in n non-negative exponents")
        gdeg = max(sum(e) for e in clean)
        if gdeg > degree:
            raise ValueError(f"generator degree {gdeg} exceeds the window degree {degree}")
        for shift in window.monomials:
            if sum(shift) > degree - gdeg:
                continue
            row = [Fraction(0)] * len(window)
            for expo, coeff in clean.items():
                row[columns[tuple(a + b for a, b in zip(expo, shift))]] = coeff
            rows.append(row)
    return window, rows


def ref_full_rank_scan(rational_gens: list[dict], n: int, degree: int) -> CircuitSet:
    """The support-minimal subsets S of the window outside which the basis loses rank."""
    window, rows = multiplication_rows(rational_gens, n, degree)
    basis = [row for row in ref_row_echelon(rows) if any(v != 0 for v in row)]
    r = len(basis)
    if r == 0:
        return CircuitSet(window, ())
    circuits: list[frozenset] = []
    max_size = len(window) - r + 1
    indices = range(len(window))
    for size in range(1, max_size + 1):
        for combo in itertools.combinations(indices, size):
            combo_set = set(combo)
            if any(c <= combo_set for c in circuits):
                continue
            outside = [i for i in indices if i not in combo_set]
            submatrix = [[row[i] for i in outside] for row in basis]
            if rank(submatrix) < r:
                circuits.append(frozenset(combo))
    supports = sorted(circuits, key=lambda c: sorted(c))
    return CircuitSet(window, tuple(frozenset(window.monomials[i] for i in c) for c in supports))


def _representatives(int_basis, m: int) -> list[int]:
    """The first column of each class of parallel non-zero columns, in order."""
    seen, reps = set(), []
    for j in range(m):
        column = [row[j] for row in int_basis]
        lead = next((a for a in column if a), 0)
        if not lead:
            continue
        content = gcd(*column) if lead > 0 else -gcd(*column)
        key = tuple(a // content for a in column)
        if key not in seen:
            seen.add(key)
            reps.append(j)
    return reps


def ref_fraction_basis_walk(rational_gens: list[dict], n: int, degree: int) -> CircuitSet:
    """The hyperplane walk on the reduced row echelon basis of `Fraction` rows.

    The former `truncated_tropicalization`, with its circuits built as
    monomial sets: the basis came from the `Fraction` elimination and was
    then cleared of denominators row by row, and the pivots were re-scanned.
    """
    window, rows = multiplication_rows(rational_gens, n, degree)
    basis = [clear_denominators(row) for row in ref_row_echelon(rows) if any(v != 0 for v in row)]
    if not basis:
        return CircuitSet(window, ())
    m = len(window)
    pivots = [next(j for j, v in enumerate(row) if v) for row in basis]
    # each recorded flat is kept as the bitmask of the columns outside it
    outsides: list[int] = []
    circuits: list[int] = []
    for subset in itertools.combinations(_representatives(basis, m), len(basis) - 1):
        mask = sum(1 << j for j in subset)
        if not all(mask & recorded for recorded in outsides):
            continue  # T lies in a recorded flat
        live = [row for row, p in zip(basis, pivots) if not mask >> p & 1]
        restricted = [[row[j] for row in live] for j in subset if j not in pivots]
        null = int_nullspace(restricted, len(live))
        outside = 0
        for ys in null:
            vector = [0] * m
            for y, row in zip(ys, live):
                if y:
                    vector = [a + y * b for a, b in zip(vector, row)]
            outside |= sum(1 << j for j, value in enumerate(vector) if value)
        outsides.append(outside)
        if len(null) == 1:
            circuits.append(outside)
    supports = sorted([j for j in range(m) if c >> j & 1] for c in circuits)
    return CircuitSet(window, tuple(frozenset(window.monomials[j] for j in c) for c in supports))


def random_coefficient(rng):
    return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2, 3]))


def non_integer_coefficient(rng):
    return Fraction(rng.choice([-7, -3, -2, -1, 1, 2, 5, 9]), rng.choice([1, 2, 3, 4, 6, 7, 12]))


def random_ideal(rng, coefficient=random_coefficient):
    """(gens, n, degree): 1-3 generators in a window of at most 15 monomials.

    One generator in ten is zero and, after the first, one in ten repeats
    the one before it.
    """
    n = rng.randint(1, 3)
    degree = rng.choice([d for d in range(1, 15) if ref_window_size(n, POLY, d, 15) <= 15])
    window = monomial_window(n, POLY, degree).monomials
    gens = []
    for _ in range(rng.randint(1, 3)):
        kind = rng.random()
        if kind < 0.1:
            gens.append({rng.choice(window): 0})  # the zero generator
        elif kind < 0.2 and gens:
            gens.append(dict(gens[-1]))  # a duplicate
        else:
            terms = rng.sample(window, k=min(len(window), rng.randint(1, 4)))
            gens.append({e: coefficient(rng) for e in terms})
    return gens, n, degree


# -- tropical spans ----------------------------------------------------------------------


def grid_scalars(lo=-4, hi=4):
    return [BOTTOM] + [Fraction(v) for v in range(lo, hi + 1)]


def combine(lams, gens):
    """The coefficients of the tropical combination max_k (lams[k] + gens[k])."""
    out = {}
    for lam, g in zip(lams, gens):
        for expo, value in g.terms():
            out[expo] = trop_add(out.get(expo, BOTTOM), trop_mul(lam, value))
    return {k: v for k, v in out.items() if not is_bottom(v)}
