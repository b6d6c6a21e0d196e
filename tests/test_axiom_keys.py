"""The elimination axiom decided on prime keys, against the searches it replaced.

`ref_check_axiom` is the former `check_tropical_axiom` loop over a
MembershipSample: every triple (f, g, u) goes to `ref_elimination_witness`,
the former `tropical_linear.elimination_witness` on polynomials, moved here
verbatim apart from its name.  It tries up to 2^ties candidate polynomials
against a membership oracle (by default `bend_ideal_member` of the prime)
and, at a geometric prime, the tie-level candidates at its point
(`variety_of_prime`).  Point samples use the former oracle "zero or
vanishes at the point".  Its tie cap, `MAX_TIES` and `_require_few_ties`,
moved here from `tropical_linear` with the last search there;
`test_circuit_supports.ref_set_witness` shares it.
`ref_prime_members` is the former `sampling.prime_members` loop, which
built a polynomial for every draw and asked `bend_ideal_member`; where it
drew no member, `prime_members` now raises instead.  Both are
kept here only as oracles.
"""

import itertools
import random
import sys
from fractions import Fraction
from typing import Callable

import pytest

from tropica.matrices import dot
from tropica.polynomials import LAURENT, POLY, Exponents, Polynomial
from tropica.primes import (
    bend_ideal_member,
    check_admissible,
    geometric_prime_of_point,
    leading_class,
    variety_of_prime,
)
from tropica.sampling import (
    point_members,
    prime_members,
    random_admissible,
    random_fraction,
    random_point,
    random_polynomial,
)
from tropica.scalars import is_bottom, trop_add
from tropica.tropical_linear import (
    AxiomResult,
    MembershipSample,
    _require_same_ring,
    check_tropical_axiom,
    monomial_window,
    window_order,
)

from test_one_construction import assert_no_member_error, tied_prime

FIRST_ENTRIES = ("any", "zero", "positive")
MAX_TIES = 16  # tie positions per triple the reference searches try (2^ties candidates)

# -- reference implementations -------------------------------------------------


def _require_few_ties(count: int) -> None:
    if count > MAX_TIES:
        raise ValueError("too many tie positions for exhaustive search")


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
    _require_same_ring([f, g])
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
    _require_few_ties(len(ties))

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
    point = variety_of_prime(sample.prime) if sample.geometric else None
    for f, g in itertools.combinations_with_replacement(sample.samples, 2):
        for u in sorted(set(f.support()).intersection(g.support()), key=window_order):
            if f.coefficient(u) != g.coefficient(u):
                continue
            if ref_elimination_witness(f, g, u, oracle, point) is None:
                return AxiomResult(False, (f, g, u))
    return AxiomResult(True)


def ref_prime_members(rng, matrix, window, count):
    members = {}
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
    return tuple(members)


# -- seeded descriptions -----------------------------------------------------------


def _outcome(run):
    try:
        return run()
    except ValueError as exc:
        return ("ValueError", str(exc))


def _window(rng, n):
    mode = rng.choice((POLY, LAURENT))
    degree = 1 if (n == 3 and mode == LAURENT) else rng.randint(1, 2)
    return monomial_window(n, mode, degree)


def _variants(rng, polys, window):
    """Each polynomial with one coefficient changed or one term moved: many shared ties."""
    out = []
    for f in polys:
        terms = dict(f.coeffs)
        expo = rng.choice(f.support())
        if rng.random() < 0.5:
            terms[expo] = terms[expo] + random_fraction(rng, -2, 2)
        else:
            terms[rng.choice(window.monomials)] = terms.pop(expo)
        out.append(Polynomial(terms, f.n, f.mode))
    return out


def _description(seed):
    """(label, sample, oracle of the former search) for one seed.

    Seeds cycle through point samples, prime samples and arbitrary
    polynomials with fractional coefficients (with their variants) on a
    random prime or on a 0/1 prime; ranks run through 1..n+1 and
    ``first_entry`` through its three values.
    """
    rng = random.Random(seed)
    n = 1 + seed % 3
    window = _window(rng, n)
    kind = (seed // 3) % 4
    rank = 1 + (seed // 12) % (n + 1)
    first = FIRST_ENTRIES[(seed // 48) % 3]
    if kind == 0:
        point = random_point(rng, n, -2, 2, 3)
        sample = point_members(rng, point, window, rng.randint(2, 7))
        return "point", sample, lambda h: h.is_zero() or h.vanishes_at(point)
    if kind == 3:
        matrix = tied_prime(rng, n, rank, window.mode)
    else:
        matrix = random_admissible(rng, n, rank, window.mode, first)
    if kind == 1:
        try:
            sample = prime_members(rng, matrix, window, rng.randint(2, 6))
        except ValueError as exc:  # the former loop returned an empty sample here
            assert "no member" in str(exc)
            sample = MembershipSample((), matrix)
        return "prime", sample, None
    if kind == 2:
        polys = [
            random_polynomial(rng, n, window.mode, max_terms=5, max_deg=window.degree, min_terms=2)
            for _ in range(rng.randint(1, 3))
        ]
    else:  # coefficients 0 and 1 and a 0/1 prime: equal keys abound
        polys = [
            Polynomial({rng.choice(window.monomials): rng.randint(0, 1) for _ in range(5)}, n, window.mode)
            for _ in range(rng.randint(1, 3))
        ]
    label = "tied" if kind == 3 else "random"
    return label, MembershipSample(tuple(polys + _variants(rng, polys, window)), matrix), None


def test_axiom_on_keys_matches_witness_search():
    # each sample whole, then each pair of it alone: a failure early in the
    # whole sample would hide every later triple
    labels, failed, ranks = set(), 0, set()
    for seed in range(540):
        label, sample, oracle = _description(seed)
        pairs = itertools.combinations(sample.samples, 2)
        for part in [sample, *(MembershipSample(pair, sample.prime) for pair in pairs)]:
            expected = _outcome(lambda: ref_check_axiom(part, oracle))
            got = _outcome(lambda: check_tropical_axiom(part))
            assert got == expected, (seed, label, part.samples)
        labels.add((label, sample.prime.mode))
        ranks.add((sample.prime.n, sample.prime.rank, sample.geometric))
        failed += not check_tropical_axiom(sample).passed
    assert len(labels) == 8
    assert {(n, r) for n, r, _ in ranks} == {(n, r) for n in (1, 2, 3) for r in range(1, n + 2)}
    assert failed >= 30


def test_axiom_on_keys_same_pair_and_many_ties(monkeypatch):
    # the keys decider has no tie cap: 17 ties are decided, and the reference
    # search agrees once its cap of 16 is lifted to 17
    window = monomial_window(2, LAURENT, 2)
    prime = check_admissible([[0, 1, 1]], 2)
    big = Polynomial({expo: 0 for expo in window.monomials[:18]}, 2)  # 17 ties with itself
    edge = Polynomial({expo: 0 for expo in window.monomials[:17]}, 2)  # 16 ties
    f = Polynomial({(1, 0): 0, (0, 1): 0, (-1, 0): 0}, 2)
    g = Polynomial({(1, 0): 0, (0, 1): 0, (-2, 0): 0}, 2)
    cases = [
        MembershipSample((f,), prime),  # the pair (f, f) alone: h = 0 is a witness
        MembershipSample((f, g, big), prime),  # (f, g) fails before (f, big) is reached
        MembershipSample((big, f, g), prime),  # (big, big) and (big, f) pass, then (f, g) fails
        MembershipSample((edge,), prime),
        MembershipSample((edge, big), geometric_prime_of_point((0, 0))),
    ]
    outcomes = [_outcome(lambda: check_tropical_axiom(s)) for s in cases]
    assert outcomes[0] == outcomes[3] == outcomes[4] == AxiomResult(True)
    assert outcomes[1] == outcomes[2] == AxiomResult(False, (f, g, (0, 1)))
    capped = [_outcome(lambda: ref_check_axiom(s)) for s in cases]
    assert capped[2] == capped[4] == ("ValueError", "too many tie positions for exhaustive search")
    monkeypatch.setattr(sys.modules[__name__], "MAX_TIES", 17)
    assert outcomes == [_outcome(lambda: ref_check_axiom(s)) for s in cases]


def test_axiom_on_keys_rejects_samples_of_another_ring():
    sample = MembershipSample((Polynomial({(1,): 0, (0,): 0}, 1),), check_admissible([[0, 1, 1]], 2))
    with pytest.raises(ValueError):
        check_tropical_axiom(sample)


def test_prime_members_match_former_loop():
    none = {True: 0, False: 0}  # no member drawn, by whether a drawable tie exists
    for seed in range(300):
        rng = random.Random(10_000 + seed)
        n = 1 + seed % 3
        window = _window(rng, n)
        matrix = random_admissible(rng, n, 1 + (seed // 3) % (n + 1), window.mode, FIRST_ENTRIES[seed % 3])
        count = rng.randint(1, 5)
        old, new = random.Random(seed), random.Random(seed)
        expected = ref_prime_members(old, matrix, window, count)
        if not expected:
            none[assert_no_member_error(new, matrix, window, count, old.getstate())] += 1
            continue
        sample = prime_members(new, matrix, window, count)
        assert sample.samples == expected, seed
        assert [str(f.terms()) for f in sample.samples] == [str(f.terms()) for f in expected]
        assert new.getstate() == old.getstate(), seed
        assert sample.prime == matrix
    assert min(none.values()) >= 5, none
