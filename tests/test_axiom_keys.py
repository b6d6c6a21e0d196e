"""The elimination axiom decided on prime keys, against the searches it replaced.

The oracles are those of `oracles.tropical_linear`: `ref_check_axiom` runs
every triple (f, g, u) of a MembershipSample through
`ref_elimination_witness`, which tries up to 2^ties candidate polynomials
against a membership oracle (by default `bend_ideal_member` of the prime)
and, at a geometric prime, the tie-level candidates at its point
(`variety_of_prime`).  Point samples use the oracle "zero or vanishes at
the point".  The searches stop at `MAX_TIES` ties, which a test lifts by
patching that module.  `ref_prime_members` (`oracles.sampling`) decides
each draw by the top key of its terms; where it drew no member,
`prime_members` raises instead.
"""

import itertools
import random

import pytest

from tropica.polynomials import LAURENT, POLY, Polynomial
from tropica.primes import GEOMETRIC, check_admissible, classify_prime, geometric_prime_of_point
from tropica.sampling import (
    prime_members,
    random_admissible,
    random_fraction,
    random_point,
    random_polynomial,
)
from tropica.tropical_linear import (
    AxiomResult,
    MembershipSample,
    check_tropical_axiom,
    monomial_window,
)

import oracles.tropical_linear
from oracles.sampling import assert_no_member_error, ref_point_members, ref_prime_members, tied_prime
from oracles.tropical_linear import axiom_outcome, ref_check_axiom

FIRST_ENTRIES = ("any", "zero", "positive")

# -- seeded descriptions -----------------------------------------------------------


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
    """((label, window mode), sample, oracle of the former search) for one seed.

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
        sample = ref_point_members(rng, point, window, rng.randint(2, 7))
        return ("point", window.mode), sample, lambda h: h.is_zero() or h.vanishes_at(point)
    if kind == 3:
        matrix = tied_prime(rng, n, rank)
    else:
        matrix = random_admissible(rng, n, rank, first)
    if kind == 1:
        try:
            sample = prime_members(rng, matrix, window, rng.randint(2, 6))
        except ValueError as exc:  # the former loop returned an empty sample here
            assert "no member" in str(exc)
            sample = MembershipSample((), matrix)
        return ("prime", window.mode), sample, None
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
    label = ("tied" if kind == 3 else "random"), window.mode
    return label, MembershipSample(tuple(polys + _variants(rng, polys, window)), matrix), None


def test_axiom_on_keys_matches_witness_search():
    # each sample whole, then each pair of it alone: a failure early in the
    # whole sample would hide every later triple
    labels, failed, ranks = set(), 0, set()
    for seed in range(540):
        label, sample, oracle = _description(seed)
        pairs = itertools.combinations(sample.samples, 2)
        for part in [sample, *(MembershipSample(pair, sample.prime) for pair in pairs)]:
            expected = axiom_outcome(lambda: ref_check_axiom(part, oracle))
            got = axiom_outcome(lambda: check_tropical_axiom(part))
            assert got == expected, (seed, label, part.samples)
        labels.add(label)
        ranks.add((sample.prime.n, sample.prime.rank, classify_prime(sample.prime)[0] == GEOMETRIC))
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
    outcomes = [axiom_outcome(lambda: check_tropical_axiom(s)) for s in cases]
    assert outcomes[0] == outcomes[3] == outcomes[4] == AxiomResult(True)
    assert outcomes[1] == outcomes[2] == AxiomResult(False, (f, g, (0, 1)))
    capped = [axiom_outcome(lambda: ref_check_axiom(s)) for s in cases]
    assert capped[2] == capped[4] == ("ValueError", "too many tie positions for exhaustive search")
    monkeypatch.setattr(oracles.tropical_linear, "MAX_TIES", 17)
    assert outcomes == [axiom_outcome(lambda: ref_check_axiom(s)) for s in cases]


def test_axiom_on_keys_rejects_samples_of_another_ring():
    sample = MembershipSample((Polynomial({(1,): 0, (0,): 0}, 1),), check_admissible([[0, 1, 1]], 2))
    with pytest.raises(ValueError):
        check_tropical_axiom(sample)


def test_prime_members_on_random_primes_match_key_oracle():
    none = {True: 0, False: 0}  # no member drawn, by whether a drawable tie exists
    for seed in range(300):
        rng = random.Random(10_000 + seed)
        n = 1 + seed % 3
        window = _window(rng, n)
        matrix = random_admissible(rng, n, 1 + (seed // 3) % (n + 1), FIRST_ENTRIES[seed % 3])
        count = rng.randint(1, 5)
        old, new = random.Random(seed), random.Random(seed)
        expected = ref_prime_members(old, matrix, window, count).samples
        if not expected:
            none[assert_no_member_error(new, matrix, window, count, old.getstate())] += 1
            continue
        sample = prime_members(new, matrix, window, count)
        assert sample.samples == expected, seed
        assert [str(f.terms()) for f in sample.samples] == [str(f.terms()) for f in expected]
        assert new.getstate() == old.getstate(), seed
        assert sample.prime == matrix
    assert min(none.values()) >= 5, none
