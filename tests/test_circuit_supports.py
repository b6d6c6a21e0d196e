"""Circuits as monomial sets against the searches they replaced.

Under the trivial valuation a circuit is its support, so `CircuitSet` holds
frozensets of exponent tuples, and `elimination_witness` decides a triple in
closed form: the union of the circuits inside (f | g) - {u}.  The oracles
are those of `oracles.tropical_linear`: `ref_set_witness` searches the
2^ties candidate sets with `covers` as its oracle, and `ref_check_circuits`
runs every triple of a CircuitSet of unit-coefficient `Polynomial`s through
`ref_elimination_witness` (the search on polynomials) with `ref_member`
(a support is a union of circuit supports) as its oracle.  Both searches
stop at the tie cap `MAX_TIES` of that module.  On seeded circuit sets the
closed form and both searches must pass or fail together, with the same
first counterexample and the same witness for every triple tried before it.
"""

import itertools
import random
import sys
from pathlib import Path

from tropica.polynomials import LAURENT, POLY, Polynomial
from tropica.sampling import random_polynomial
from tropica.tropical_linear import (
    AxiomResult,
    CircuitSet,
    check_tropical_axiom,
    elimination_witness,
    monomial_window,
    truncated_tropicalization,
    window_order,
)

import oracles.tropical_linear
from oracles.tropical_linear import (
    axiom_outcome,
    random_ideal,
    ref_check_circuits,
    ref_elimination_witness,
    ref_member,
    ref_set_witness,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _polynomials(circuit_set: CircuitSet):
    window = circuit_set.window
    return [Polynomial(dict.fromkeys(c, 0), window.n, window.mode) for c in circuit_set.circuits]


# -- seeded circuit sets -----------------------------------------------------------


def _circuit_set(seed):
    """(label, CircuitSet) for one seed.

    Two seeds in three take circuits of a seeded rational ideal
    (`oracles.tropical_linear.random_ideal`): all of them, or a random subset,
    which often breaks the axiom.  An ideal with more than 40 circuits (one
    has 862) gives a subset too, so that both searches stay quick.  The
    third draws arbitrary monomial sets in a poly or Laurent window, now and
    then one set twice.
    """
    rng = random.Random(30_000 + seed)
    if seed % 3 < 2:
        gens, n, degree = random_ideal(rng)
        found = truncated_tropicalization(gens, n, degree)
        circuits = list(found.circuits)
        label = "ideal"
        if (seed % 3 == 1 or len(circuits) > 40) and len(circuits) > 2:
            circuits = rng.sample(circuits, rng.randint(2, min(6, len(circuits) - 1)))
            label = "subset"
        return label, CircuitSet(found.window, tuple(circuits))
    n = rng.randint(1, 2)
    mode = rng.choice((POLY, LAURENT))
    window = monomial_window(n, mode, rng.randint(1, 2))
    sets = [
        frozenset(rng.sample(window.monomials, rng.randint(1, min(4, len(window)))))
        for _ in range(rng.randint(1, 5))
    ]
    if rng.random() < 0.2:
        sets.append(rng.choice(sets))
    return "random " + mode, CircuitSet(window, tuple(sets))


def _triples(circuit_set: CircuitSet):
    """The triples (f, g, u) of the axiom check, in its order."""
    for f, g in itertools.combinations_with_replacement(circuit_set.circuits, 2):
        for u in sorted(f & g, key=window_order):
            yield f, g, u


def _witnesses_until_failure(circuit_set: CircuitSet) -> None:
    """Both searches ask the same candidates, in the same order, on every
    triple up to the first failure, and return the same witness."""
    polys = _polynomials(circuit_set)
    index = dict(zip(circuit_set.circuits, polys))
    for f, g, u in _triples(circuit_set):
        asked, former = [], []

        def oracle(h):
            asked.append(h)
            return circuit_set.covers(h)

        def former_oracle(h):
            former.append(frozenset(h.support()))
            return ref_member(polys, h)

        got = ref_set_witness(f, g, u, oracle)
        want = ref_elimination_witness(index[f], index[g], u, former_oracle)
        assert got == (None if want is None else frozenset(want.support()))
        assert asked == former
        if got is None:
            return


def test_set_search_matches_polynomial_search():
    labels, failed = set(), 0
    for seed in range(360):
        label, circuit_set = _circuit_set(seed)
        expected = axiom_outcome(lambda: ref_check_circuits(_polynomials(circuit_set)))
        got = axiom_outcome(lambda: check_tropical_axiom(circuit_set))
        assert got == expected, (seed, circuit_set.circuits)
        if isinstance(got, AxiomResult):
            _witnesses_until_failure(circuit_set)
            failed += not got.passed
        labels.add(label)
    assert labels == {"ideal", "subset", "random poly", "random laurent"}
    assert failed >= 50, failed


def _many_ties(ties: int) -> list[CircuitSet]:
    """Three circuit sets with triples of ``ties`` ties, B the first ties + 1
    monomials of a window.

    With B and every monomial of B as circuits, the first candidate is the
    witness.  Without the singleton of B's last monomial, the first triple's
    last tie, the search drops one tie after another until that one goes.
    The third set holds f = B | {a}, g = B | {b} and the singletons of
    B | {a}: the self-pairs of f (ties + 1 ties) pass at their first
    candidate, and (f, g) fails after all 2^ties candidates, since no
    circuit inside (f | g) - {u} holds b.
    """
    window = monomial_window(2, LAURENT, 2)
    big = window.monomials[: ties + 1]
    a, b = window.monomials[ties + 1 : ties + 3]
    singletons = [frozenset({e}) for e in big]
    f, g = frozenset({*big, a}), frozenset({*big, b})
    return [
        CircuitSet(window, (frozenset(big), *singletons)),
        CircuitSet(window, (frozenset(big), *singletons[:-1])),
        CircuitSet(window, (f, g, *singletons, frozenset({a}))),
    ]


def test_closed_form_matches_set_search(monkeypatch):
    """On every triple up to the first failure, the closed form returns the
    witness of the set search, beyond the search's tie cap too."""
    monkeypatch.setattr(oracles.tropical_linear, "MAX_TIES", 19)
    cases = [_circuit_set(seed)[1] for seed in range(360)] + _many_ties(17) + _many_ties(18)
    triples, self_pairs, zero, failed = 0, 0, 0, 0
    ties = set()
    for circuit_set in cases:
        for f, g, u in _triples(circuit_set):
            want = ref_set_witness(f, g, u, circuit_set.covers)
            assert elimination_witness(f, g, u, circuit_set.span) == want, (circuit_set.circuits, f, g, u)
            triples += 1
            self_pairs += f == g
            zero += want == frozenset()
            ties.add(len(f & g) - 1)
            if want is None:
                failed += 1
                break
    assert triples >= 3_500 and self_pairs >= 1_800 and zero >= 1_500 and failed >= 100
    assert {17, 18} <= ties


def test_circuit_check_has_no_tie_cap(monkeypatch):
    # one circuit of `size` monomials, and each monomial a circuit: it has
    # 16 and 17 ties with itself.  Both are decided; the search it replaced
    # raised on 17 ties, and agrees once its cap is lifted
    window = monomial_window(2, LAURENT, 2)
    too_many = ("ValueError", "too many tie positions for exhaustive search")
    for size, capped in ((17, AxiomResult(True)), (18, too_many)):
        monomials = window.monomials[:size]
        circuits = (frozenset(monomials), *(frozenset({e}) for e in monomials))
        circuit_set = CircuitSet(window, circuits)
        assert axiom_outcome(lambda: check_tropical_axiom(circuit_set)) == AxiomResult(True)
        assert axiom_outcome(lambda: ref_check_circuits(_polynomials(circuit_set))) == capped
        with monkeypatch.context() as lifted:
            lifted.setattr(oracles.tropical_linear, "MAX_TIES", 17)
            assert ref_check_circuits(_polynomials(circuit_set)) == AxiomResult(True)


def test_member_matches_former_member():
    rng = random.Random(18)
    for _ in range(200):
        label, circuit_set = _circuit_set(rng.randrange(360))
        window = circuit_set.window
        polys = _polynomials(circuit_set)
        candidates = [
            random_polynomial(rng, window.n, window.mode, max_terms=4, max_deg=window.degree),
            Polynomial(dict.fromkeys(rng.sample(window.monomials, min(3, len(window))), 0), window.n, window.mode),
            Polynomial({}, window.n, window.mode),
            *polys[:2],
        ]
        if len(polys) > 1:
            candidates.append(Polynomial({**polys[0].coeffs, **polys[1].coeffs}, window.n, window.mode))
        for v in candidates:
            assert circuit_set.member(v) == ref_member(polys, v), (circuit_set.circuits, v)


def test_trivial_is_read_off_the_circuits():
    window = monomial_window(2, POLY, 1)
    assert CircuitSet(window, (frozenset({(1, 0)}), frozenset({(0, 0)}))).trivial
    assert not CircuitSet(window, (frozenset({(0, 0), (1, 0)}),)).trivial
    assert not CircuitSet(window, ()).trivial


def test_benchmark_tracer_counts_the_circuit_search():
    """`perfbench/tracing.py` wraps `elimination_witness` to count oracle answers."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        from tracing import Tracer
    finally:
        sys.path.remove(str(PERFBENCH))
    window = monomial_window(2, POLY, 3)
    circuit_set = CircuitSet(window, (frozenset({(1, 1), (0, 2)}), frozenset({(1, 2), (0, 3)}), frozenset({(2, 1), (0, 3)})))
    tracer = Tracer()
    tracer.install(type(sys)("bench"))
    try:
        result = tracer.run_query(0, "tideal-check", lambda: check_tropical_axiom(circuit_set))
    finally:
        tracer.uninstall()
    assert not result.passed
    metrics = tracer.layer_metrics()
    assert metrics["tropical_linear.oracle_calls"][0] > 0
    assert metrics["tropical_linear.oracle_accept_ratio"][0] < 1
