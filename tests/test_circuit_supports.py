"""Circuits as monomial sets against the `Polynomial` search they replaced.

Under the trivial valuation a circuit is its support, so `CircuitSet` holds
frozensets of exponent tuples and `elimination_witness` searches monomial
sets.  `ref_check_circuits` is the former `check_tropical_axiom` loop over a
CircuitSet of unit-coefficient `Polynomial`s: every triple goes to
`ref_elimination_witness` (the former search on polynomials, kept in
`test_axiom_keys`) with `ref_member`, the former `CircuitSet.member`, as its
oracle.  On seeded circuit sets both must pass or fail together, with the
same first counterexample, the same witness for every triple tried before
it, and the same tie-cap error.  They are kept here only as oracles.
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

from test_axiom_keys import _outcome, ref_elimination_witness
from test_circuit_scan import _random_ideal

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# -- reference implementations -------------------------------------------------


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


def _polynomials(circuit_set: CircuitSet):
    window = circuit_set.window
    return [Polynomial(dict.fromkeys(c, 0), window.n, window.mode) for c in circuit_set.circuits]


# -- seeded circuit sets -----------------------------------------------------------


def _circuit_set(seed):
    """(label, CircuitSet) for one seed.

    Two seeds in three take circuits of a seeded rational ideal
    (`test_circuit_scan._random_ideal`): all of them, or a random subset,
    which often breaks the axiom.  An ideal with more than 40 circuits (one
    has 862) gives a subset too, so that both searches stay quick.  The
    third draws arbitrary monomial sets in a poly or Laurent window, now and
    then one set twice.
    """
    rng = random.Random(30_000 + seed)
    if seed % 3 < 2:
        gens, n, degree = _random_ideal(rng)
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


def _witnesses_until_failure(circuit_set: CircuitSet) -> None:
    """Both searches ask the same candidates, in the same order, on every
    triple up to the first failure, and return the same witness."""
    polys = _polynomials(circuit_set)
    index = dict(zip(circuit_set.circuits, polys))
    for f, g in itertools.combinations_with_replacement(circuit_set.circuits, 2):
        for u in sorted(f & g, key=window_order):
            asked, former = [], []

            def oracle(h):
                asked.append(h)
                return circuit_set.covers(h)

            def former_oracle(h):
                former.append(frozenset(h.support()))
                return ref_member(polys, h)

            got = elimination_witness(f, g, u, oracle)
            want = ref_elimination_witness(index[f], index[g], u, former_oracle)
            assert got == (None if want is None else frozenset(want.support()))
            assert asked == former
            if got is None:
                return


def test_set_search_matches_polynomial_search():
    labels, failed = set(), 0
    for seed in range(360):
        label, circuit_set = _circuit_set(seed)
        expected = _outcome(lambda: ref_check_circuits(_polynomials(circuit_set)))
        got = _outcome(lambda: check_tropical_axiom(circuit_set))
        assert got == expected, (seed, circuit_set.circuits)
        if isinstance(got, AxiomResult):
            _witnesses_until_failure(circuit_set)
            failed += not got.passed
        labels.add(label)
    assert labels == {"ideal", "subset", "random poly", "random laurent"}
    assert failed >= 50, failed


def test_set_search_keeps_the_tie_cap():
    # one circuit of `size` monomials, and each monomial a circuit: every
    # candidate is a union of circuits, so the first is the witness
    window = monomial_window(2, LAURENT, 2)
    for size, message in ((17, None), (18, "too many tie positions for exhaustive search")):
        monomials = window.monomials[:size]
        circuits = (frozenset(monomials), *(frozenset({e}) for e in monomials))
        circuit_set = CircuitSet(window, circuits)
        expected = _outcome(lambda: ref_check_circuits(_polynomials(circuit_set)))
        assert _outcome(lambda: check_tropical_axiom(circuit_set)) == expected
        assert expected == (AxiomResult(True) if message is None else ("ValueError", message))


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
