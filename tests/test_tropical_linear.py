"""Degree-truncated tropical linear algebra: residuation, elimination, circuits."""

import itertools
import random
import time
from fractions import Fraction

import pytest

from tropica.parsing import format_polynomial
from tropica.polynomials import LAURENT, POLY, Polynomial
from tropica.primes import (
    GEOMETRIC,
    bend_ideal_member,
    check_admissible,
    classify_prime,
    geometric_prime_of_point,
    variety_of_prime,
)
from tropica.sampling import prime_members, random_point
from tropica.scalars import BOTTOM, is_bottom
from tropica import tropical_linear
from tropica.tropical_linear import (
    MAX_WINDOW_MONOMIALS,
    MAX_WINDOW_SIZE,
    CircuitSet,
    MembershipSample,
    check_tropical_axiom,
    elimination_witness,
    monomial_window,
    truncated_tropicalization,
)
from tropica.varieties import affine_prevariety, prevariety

from oracles.parsing import P
from oracles.sampling import ref_point_members, ref_random_member_polynomial
from oracles.tropical_linear import (
    combine,
    grid_scalars,
    ref_elimination_witness,
    ref_set_witness,
    ref_window_size,
)


# -- windows -----------------------------------------------------------------------


def test_window_sizes():
    assert len(monomial_window(2, POLY, 2)) == 6
    assert len(monomial_window(1, LAURENT, 2)) == 5
    assert monomial_window(2, POLY, 1).monomials == ((0, 0), (0, 1), (1, 0))


def _build_nothing(monkeypatch):
    """Any monomial the window builder asks for fails the test, before it is built."""

    def fail(*args):
        raise AssertionError(f"monomials of the window {args} were asked for")

    monkeypatch.setattr(tropical_linear, "_monomials", fail)


def test_window_sizes_match_the_closed_form(monkeypatch):
    for mode in (POLY, LAURENT):
        for n in range(5):
            for degree in range(5):
                size = ref_window_size(n, mode, degree, 10**6)
                if n * size <= MAX_WINDOW_SIZE:
                    assert len(monomial_window(n, mode, degree)) == size
                else:  # 9^4 Laurent monomials of 4 entries
                    assert (n, mode, degree) == (4, LAURENT, 4)
                    with pytest.raises(ValueError, match="more than 2500 monomials"):
                        monomial_window(n, mode, degree)
    assert len(monomial_window(MAX_WINDOW_SIZE, POLY, 0)) == ref_window_size(10**6, POLY, 0, 100) == 1
    assert len(monomial_window(0, POLY, 10**6)) == 1
    # refused before a monomial is built, however large n and d are
    _build_nothing(monkeypatch)
    for n, mode, degree in ((3, POLY, 10**6), (10**6, LAURENT, 10**6), (10**6, POLY, 10**6), (10**6, POLY, 0)):
        assert n * ref_window_size(n, mode, degree, MAX_WINDOW_SIZE) > MAX_WINDOW_SIZE
        start = time.perf_counter()
        with pytest.raises(ValueError, match="monomials; the cap on monomial windows is 10000 entries"):
            monomial_window(n, mode, degree)
        assert time.perf_counter() - start < 0.1


def _count_built(monkeypatch):
    """The entry count of each monomial the window builder builds, in a list it fills."""
    built = []
    monomials = tropical_linear._monomials

    def counted(*args):
        for expo in monomials(*args):
            built.append(len(expo))
            yield expo

    monkeypatch.setattr(tropical_linear, "_monomials", counted)
    return built


def test_window_cap(monkeypatch):
    # C(1 + d, 1) = d + 1 monomials of one entry: the largest such window under the cap
    assert len(monomial_window(1, POLY, MAX_WINDOW_SIZE - 1)) == MAX_WINDOW_SIZE
    built = _count_built(monkeypatch)
    with pytest.raises(ValueError, match="the cap for circuit enumeration is 20$"):
        truncated_tropicalization([], 2, 5)  # C(7, 2) = 21
    assert len(built) == MAX_WINDOW_MONOMIALS + 1
    # and none when n or d alone reaches the cap
    _build_nothing(monkeypatch)
    with pytest.raises(ValueError, match="more than 10000 monomials"):
        monomial_window(1, POLY, MAX_WINDOW_SIZE)
    with pytest.raises(ValueError, match="the cap for circuit enumeration is 20$"):
        truncated_tropicalization([], MAX_WINDOW_MONOMIALS, 1)


def test_window_cap_counts_entries(monkeypatch):
    # a window holds n entries per monomial, and the cap of 10,000 counts entries:
    # 100 monomials of 99 entries and 3^6 of 6 are built
    assert len(monomial_window(99, POLY, 1)) == 100
    assert len(monomial_window(6, LAURENT, 1)) == 3**6
    assert len(monomial_window(26, POLY, 2)) == 378
    built = _count_built(monkeypatch)
    # over the cap: the monomials the window may hold and one more, at most cap + n entries
    for n, mode, degree in ((7, LAURENT, 1), (9, LAURENT, 1), (10, POLY, 7), (27, POLY, 2), (2, POLY, 100)):
        built.clear()
        most = MAX_WINDOW_SIZE // n
        message = f"more than {most} monomials; the cap on monomial windows is 10000 entries, {n} per monomial"
        with pytest.raises(ValueError, match=message):
            monomial_window(n, mode, degree)
        assert built == [n] * (most + 1), (n, mode, degree)
        assert sum(built) <= MAX_WINDOW_SIZE + n
    # none when n + 1 monomials of n entries pass the cap: n + 1 tuples of n entries
    # were built for n up to 9,999, which took seconds at n = 6,000
    _build_nothing(monkeypatch)
    for n, mode, degree in ((100, POLY, 1), (6000, POLY, 1), (9999, POLY, 1), (MAX_WINDOW_SIZE + 1, LAURENT, 0)):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"the cap on monomial windows is 10000 entries, {n} per monomial"):
            monomial_window(n, mode, degree)
        assert time.perf_counter() - start < 0.1


def test_window_is_built_in_time_with_its_size():
    # the window was the (d + 1)^n box filtered by degree: 7.9 s for these 153 monomials
    start = time.perf_counter()
    window = monomial_window(16, POLY, 2)
    assert time.perf_counter() - start < 1
    assert len(window) == 153 == ref_window_size(16, POLY, 2, 10**6)


# -- span membership by residuation ---------------------------------------------------


def test_span_examples():
    from tropica.tropical_linear import span_membership

    g1 = P("x + y", 3, POLY)
    g2 = P("x + z", 3, POLY)
    v = P("x + y + z", 3, POLY)
    assert span_membership(v, [g1, g2]) == [Fraction(0), Fraction(0)]
    assert span_membership(P("y + z", 3, POLY), [g1, g2]) is None
    lams = span_membership(g1, [g1, g2])
    assert lams is not None and lams[0] == Fraction(0)


def test_residuation_vs_grid_brute_force():
    # entries in {-2..2} u {bottom} make every principal solution land on the
    # {-4..4} grid, so brute force over that grid is a complete oracle
    from tropica.tropical_linear import span_membership

    rng = random.Random(3)
    w = monomial_window(5, POLY, 1)  # 6 coordinates; use first 5
    coords = w.monomials[:5]
    cases = 0
    while cases < 200:
        k = rng.randint(1, 3)
        gens = []
        for _ in range(k):
            entries = {
                c: Fraction(rng.randint(-2, 2))
                for c in coords
                if rng.random() < 0.7
            }
            gens.append(Polynomial(entries, 5, POLY))
        if rng.random() < 0.5:
            v_entries = {
                c: Fraction(rng.randint(-2, 2)) for c in coords if rng.random() < 0.7
            }
        else:  # bias toward actual combinations
            lams = [rng.choice(grid_scalars(-2, 2)) for _ in range(k)]
            v_entries = combine(lams, gens)
        v = Polynomial(v_entries, 5, POLY)
        cases += 1
        fast = span_membership(v, gens)
        slow = None
        for lams in itertools.product(grid_scalars(), repeat=k):
            if combine(lams, gens) == v.coeffs:
                slow = lams
                break
        assert (fast is None) == (slow is None)
        if fast is not None:
            assert combine(fast, gens) == v.coeffs


# -- elimination witness ------------------------------------------------------------------
#
# The valued search, with its tie-level candidates at a geometric point, is
# `ref_elimination_witness`, the oracle of the keys decider.  On circuits,
# which are monomial sets, `tropical_linear` decides each triple in closed
# form; the set search it replaced is `ref_set_witness`, its oracle.


def _point_oracle(point):
    prime = geometric_prime_of_point(point)
    return lambda h: bend_ideal_member(prime, h)


def test_elimination_low_term_example():
    # members of the bend ideal at the origin; eliminating x keeps y plus the
    # low data, with the tie dropped to the second level
    point = (Fraction(0), Fraction(0))
    f = P("x + y + -1", 2, POLY)
    g = P("x + y + -2", 2, POLY)
    oracle = _point_oracle(point)
    h = ref_elimination_witness(f, g, (1, 0), oracle, point)
    assert h is not None
    assert h.coefficient((1, 0)) is not None and is_bottom(h.coefficient((1, 0)))
    assert oracle(h)
    assert h.coeffs == {(0, 0): Fraction(-1), (0, 1): Fraction(-1)}


def test_elimination_counterexample_for_degree_prime():
    matrix = check_admissible([[0, 1, 1]], 2)
    oracle = lambda h: bend_ideal_member(matrix, h)
    f = P("x + y + x^-1", 2, LAURENT)
    g = P("x + y + x^-2", 2, LAURENT)
    assert oracle(f) and oracle(g)
    assert ref_elimination_witness(f, g, (1, 0), oracle) is None


def test_elimination_identical_inputs():
    point = (Fraction(0), Fraction(0))
    f = P("x + y + 0", 2, POLY)
    h = ref_elimination_witness(f, f, (1, 0), _point_oracle(point))
    # first candidate: delete x from f, which still vanishes at the origin
    assert h is not None and h.coeffs == {(0, 0): Fraction(0), (0, 1): Fraction(0)}


X, Y, ONE_MONO = (1, 0), (0, 1), (0, 0)


def test_circuit_witness_candidates_in_order():
    # f = {x, y, 1}, g = {x, y}: F = {1}, T = {y} at u = x; the candidates are
    # {1, y} (all ties kept), then {1}
    f, g = frozenset({X, Y, ONE_MONO}), frozenset({X, Y})
    asked = []

    def oracle(h):
        asked.append(h)
        return False

    assert ref_set_witness(f, g, X, oracle) is None
    assert asked == [frozenset({ONE_MONO, Y}), frozenset({ONE_MONO})]
    assert ref_set_witness(f, g, X, lambda h: len(h) == 1) == frozenset({ONE_MONO})
    # a circuit with itself: F is empty, so the last candidate is the empty
    # set (h = 0); ties go in window order, x before y^2 (lex order differs)
    c = frozenset({X, (0, 2), (1, 1)})
    asked.clear()
    assert ref_set_witness(c, c, (1, 1), oracle) is None
    assert asked == [frozenset({X, (0, 2)}), frozenset({(0, 2)}), frozenset({X}), frozenset()]


def test_circuit_witness_closed_form():
    # the witness is the union of the circuits inside (f | g) - {u}, when
    # that union holds F = f xor g
    window = monomial_window(2, POLY, 2)
    f, g = frozenset({X, Y, ONE_MONO}), frozenset({X, Y})
    assert CircuitSet(window, (f, g)).span(frozenset({ONE_MONO, Y})) == frozenset()
    assert elimination_witness(f, g, X, CircuitSet(window, (f, g)).span) is None
    one = frozenset({ONE_MONO})
    assert elimination_witness(f, g, X, CircuitSet(window, (f, g, one)).span) == one
    # with every monomial a circuit, all ties are kept, as the search's first candidate
    singles = tuple(frozenset({e}) for e in f)
    assert elimination_witness(f, g, X, CircuitSet(window, (f, g, *singles)).span) == f - {X}
    # a circuit with itself and no circuit inside the rest: h = 0
    c = frozenset({X, (0, 2), (1, 1)})
    assert elimination_witness(c, c, (1, 1), CircuitSet(window, (c,)).span) == frozenset()


def test_circuit_witness_tie_cap():
    # the set search keeps its cap; the closed form has none
    window = monomial_window(2, LAURENT, 2)
    edge = frozenset(window.monomials[:17])  # 16 ties with itself at any u
    big = frozenset(window.monomials[:18])  # 17
    u = window.monomials[0]
    assert ref_set_witness(edge, edge, u, lambda h: True) == edge - {u}
    with pytest.raises(ValueError, match="too many tie positions"):
        ref_set_witness(big, big, u, lambda h: True)
    singles = CircuitSet(window, tuple(frozenset({e}) for e in big))
    assert elimination_witness(big, big, u, singles.span) == big - {u}


def test_elimination_precondition():
    f = frozenset({X, Y})
    g = frozenset({Y, ONE_MONO})
    with pytest.raises(ValueError):
        elimination_witness(f, g, X, lambda h: True)
    with pytest.raises(ValueError):
        ref_elimination_witness(P("x + y", 2, POLY), P("y + 0", 2, POLY), X, lambda h: True)


# -- the axiom check ------------------------------------------------------------------------


def test_axiom_passes_for_geometric_primes():
    rng = random.Random(7)
    w = monomial_window(2, POLY, 2)
    for _ in range(6):
        point = random_point(rng, 2, -2, 2, 2)
        result = check_tropical_axiom(ref_point_members(rng, point, w, 10))
        assert result.passed, result.counterexample


def test_point_members_pinned():
    # the samples and RNG state of the geometric draw loop, which the tests build from
    rng = random.Random(0)
    point = (Fraction(1), Fraction(-1, 2))
    sample = ref_point_members(rng, point, monomial_window(2, POLY, 2), 4)
    assert [format_polynomial(v) for v in sample.samples] == [
        "-3/2*x*y + y^2", "-5*x^2 + -3", "-3/2*x + y", "3*y^2 + 1*x",
    ]
    assert rng.random() == 0.19459095568233187
    assert variety_of_prime(sample.prime) == point
    assert all(bend_ideal_member(sample.prime, v) for v in sample.samples)
    # x + c at the origin: few members, so draws repeat and only distinct ones count
    small = ref_point_members(random.Random(1), (Fraction(0),), monomial_window(1, POLY, 1), 12)
    assert len(set(small.samples)) == 12


def test_member_samplers_reject_float_points():
    # 0.1 was read as 3602879701896397/36028797018963968 and leaked into the samples
    with pytest.raises(ValueError):
        ref_random_member_polynomial(random.Random(0), (0.1,), POLY)
    with pytest.raises(ValueError):
        ref_point_members(random.Random(0), (0.1,), monomial_window(1, POLY, 2), 3)
    sample = ref_point_members(random.Random(0), ("1/10",), monomial_window(1, POLY, 2), 3)
    assert variety_of_prime(sample.prime) == (Fraction(1, 10),)


def test_prime_members_pinned():
    # as above for the CLI's matrix loop; a partner may overshoot the count
    rng = random.Random(0)
    matrix = check_admissible([[1, 1, -1]], 2)
    sample = prime_members(rng, matrix, monomial_window(2, POLY, 2), 4)
    assert [format_polynomial(v) for v in sample.samples] == [
        "x*y + 2*y^2 + 0", "-1*x*y + -1*y^2 + -2*x", "-1*x*y + -2*x + -1",
        "-2*y^2 + 2*y + 1", "-2*x + 2*y + 1",
    ]
    assert rng.random() == 0.07000430092833387
    assert classify_prime(sample.prime)[0] == GEOMETRIC and variety_of_prime(sample.prime) == (1, -1)
    assert all(bend_ideal_member(sample.prime, v) for v in sample.samples)
    degree_prime = check_admissible([[0, 1, 1]], 2)
    assert classify_prime(prime_members(rng, degree_prime, monomial_window(2, LAURENT, 1), 2).prime)[0] != GEOMETRIC


def test_axiom_fails_for_degree_prime():
    matrix = check_admissible([[0, 1, 1]], 2)
    f = P("x + y + x^-1", 2, LAURENT)
    g = P("x + y + x^-2", 2, LAURENT)
    result = check_tropical_axiom(MembershipSample((f, g), matrix))
    assert not result.passed
    cf, cg, cu = result.counterexample
    assert {cf, cg} <= {f, g}
    assert cf.coefficient(cu) == cg.coefficient(cu)


def test_axiom_passes_for_realized_circuits():
    circuits = truncated_tropicalization([{(1, 0): 1, (0, 1): -1}], 2, 2)
    result = check_tropical_axiom(circuits)
    assert result.passed


# -- tropicalization of rational ideals -------------------------------------------------------


def test_single_circuit_at_degree_one():
    circuits = truncated_tropicalization([{(1, 0): 1, (0, 1): -1}], 2, 1)
    assert circuits.circuits == (frozenset({(0, 1), (1, 0)}),)


def _realization_supports(degree):
    """Independent oracle: supports of (x - y) * q for q over a coefficient grid.

    For this principal ideal the support pattern of the product depends only
    on which sign region the q-coefficients fall in, and every region meets
    the grid, so the enumeration is exhaustive at this scale.
    """
    window = monomial_window(2, POLY, degree)
    q_monos = [m for m in window.monomials if sum(m) <= degree - 1]
    grid = [Fraction(v) for v in range(-2, 3)]
    supports = set()
    for values in itertools.product(grid, repeat=len(q_monos)):
        coeffs = {}
        for m, v in zip(q_monos, values):
            if v == 0:
                continue
            for shift, sign in (((1, 0), 1), ((0, 1), -1)):
                key = tuple(a + b for a, b in zip(m, shift))
                coeffs[key] = coeffs.get(key, Fraction(0)) + sign * v
        clean = frozenset(k for k, v in coeffs.items() if v != 0)
        if clean:
            supports.add(clean)
    minimal = {
        s for s in supports if not any(t < s for t in supports)
    }
    return minimal


def test_degree_two_circuits_match_realization_oracle():
    expected = _realization_supports(2)
    circuits = truncated_tropicalization([{(1, 0): 1, (0, 1): -1}], 2, 2)
    assert set(circuits.circuits) == expected
    assert set(map(tuple, map(sorted, expected))) == {
        ((0, 1), (1, 0)),
        ((1, 1), (2, 0)),
        ((0, 2), (1, 1)),
        ((0, 2), (2, 0)),
    }


def test_unit_ideal_flagged_trivial():
    circuits = truncated_tropicalization([{(0, 0): 1}], 2, 1)
    assert circuits.trivial
    assert all(len(s) == 1 for s in circuits.circuits)


def test_tropicalization_rejects_float_coefficients():
    with pytest.raises(ValueError):
        truncated_tropicalization([{(1, 0): 0.5, (0, 1): -1}], 2, 1)


def test_degree_cap_enforced():
    with pytest.raises(ValueError):
        truncated_tropicalization([{(1, 0): 1, (0, 1): -1}], 2, 5)
    with pytest.raises(ValueError):
        truncated_tropicalization([{(3, 0): 1}], 2, 2)


def test_realizable_non_primeness_verdicts():
    # the product (x+y+1)(x+y+xy) lies in the degree-3 slice of trop((x-y))
    # while neither factor does, so the tropicalized ideal is not prime
    circuits = truncated_tropicalization([{(1, 0): 1, (0, 1): -1}], 2, 3)
    product = P("x + y + 0", 2, POLY) * P("x + y + x*y", 2, POLY)
    assert circuits.member(product.collapse_coefficients())
    assert not circuits.member(P("x + y + 0", 2, POLY).collapse_coefficients())
    assert not circuits.member(P("x + y + x*y", 2, POLY).collapse_coefficients())


# -- membership equivalence at desk scale ------------------------------------------------------


def test_bend_ideal_matches_pointwise_vanishing_on_grid():
    # every degree-<=2 polynomial over the coefficient grid {-1,0,1,bottom}:
    # membership in the bend ideal of a geometric prime is exactly vanishing
    point = (Fraction(1, 2), Fraction(-1))
    matrix = geometric_prime_of_point(point)
    window = monomial_window(2, POLY, 2)
    grid = [BOTTOM, Fraction(-1), Fraction(0), Fraction(1)]
    checked = 0
    for values in itertools.product(grid, repeat=len(window)):
        f = Polynomial(
            {m: v for m, v in zip(window.monomials, values) if not is_bottom(v)}, 2, POLY
        )
        expected = True if f.is_zero() else f.vanishes_at(point)
        assert bend_ideal_member(matrix, f) == expected
        checked += 1
    assert checked == 4**6


def test_affine_real_stratum_matches_laurent_prevariety():
    # the R^n points of the affine extension are exactly the R^n prevariety
    for texts in (["x + y"], ["x + 1", "y + 2"], ["x + y + 0"]):
        poly_gens = [P(t, 2, POLY) for t in texts]
        affine = affine_prevariety(poly_gens)
        flat = prevariety(poly_gens)
        real_cells = {c.key() for c in affine.cells if c.stratum == ()}
        assert real_cells == {c.key() for c in flat.cells}
