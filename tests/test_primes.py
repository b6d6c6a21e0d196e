"""Admissible matrices: ordering, membership, classification, varieties."""

import random
from fractions import Fraction
from math import lcm
from operator import mul

import pytest

from tropica.matrices import int_rank
from tropica.polynomials import LAURENT, POLY, Pair, Polynomial, twisted_mul
from tropica.primes import (
    EQUAL,
    GREATER,
    LESS,
    AdmissibilityError,
    admissibility_violations,
    bend_ideal_member,
    check_admissible,
    classify_prime,
    compare_terms,
    geometric_prime_of_point,
    leading_class,
    pair_in_prime,
    variety_of_prime,
)
from tropica.sampling import (
    random_admissible,
    random_fraction,
    random_nonzero_polynomial,
    random_point,
    random_polynomial,
)

from oracles.matrices import dot, ref_nullspace
from oracles.parsing import P


def random_term(rng, n, max_deg=3):
    expo = tuple(rng.randint(-max_deg, max_deg) for _ in range(n))
    return (random_fraction(rng), expo)


# -- admissibility -------------------------------------------------------------


def test_single_row_valid():
    m = check_admissible([[1, 2]], 1)
    assert m.rank == 1


def test_dependent_rows_rejected():
    assert admissibility_violations([[1, 0], [2, 0]], 1) == ["rows are linearly dependent"]
    with pytest.raises(AdmissibilityError):
        check_admissible([[1, 0], [2, 0]], 1)


def test_admissibility_error_lists_violations():
    with pytest.raises(AdmissibilityError) as caught:
        check_admissible([[-1, 0], [-2, 0]], 1)
    assert caught.value.violations == [
        "rows are linearly dependent",
        "first non-zero entry of column 0 must be positive",
    ]
    assert str(caught.value) == "rows are linearly dependent; first non-zero entry of column 0 must be positive"
    with pytest.raises(AdmissibilityError) as caught:
        check_admissible([[1, 2, 3]], 1)
    message = "every row must have 2 entries (coefficient column plus 1 exponent columns)"
    assert caught.value.violations == [message]
    assert str(caught.value) == message


def test_admissibility_violations_rejects_floats():
    # 0.1 is not 1/10: the float row was reported independent of [1, 10]
    with pytest.raises(ValueError):
        admissibility_violations([[0.1, 1], [1, 10]], 1)
    assert admissibility_violations([["1/10", 1], [1, 10]], 1) == ["rows are linearly dependent"]


def test_negative_leading_column_rejected():
    assert "first non-zero entry of column 0 must be positive" in admissibility_violations(
        [[-1, 3]], 1
    )


def test_wrong_column_count_rejected():
    with pytest.raises(AdmissibilityError):
        check_admissible([[1, 2, 3]], 1)


def test_too_many_rows_rejected():
    bad = [[1, 0], [0, 1], [1, 1]]
    assert any("at most" in v for v in admissibility_violations(bad, 1))


# -- term comparison -------------------------------------------------------------


def test_compare_by_evaluation_oracle():
    # U = [[1, 2]] orders terms by their value at the point 2
    m = check_admissible([[1, 2]], 1)
    t1 = (Fraction(3), (1,))
    t2 = (Fraction(0), (2,))
    assert Fraction(3) + 2 * 1 == 5 and Fraction(0) + 2 * 2 == 4
    assert compare_terms(m, t1, t2) == GREATER


def test_compare_degree_order_ties():
    m = check_admissible([[0, 1, 1]], 2)
    assert compare_terms(m, (Fraction(0), (1, 0)), (Fraction(0), (0, 1))) == EQUAL


def test_compare_lexicographic_refinement():
    m = check_admissible([[1, 0], [0, 1]], 1)
    assert compare_terms(m, (Fraction(0), (1,)), (Fraction(1), (0,))) == LESS


def test_compare_rejects_bottom():
    m = check_admissible([[1, 2]], 1)
    from tropica.scalars import BOTTOM

    with pytest.raises(ValueError):
        compare_terms(m, (BOTTOM, (1,)), (Fraction(0), (0,)))


@pytest.mark.parametrize(
    "t1, t2",
    [((0.5, (1,)), (0, (1.25,))), ((0.5, (1,)), (0, (1,))), ((0, (1,)), (0, (1.25,)))],
)
def test_compare_rejects_floats(t1, t2):
    # floats used to be wrapped in Fraction() and compared
    with pytest.raises(ValueError):
        compare_terms(check_admissible([[1, 1]], 1), t1, t2)


def test_compare_reads_exponents_as_integers():
    # exponents are read by to_exponents, as everywhere else: a rational one is refused
    m = check_admissible([[1, 1]], 1)
    with pytest.raises(ValueError, match="an exponent must be an integer"):
        compare_terms(m, (0, ("1/2",)), (0, (0,)))
    with pytest.raises(ValueError, match="an exponent must be an integer"):
        compare_terms(m, (0, (0,)), (0, (Fraction(1, 2),)))
    # integral Fractions are integers, and compare as the ints do
    t1, t2 = (Fraction(1, 2), (Fraction(2),)), (Fraction(3), (Fraction(-1),))
    assert compare_terms(m, t1, t2) == compare_terms(m, (Fraction(1, 2), (2,)), (3, (-1,))) == GREATER
    assert compare_terms(m, (0, (Fraction(1),)), (1, (0,))) == EQUAL


def test_total_order_trichotomy_and_transitivity():
    rng = random.Random(31)
    for _ in range(200):
        n = rng.randint(1, 3)
        m = random_admissible(rng, n, rng.randint(1, n + 1))
        t1, t2, t3 = (random_term(rng, n) for _ in range(3))
        r12 = compare_terms(m, t1, t2)
        r21 = compare_terms(m, t2, t1)
        assert (r12, r21) in {(LESS, GREATER), (GREATER, LESS), (EQUAL, EQUAL)}
        if compare_terms(m, t1, t2) == LESS and compare_terms(m, t2, t3) == LESS:
            assert compare_terms(m, t1, t3) == LESS


def test_term_level_cancellativity():
    rng = random.Random(37)
    for _ in range(200):
        n = rng.randint(1, 3)
        m = random_admissible(rng, n, rng.randint(1, n + 1))
        t1, t2, s = (random_term(rng, n) for _ in range(3))
        scaled = lambda t: (t[0] + s[0], tuple(a + b for a, b in zip(t[1], s[1])))
        assert compare_terms(m, scaled(t1), scaled(t2)) == compare_terms(m, t1, t2)


# -- leading classes ---------------------------------------------------------------


def test_leading_class_examples():
    f = P("x + y + 0")
    assert set(leading_class(check_admissible([[1, 0, 0]], 2), f)) == {(1, 0), (0, 1), (0, 0)}
    assert leading_class(check_admissible([[1, 1, 2]], 2), f) == ((0, 1),)
    g = P("x + y + x^-1")
    assert set(leading_class(check_admissible([[0, 1, 1]], 2), g)) == {(1, 0), (0, 1)}


def test_leading_class_zero_rejected():
    with pytest.raises(ValueError):
        leading_class(check_admissible([[1, 0]], 1), Polynomial.zero(1))


# -- congruence membership -----------------------------------------------------------


def test_pair_in_prime_examples():
    origin = check_admissible([[1, 0, 0]], 2)
    assert pair_in_prime(origin, P("x + y"), P("x", 2))
    assert not pair_in_prime(origin, P("x + 1", 2), P("x", 2))


def test_pair_in_prime_reflexive():
    rng = random.Random(41)
    for _ in range(50):
        n = rng.randint(1, 3)
        m = random_admissible(rng, n, rng.randint(1, n + 1))
        f = random_polynomial(rng, n)
        assert pair_in_prime(m, f, f)


def test_zero_only_congruent_to_zero():
    m = check_admissible([[1, 0]], 1)
    assert pair_in_prime(m, Polynomial.zero(1), Polynomial.zero(1))
    assert not pair_in_prime(m, P("x", 1), Polynomial.zero(1))


def test_member_examples():
    origin = check_admissible([[1, 0, 0]], 2)
    assert bend_ideal_member(origin, P("x + y"))
    assert not bend_ideal_member(origin, P("x + 1", 2))
    assert bend_ideal_member(check_admissible([[0, 1, 1]], 2), P("x + y"))


def test_member_iff_all_bends_in_prime():
    rng = random.Random(43)
    for _ in range(500):
        n = rng.randint(1, 3)
        m = random_admissible(rng, n, rng.randint(1, n + 1))
        f = random_polynomial(rng, n, max_terms=4)
        expected = all(pair_in_prime(m, p.left, p.right) for p in f.bend_pairs())
        if f.is_zero():
            expected = True
        assert bend_ideal_member(m, f) == expected


def test_full_rank_member_always_false():
    rng = random.Random(47)
    for _ in range(100):
        n = rng.randint(1, 3)
        m = random_admissible(rng, n, n + 1)
        f = random_nonzero_polynomial(rng, n)
        assert not bend_ideal_member(m, f)


def _sixth(rng):
    """6 times a draw of ``random_fraction(rng)``: the same RNG calls, on integers."""
    return 6 * rng.randint(-4, 4) // rng.randint(1, 3)


def _int_admissible(rng, n, nrows):
    """The rows of ``random_admissible(rng, n, nrows)`` times 6, from the same RNG calls."""
    while True:
        rows = [[_sixth(rng) for _ in range(n + 1)] for _ in range(nrows)]
        pivot = next((i for i, row in enumerate(rows) if row[0]), None)
        if pivot is not None and rows[pivot][0] < 0:
            rows[pivot] = [-x for x in rows[pivot]]
        if int_rank(rows) == nrows:
            return rows


def _int_polynomial(rng, n):
    """The terms of ``random_polynomial(rng, n)``, coefficients times 6, from the same RNG calls.

    The coefficient is drawn before the exponents: an assignment evaluates
    its value before its subscript.
    """
    terms = {}
    for _ in range(rng.randint(1, 4)):
        coeff = _sixth(rng)
        terms[tuple(rng.randint(-3, 3) for _ in range(n))] = coeff
    return terms


def _int_member(rows, terms):
    """``bend_ideal_member`` on the integer keys rows @ (6 c, 6 e): a top key attained twice."""
    keys = [tuple(row[0] * c + 6 * sum(map(mul, row[1:], e)) for row in rows) for e, c in terms.items()]
    return len(keys) > 1 and keys.count(max(keys)) > 1


def test_member_set_is_an_ideal():
    # draws on integers; a Polynomial and a matrix are built only for a hit
    rng = random.Random(53)
    hits = draws = 0
    while hits < 100:
        draws += 1
        n = rng.randint(1, 2)
        rows = _int_admissible(rng, n, rng.randint(1, n))
        f = _int_polynomial(rng, n)
        g = _int_polynomial(rng, n)
        if not (_int_member(rows, f) and _int_member(rows, g)):
            continue
        hits += 1
        m = check_admissible([[Fraction(x, 6) for x in row] for row in rows], n)
        f, g = (Polynomial({e: Fraction(c, 6) for e, c in t.items()}, n) for t in (f, g))
        assert bend_ideal_member(m, f) and bend_ideal_member(m, g)
        assert bend_ideal_member(m, f + g)
        h = random_polynomial(rng, n)
        assert bend_ideal_member(m, f * h)
    # the draws of the former loop on random_admissible and random_polynomial
    assert (draws, hits) == (168_724, 100)


def test_member_set_is_prime():
    # whenever f*g is a member, one factor is
    rng = random.Random(59)
    hits = 0
    while hits < 200:
        n = rng.randint(1, 2)
        m = random_admissible(rng, n, rng.randint(1, n + 1))
        f = random_nonzero_polynomial(rng, n, max_terms=3)
        g = random_nonzero_polynomial(rng, n, max_terms=3)
        if not bend_ideal_member(m, f * g):
            continue
        hits += 1
        assert bend_ideal_member(m, f) or bend_ideal_member(m, g)


def test_prime_law_on_twisted_products():
    rng = random.Random(61)
    hits = 0
    while hits < 200:
        n = rng.randint(1, 2)
        m = random_admissible(rng, n, rng.randint(1, n + 1))
        if rng.random() < 0.5:
            a = random_nonzero_polynomial(rng, n, max_terms=2)
            b = random_nonzero_polynomial(rng, n, max_terms=2)
            alpha, beta = Pair(a + b, a), Pair(a + b, b)
        else:
            alpha = Pair(random_polynomial(rng, n), random_polynomial(rng, n))
            beta = Pair(random_polynomial(rng, n), random_polynomial(rng, n))
        product = twisted_mul(alpha, beta)
        if not pair_in_prime(m, product.left, product.right):
            continue
        hits += 1
        assert pair_in_prime(m, alpha.left, alpha.right) or pair_in_prime(
            m, beta.left, beta.right
        )


# -- classification and varieties ------------------------------------------------------


def test_classify_examples():
    assert classify_prime(check_admissible([[1, 5, -2]], 2)) == ("geometric", 1)
    assert classify_prime(check_admissible([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 2)) == (
        "minimal",
        3,
    )
    assert classify_prime(check_admissible([[1, 0, 0], [0, 1, 0]], 2)) == ("other", 2)


def test_variety_reads_first_row():
    m = check_admissible([[1, 1, 2]], 2)
    assert variety_of_prime(m) == (Fraction(1), Fraction(2))
    scaled = check_admissible([[2, 2, 4]], 2)
    assert variety_of_prime(scaled) == (Fraction(1), Fraction(2))


def test_variety_empty_without_geometric_prime_above():
    assert variety_of_prime(check_admissible([[0, 1, 1]], 2)) is None


def test_variety_of_refined_prime_by_containment_oracle():
    # U = [[1,0],[0,1]] : the claimed point 0 must satisfy every congruence
    # pair, and every point 1/k or -1/k must fail on an explicit witness.
    m = check_admissible([[1, 0], [0, 1]], 1)
    assert variety_of_prime(m) == (Fraction(0),)
    rng = random.Random(67)
    checked = 0
    while checked < 200:
        f = random_polynomial(rng, 1)
        g = random_polynomial(rng, 1)
        if not pair_in_prime(m, f, g):
            continue
        checked += 1
        assert f.evaluate((0,)) == g.evaluate((0,))
    for k in range(1, 26):
        for a in (Fraction(1, k), Fraction(-1, k)):
            if a > 0:
                c = a / 2
                f, g = P("x", 1) + Polynomial.constant(c, 1), Polynomial.constant(c, 1)
            else:
                c = a / 2
                f = Polynomial.one(1) + Polynomial.term(c, (-1,), 1)
                g = Polynomial.one(1)
            assert pair_in_prime(m, f, g)
            assert f.evaluate((a,)) != g.evaluate((a,))


def test_at_most_one_point():
    rng = random.Random(71)
    for _ in range(300):
        n = rng.randint(1, 3)
        m = random_admissible(rng, n, rng.randint(1, n + 1))
        point = variety_of_prime(m)
        assert point is None or len(point) == n


def _refuting_pair(w, x, mode):
    """A pair that holds at w and fails at x != w, read off one coordinate where they differ.

    With d = |x_i - w_i| / 2: for x_i > w_i the pair (x_i + (w_i + d), w_i + d),
    whose first side is the constant at w and x_i at x; for x_i < w_i the pair
    (x_i + (w_i - d), x_i), whose first side is x_i at w and w_i - d at x.
    """
    n = len(w)
    i = next(j for j in range(n) if x[j] != w[j])
    d = abs(x[i] - w[i]) / 2
    variable = Polynomial.variable(i, n, mode)
    if x[i] > w[i]:
        level = Polynomial.constant(w[i] + d, n, mode)
        return variable + level, level
    return variable + Polynomial.constant(w[i] - d, n, mode), variable


def test_first_result_every_other_point_is_refuted():
    # the paper's first result: the variety of a prime is its point w or empty.
    # Every x != w is refuted by a pair the prime accepts; with column 0 of
    # row 0 zero, row 0 is (0, a), b = sign(a_i) e_i has a.b > 0, and the prime
    # accepts (x^b + c, x^b) for every c, a pair that fails at x once c > b.x
    rng = random.Random(16)
    refuted = {"positive": 0, "zero": 0}
    for trial in range(400):
        n = rng.randint(1, 4)
        first = ("positive", "zero")[trial % 2]
        mode = LAURENT if first == "zero" else rng.choice((LAURENT, POLY))
        m = random_admissible(rng, n, rng.randint(1, n + 1), first)
        w = variety_of_prime(m)
        assert (w is None) == (first == "zero")
        for _ in range(3):
            if w is not None:
                x = tuple(wj + random_fraction(rng) if rng.random() < 0.5 else wj for wj in w)
                if x == w:
                    continue
                f, g = _refuting_pair(w, x, mode)
                assert f.evaluate(w) == g.evaluate(w)
                fails = True
            else:
                x = random_point(rng, n)
                i = next(j for j, a in enumerate(m.rows[0][1:]) if a)
                b = tuple((1 if m.rows[0][1 + i] > 0 else -1) * (j == i) for j in range(n))
                c = dot(b, x) + random_fraction(rng)
                g = Polynomial.term(0, b, n, mode)
                f = g + Polynomial.constant(c, n, mode)
                fails = c > dot(b, x)
            assert pair_in_prime(m, f, g), (m.rows, x)
            assert (f.evaluate(x) != g.evaluate(x)) == fails, (m.rows, x)
            refuted[first] += fails
    assert min(refuted.values()) >= 200, refuted


def _below_and_above(row0, x):
    """v with row0 . v < 0 < (1, x) . v, when (1, x) is not a positive multiple of row0.

    v = (1, x) - mu row0.  With p = row0 . (1, x) <= 0, mu = 1 will do; with
    p > 0, strict Cauchy-Schwarz gives p / |row0|^2 < |(1, x)|^2 / p, and mu
    is their midpoint.
    """
    point = (Fraction(1), *x)
    p = dot(row0, point)
    mu = Fraction(1) if p <= 0 else (p / dot(row0, row0) + dot(point, point) / p) / 2
    return [a - mu * b for a, b in zip(point, row0)]


def test_first_result_for_prime_ideals_every_other_point_is_refuted():
    """The paper's first result for the bend ideals of prime congruences.

    The abstract: the variety of a non-zero prime ideal of the tropical
    (Laurent) polynomial semiring holds at most one point.  The prime ideals
    checked here are the bend ideals I_P = {f : every bend relation of f
    lies in P} of prime congruences P (``bend_ideal_member``), at points of
    R^n.  I_P is a prime ideal: if neither f nor g is in I_P, each has one
    top term under P, and as P orders terms compatibly with products and
    cancellatively, the product of the two tops beats every other product,
    so fg has one top term too.  Whether every non-zero prime ideal of the
    paper is a bend ideal is not checked here.

    For x != w = ``variety_of_prime(P)``, or any x when the (1,1) entry is
    0, f = s + t + u is in I_P and does not vanish at x.  s - t lies in
    ker U with a non-zero exponent part, so s and t tie in P.  u - t is a
    positive multiple of ``_below_and_above(row 0, x)``: row 0 . (u - t) < 0
    puts u below that tie, so f's top class is {s, t}, and u(x) > max(s(x),
    t(x)), so f's maximum at x is attained once.  (1, x) is not a positive
    multiple of row 0: with a zero (1,1) entry it cannot be one, and with a
    non-zero one it would make x = w.  In poly mode one monomial shifts the
    three exponents into N^n, which changes no comparison in P and no gap
    at x.

    A prime whose kernel holds no vector with a non-zero exponent part (column
    0 zero and rank n, at r <= n rows) ties no two distinct monomials, so its
    bend ideal is the zero ideal, which the result leaves out; such primes
    are counted and skipped.
    """
    rng = random.Random(20)
    refuted = {"positive": 0, "zero": 0}
    zero_ideals = 0
    for trial in range(3000):
        n = rng.randint(1, 4)
        first = ("positive", "zero")[trial % 2]
        mode = rng.choice((LAURENT, POLY))
        m = random_admissible(rng, n, rng.randint(1, n), first)
        w = variety_of_prime(m)
        kernel = [v for v in ref_nullspace(m.rows, n + 1) if any(v[1:])]
        if not kernel:
            assert first == "zero" and all(row[0] == 0 for row in m.rows) and m.rank == n
            zero_ideals += 1
            continue
        if w is not None and rng.random() < 0.5:  # along the exponent part of row 1 (row 0 at rank 1)
            x = tuple(wj + random_fraction(rng) * a for wj, a in zip(w, m.rows[min(1, m.rank - 1)][1:]))
        else:
            x = random_point(rng, n)
        if x == w:
            continue
        scale = lcm(*(e.denominator for e in kernel[0][1:]))
        s_coeff, *s_expo = (scale * e for e in kernel[0])  # t is the term 0 at exponent 0
        v = _below_and_above(m.rows[0], x)
        v = [lcm(*(e.denominator for e in v[1:])) * e for e in v]
        k = max(Fraction(0), s_coeff + dot(s_expo, x)) // dot((1, *x), v) + 1
        if [k * e for e in v[1:]] == s_expo:  # u and s would share a monomial
            k += 1
        u_coeff, *u_expo = (k * e for e in v)
        shift = [max(0, -a, -b) if mode == POLY else 0 for a, b in zip(s_expo, u_expo)]
        terms = {(0,) * n: 0, tuple(s_expo): s_coeff, tuple(u_expo): u_coeff}
        f = Polynomial({tuple(map(int, map(sum, zip(e, shift)))): c for e, c in terms.items()}, n, mode)
        assert len(f) == 3, (m.rows, x)
        assert bend_ideal_member(m, f), (m.rows, x)
        assert not f.vanishes_at(x), (m.rows, x)
        refuted[first] += 1
    assert min(refuted.values()) >= 1000 and zero_ideals >= 100, (refuted, zero_ideals)


def test_geometric_round_trip():
    rng = random.Random(73)
    for _ in range(100):
        p = random_point(rng, rng.randint(1, 4))
        m = geometric_prime_of_point(p)
        assert classify_prime(m)[0] == "geometric"
        assert variety_of_prime(m) == tuple(Fraction(x) for x in p)


def test_geometric_prime_matrix_shape():
    assert geometric_prime_of_point((0, 0)).rows == ((Fraction(1), Fraction(0), Fraction(0)),)
    assert geometric_prime_of_point((1, 2)).rows == ((Fraction(1), Fraction(1), Fraction(2)),)
