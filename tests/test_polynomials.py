"""Formal polynomial arithmetic, bend relations, pairs and twisted products."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropica.matrices import to_fraction
from tropica.polynomials import (
    LAURENT,
    POLY,
    Pair,
    Polynomial,
    scalar_pair_mul,
    twisted_mul,
    twisted_pow,
    unit_pair,
)
from tropica.sampling import random_point, random_polynomial
from tropica.scalars import is_bottom, trop_add, trop_mul

from oracles.parsing import P


# -- equality and hashing ------------------------------------------------------


def test_equal_polynomials_hash_equal_however_built():
    # Polynomial(...) reads its input; + and the parser build by Polynomial._of
    built = [
        Polynomial({(1, 0): 2, (0, 0): Fraction(1, 2)}, 2),
        Polynomial({(1, 0): 2}, 2) + Polynomial({(0, 0): "1/2"}, 2),
        P("2*x + 1/2", 2),
        P("1/2 + 2*x + 0*x", 2),
    ]
    assert len(set(built)) == 1 and len({hash(f) for f in built}) == 1
    table = {f: i for i, f in enumerate(built)}
    assert len(table) == 1 and all(table[f] == 3 for f in built)
    other = [Polynomial({(1, 0): 2, (0, 0): Fraction(1, 2)}, 2, POLY), P("2*x + 1", 2)]
    assert not any(f in table for f in other)


# -- arithmetic ---------------------------------------------------------------


def test_product_identity_two_vars():
    # (x+y+1)(x+y+xy) = (x+y)(x+y+xy+1) with unit coefficients
    lhs = P("x + y + 0") * P("x + y + x*y")
    rhs = P("x + y", 2) * P("x + y + x*y + 0")
    assert lhs == rhs
    expected = P("x^2 + x*y + x^2*y + y^2 + x*y^2 + x + y")
    assert lhs == expected


def test_three_term_product_identity():
    a, b, c = (Polynomial.variable(i, 3) for i in range(3))
    lhs = (a + b + c) * (a * b + b * c + a * c)
    rhs = (a + b) * (a + c) * (b + c)
    assert lhs == rhs


def test_additive_identity():
    f = P("3*x^2*y + 0*x + -1")
    assert f + Polynomial.zero(2) == f


def test_add_merges_same_monomial_by_max():
    f = P("1*x", 1) + P("3*x", 1)
    assert f == P("3*x", 1)


def test_mul_dimension_mismatch():
    with pytest.raises(ValueError):
        P("x", 1) * P("x", 2)


def test_poly_mode_rejects_negative_exponents():
    with pytest.raises(ValueError):
        Polynomial({(-1,): 0}, 1, POLY)


def test_rejects_non_integral_exponents():
    # 1.5 used to be truncated to 1
    with pytest.raises(ValueError):
        Polynomial({(1.5,): 0}, 1)
    with pytest.raises(ValueError):
        Polynomial({(Fraction(1, 2), 0): 0}, 2)
    assert Polynomial({(Fraction(2),): 0}, 1).support() == ((2,),)


@pytest.mark.parametrize("text", [" -inf\n", "-inf ", "\t-inf", " 3"])
def test_padded_coefficient_text_is_rejected(text):
    # only the exact text "-inf" is bottom; padded it is no rational literal either
    with pytest.raises(ValueError, match="expected an integer or a 'p/q' string"):
        Polynomial({(1,): text, (0,): 2}, 1)
    with pytest.raises(ValueError, match="expected an integer or a 'p/q' string"):
        P("x + 2", 1).scale(text)
    assert Polynomial({(1,): "-inf", (0,): 2}, 1) == P("2", 1)
    assert P("x + 2", 1).scale("-inf") == Polynomial.zero(1)


def test_fraction_coefficients_are_kept():
    # to_fraction returns a Fraction as it is instead of copying it per coefficient
    c = Fraction(1, 3)
    assert to_fraction(c) is c
    assert Polynomial({(1,): c}, 1).coefficient((1,)) is c


# -- deletion and bends -------------------------------------------------------


def test_delete_term():
    f = P("x + y + 0")
    assert f.delete_term((1, 0)) == P("y + 0")


def test_delete_only_term_gives_zero():
    assert P("x", 1).delete_term((1,)) == Polynomial.zero(1)


def test_delete_keeps_other_coefficients():
    f = P("0*x + -1*y^2")
    assert f.delete_term((0, 2)) == P("0*x", 2)


def test_delete_missing_term_raises():
    with pytest.raises(KeyError):
        P("x + y").delete_term((5, 5))


def test_bend_pairs_three_terms():
    f = P("x + y + 0")
    pairs = set(f.bend_pairs())
    assert pairs == {
        Pair(f, P("y + 0", 2)),
        Pair(f, P("x + 0", 2)),
        Pair(f, P("x + y", 2)),
    }


def test_bend_pairs_binomial():
    f = P("x + y")
    assert set(f.bend_pairs()) == {Pair(f, P("y", 2)), Pair(f, P("x", 2))}


def test_bend_pairs_monomial():
    f = P("x", 1)
    assert f.bend_pairs() == (Pair(f, Polynomial.zero(1)),)


def test_bend_pairs_zero_empty():
    assert Polynomial.zero(2).bend_pairs() == ()


# -- evaluation ---------------------------------------------------------------


def test_evaluate_examples():
    assert P("x + y + 0").evaluate((1, 2)) == Fraction(2)
    assert is_bottom(Polynomial.zero(2).evaluate((1, 2)))
    assert P("3*x^2*y^-1").evaluate((1, 1)) == Fraction(4)


def test_vanishes_examples():
    assert P("x + y + 0").vanishes_at((0, 0))
    assert not P("x + y + 0").vanishes_at((1, 2))
    # oracle: evaluate both terms of x + 1 directly
    for point, expected in [((1,), True), ((0,), False)]:
        f = P("x + 1", 1)
        term_values = {expo: c + expo[0] * point[0] for expo, c in f.terms()}
        top = max(term_values.values())
        ties = sum(1 for v in term_values.values() if v == top)
        assert (ties >= 2) == expected
        assert f.vanishes_at(point) == expected


def test_monomials_and_zero_never_vanish():
    assert not P("3*x", 1).vanishes_at((0,))
    assert not Polynomial.zero(1).vanishes_at((0,))


def test_vanishing_invariant_under_coefficient_shift():
    rng = random.Random(5)
    for _ in range(100):
        f = random_polynomial(rng, 2, LAURENT, max_terms=4)
        p = random_point(rng, 2)
        shift = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        g = f.scale(shift)
        assert f.vanishes_at(p) == g.vanishes_at(p)


def test_evaluate_is_a_morphism():
    rng = random.Random(17)
    for _ in range(100):
        f = random_polynomial(rng, 2)
        g = random_polynomial(rng, 2)
        p = random_point(rng, 2)
        assert (f + g).evaluate(p) == trop_add(f.evaluate(p), g.evaluate(p))
        assert (f * g).evaluate(p) == trop_mul(f.evaluate(p), g.evaluate(p))


# -- coefficient collapse -------------------------------------------------------


def test_collapse_coefficients():
    assert P("3*x + -1*y + 5").collapse_coefficients() == P("x + y + 0")
    assert Polynomial.zero(3).collapse_coefficients() == Polynomial.zero(3)


def test_collapse_after_idempotent_merge():
    f = P("1*x", 1) + P("1*x", 1)
    assert f.collapse_coefficients() == P("x", 1)


# -- pairs and twisted products -------------------------------------------------


def test_twisted_product_of_order_pairs_is_diagonal():
    a, b = Polynomial.variable(0, 2), Polynomial.variable(1, 2)
    result = twisted_mul(Pair(a + b, a), Pair(a + b, b))
    expected = a * a + a * b + b * b
    assert result == Pair(expected, expected)
    assert result.is_diagonal()


def test_twisted_identity():
    rng = random.Random(2)
    for _ in range(20):
        alpha = Pair(random_polynomial(rng, 2), random_polynomial(rng, 2))
        assert twisted_mul(alpha, unit_pair(2)) == alpha


def test_scalar_pair_product():
    rng = random.Random(3)
    beta = Pair(random_polynomial(rng, 2), random_polynomial(rng, 2))
    a = Fraction(5, 2)
    as_pair = Pair(Polynomial.constant(a, 2), Polynomial.zero(2))
    assert scalar_pair_mul(a, beta) == twisted_mul(as_pair, beta)


def test_twisted_associative():
    rng = random.Random(9)
    for _ in range(50):
        a, b, c = (
            Pair(random_polynomial(rng, 2, max_terms=3), random_polynomial(rng, 2, max_terms=3))
            for _ in range(3)
        )
        assert twisted_mul(twisted_mul(a, b), c) == twisted_mul(a, twisted_mul(b, c))


def test_twisted_pow_zero_is_unit():
    alpha = Pair(P("x + y"), P("x", 2))
    assert twisted_pow(alpha, 0) == unit_pair(2)
    assert twisted_pow(alpha, 2) == twisted_mul(alpha, alpha)


def test_diagonal_absorption():
    rng = random.Random(13)
    for _ in range(50):
        d = random_polynomial(rng, 2)
        beta = Pair(random_polynomial(rng, 2), random_polynomial(rng, 2))
        assert twisted_mul(Pair(d, d), beta).is_diagonal()


def test_pair_requires_matching_ambient():
    with pytest.raises(ValueError):
        Pair(P("x", 1), P("x", 2))


# -- symbolic identity with random coefficients ---------------------------------


def test_three_term_identity_with_random_coefficients():
    rng = random.Random(23)
    n = 3
    for _ in range(200):
        coeffs = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(3)]
        a, b, c = (
            Polynomial.term(coeffs[i], tuple(int(j == i) for j in range(n)), n)
            for i in range(3)
        )
        lhs = (a + b + c) * (a * b + b * c + a * c)
        rhs = (a + b) * (a + c) * (b + c)
        assert lhs == rhs


# -- hypothesis: formal semiring laws -------------------------------------------

coeff_strategy = st.fractions(max_denominator=8)
expo_strategy = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
poly_strategy = st.dictionaries(expo_strategy, coeff_strategy, max_size=4).map(
    lambda d: Polynomial(d, 2)
)


@settings(max_examples=60)
@given(poly_strategy, poly_strategy, poly_strategy)
def test_poly_semiring_laws(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f + f == f
