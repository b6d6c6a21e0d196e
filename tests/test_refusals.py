"""Library refusals that no other test reaches: each call, its exception type and its message."""

import pytest

from tropica.polynomials import POLY, Pair, Polynomial, twisted_pow
from tropica.primes import bend_ideal_member, check_admissible, compare_terms, leading_class, pair_in_prime
from tropica.rendering import render_svg
from tropica.sampling import random_admissible
from tropica.scalars import BOTTOM, trop_inv
from tropica.traces import pair_recovery_trace
from tropica.tropical_linear import check_tropical_axiom, span_membership
from tropica.varieties import hypersurface

from oracles.parsing import P

PRIME = check_admissible([[1, 0, 0]], 2)
THREE = P("x + y + z")
X, Y = P("x", 2), P("y", 2)

REFUSALS = {
    "bend_ideal_member": (
        lambda: bend_ideal_member(PRIME, THREE), ValueError, "polynomial has 3 variables, expected 2"
    ),
    "leading_class": (lambda: leading_class(PRIME, THREE), ValueError, "polynomial has 3 variables, expected 2"),
    "pair_in_prime": (
        lambda: pair_in_prime(PRIME, THREE, THREE), ValueError, "polynomial has 3 variables, expected 2"
    ),
    "compare_terms": (
        lambda: compare_terms(PRIME, (0, (1,)), (0, (0, 0))), ValueError, "exponent vector has length 1, expected 2"
    ),
    "Polynomial": (lambda: Polynomial({}, -1), ValueError, "variable count must be non-negative"),
    "restrict_to_stratum": (
        lambda: X.restrict_to_stratum([0]), ValueError, "stratum restriction requires poly mode"
    ),
    "twisted_pow": (lambda: twisted_pow(Pair(X, Y), -1), ValueError, "negative twisted powers are not defined"),
    "trop_inv": (lambda: trop_inv(BOTTOM), ZeroDivisionError, "bottom has no multiplicative inverse"),
    "render_svg": (
        lambda: render_svg(hypersurface(P("x + y + 0")), (1, -5, 1, 5)),
        ValueError,
        "bounding box must have positive extent",
    ),
    "span_membership": (
        lambda: span_membership(X, [P("x", 2, POLY)]),
        ValueError,
        "all vectors must have the same variable count and mode",
    ),
    "check_tropical_axiom": (
        lambda: check_tropical_axiom(object()), TypeError, "description must be a CircuitSet or MembershipSample"
    ),
    "pair_recovery_trace terms": (
        lambda: pair_recovery_trace(X + Y, X, X, Y), ValueError, "the recovery schema expects single terms"
    ),
    "pair_recovery_trace mode": (
        lambda: pair_recovery_trace(P("x", 2, POLY), P("y", 2, POLY), P("x", 2, POLY), P("y", 2, POLY)),
        ValueError,
        "the recovery schema requires Laurent mode",
    ),
    "pair_recovery_trace exponents": (
        lambda: pair_recovery_trace(X, Y, X, P("1*x", 2)),
        ValueError,
        "witness terms must have distinct exponent vectors",
    ),
    # refused before a draw: object() has no randint, and without the guard the draws never end
    "random_admissible": (lambda: random_admissible(object(), 2, 4), ValueError, "row count out of range"),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_library_refusal(name):
    call, kind, message = REFUSALS[name]
    with pytest.raises(Exception) as caught:
        call()
    assert (type(caught.value), str(caught.value)) == (kind, message)
