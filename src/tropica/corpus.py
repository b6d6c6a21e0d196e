"""Construction of the shipped derivation-trace corpus.

Each function builds one checkable derivation for a worked example; the
repository ships their JSON serializations under traces/.  All goals are
pairs that genuinely lie in the congruence generated by the bend relations
of the listed generators, including goals that are *not* in the ideal the
generators span (the gap between ideals and congruences).
"""

from __future__ import annotations

from .parsing import parse_polynomial
from .polynomials import LAURENT, Polynomial
from .traces import ADD, GEN, MUL, REFL, SYM, TRANS, DerivationTrace, build_trace


def _p(text: str, n: int) -> Polynomial:
    return parse_polynomial(text, LAURENT, n)


def monomial_bridge_trace() -> DerivationTrace:
    """(x, x*y) from {x + 0, x*y + 0}: transitivity through the shared unit."""
    n = 2
    moves = (
        (GEN, 0, (1, 0)), (GEN, 0, (0, 0)), (SYM, 1), (TRANS, 2, 0),  # (x, 0)
        (GEN, 1, (1, 1)), (GEN, 1, (0, 0)), (SYM, 4), (TRANS, 6, 5),  # (0, x*y)
        (TRANS, 3, 7),  # (x, x*y)
    )
    return build_trace((_p("x + 0", n), _p("x*y + 0", n)), moves)


def _variable_chain(*moves) -> DerivationTrace:
    """``moves`` after the shared prefix deriving (y, z) from {x + y, x + z}."""
    n = 3
    prefix = (
        (GEN, 0, (0, 1, 0)), (GEN, 0, (1, 0, 0)), (GEN, 1, (0, 0, 1)), (GEN, 1, (1, 0, 0)),
        (SYM, 1), (TRANS, 4, 0),  # (y, x)
        (SYM, 2), (TRANS, 6, 3),  # (x, z)
        (TRANS, 5, 7),  # (y, z)
    )
    return build_trace((_p("x + y", n), _p("x + z", n)), prefix + moves)


def sum_bend_right_trace() -> DerivationTrace:
    """(y + z, z) from {x + y, x + z}: one of the two bends of y + z."""
    return _variable_chain((REFL, _p("z", 3)), (ADD, 8, 9))


def sum_bend_left_trace() -> DerivationTrace:
    """(y + z, y) from {x + y, x + z}: the other bend of y + z."""
    return _variable_chain((SYM, 8), (REFL, _p("y", 3)), (ADD, 10, 9))


def variable_identification_trace() -> DerivationTrace:
    """(x, y) from {x + y, x + y^2}."""
    n = 2
    moves = ((GEN, 0, (0, 1)), (GEN, 0, (1, 0)), (SYM, 0), (TRANS, 2, 1))
    return build_trace((_p("x + y", n), _p("x + y^2", n)), moves)


def unit_identification_trace() -> DerivationTrace:
    """(y, 0) from {x + y, x + y^2}: divides (y, y^2) by the invertible y."""
    n = 2
    moves = (
        (GEN, 0, (0, 1)), (GEN, 0, (1, 0)), (SYM, 1), (TRANS, 2, 0),  # (y, x)
        (GEN, 1, (0, 2)), (GEN, 1, (1, 0)), (SYM, 4), (TRANS, 6, 5),  # (x, y^2)
        (TRANS, 3, 7),  # (y, y^2)
        (REFL, _p("y^-1", n)), (MUL, 8, 9), (SYM, 10),  # (y, 0)
    )
    return build_trace((_p("x + y", n), _p("x + y^2", n)), moves)


def factor_swap_trace() -> DerivationTrace:
    """((0+x+x^2)*y, (0+x+x^2)*z) from six generators that cycle z against
    the terms of (0+x+x^2)*y and vice versa."""
    n = 3
    gens = (
        _p("y + x*y + x^2*y + z", n),
        _p("y + x*y + x^2*y + x*z", n),
        _p("y + x*y + x^2*y + x^2*z", n),
        _p("z + x*z + x^2*z + y", n),
        _p("z + x*z + x^2*z + x*y", n),
        _p("z + x*z + x^2*z + x^2*y", n),
    )
    # a = (0+x+x^2)*y and b = (0+x+x^2)*z
    moves = (
        (GEN, 0, (0, 0, 1)), (GEN, 1, (1, 0, 1)), (GEN, 2, (2, 0, 1)),
        (ADD, 0, 1), (ADD, 3, 2),  # (a + b, a)
        (GEN, 3, (0, 1, 0)), (GEN, 4, (1, 1, 0)), (GEN, 5, (2, 1, 0)),
        (ADD, 5, 6), (ADD, 8, 7),  # (a + b, b)
        (SYM, 4), (TRANS, 10, 9),  # (a, b)
    )
    return build_trace(gens, moves)


SHIPPED_TRACES = {
    "monomial_bridge": monomial_bridge_trace,
    "sum_bend_left": sum_bend_left_trace,
    "sum_bend_right": sum_bend_right_trace,
    "variable_identification": variable_identification_trace,
    "unit_identification": unit_identification_trace,
    "factor_swap": factor_swap_trace,
}
