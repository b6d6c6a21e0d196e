"""Max-plus scalar arithmetic over the rationals.

A tropical scalar is either a ``Fraction`` or the bottom element ``BOTTOM``
(minus infinity).  Addition is maximum, multiplication is rational addition;
``BOTTOM`` is the additive identity and absorbs products.  The multiplicative
unit is the rational 0.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from .matrices import to_fraction


class _Bottom:
    """Singleton for minus infinity."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "-inf"

    def __reduce__(self):
        return (_Bottom, ())


BOTTOM = _Bottom()
ONE = Fraction(0)

TropScalar = Union[Fraction, _Bottom]


def is_bottom(a: TropScalar) -> bool:
    return a is BOTTOM or isinstance(a, _Bottom)


def scalar(x) -> TropScalar:
    """Coerce a value to a tropical scalar: exactly "-inf" and BOTTOM are bottom.

    Any other value goes to ``to_fraction``, which rejects padded text, so
    " -inf" is an error as " 3" is.
    """
    if is_bottom(x) or (isinstance(x, str) and x == "-inf"):
        return BOTTOM
    return to_fraction(x)


def trop_add(a: TropScalar, b: TropScalar) -> TropScalar:
    if is_bottom(a):
        return b
    if is_bottom(b):
        return a
    return max(a, b)


def trop_mul(a: TropScalar, b: TropScalar) -> TropScalar:
    if is_bottom(a) or is_bottom(b):
        return BOTTOM
    return a + b


def trop_sum(values) -> TropScalar:
    out: TropScalar = BOTTOM
    for v in values:
        out = trop_add(out, v)
    return out


def trop_inv(a: TropScalar) -> Fraction:
    if is_bottom(a):
        raise ZeroDivisionError("bottom has no multiplicative inverse")
    return -a


def scalar_str(a: TropScalar) -> str:
    return "-inf" if is_bottom(a) else str(a)
