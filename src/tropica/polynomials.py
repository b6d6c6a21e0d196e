"""Formal tropical (Laurent) polynomials, pairs and bend relations.

A polynomial is a finite map from integer exponent vectors to non-bottom
rational coefficients.  Two polynomials are equal exactly when their
coefficient maps are equal; no functional identification is performed.
Values are immutable after construction.

Input is validated once, at the public boundary: ``Polynomial(...)`` reads
its exponents with ``to_exponents`` and its coefficients with ``scalar``.
A polynomial the library builds from terms it already holds (a sum,
product, scaling, deleted term, collapse or stratum restriction, and the
parser's output) goes through ``Polynomial._of``, which takes the terms as
they are.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from .matrices import to_fraction, to_int
from .scalars import BOTTOM, ONE, TropScalar, is_bottom, scalar

LAURENT = "laurent"
POLY = "poly"

Exponents = tuple[int, ...]


def _check_mode(mode: str) -> str:
    if mode not in (LAURENT, POLY):
        raise ValueError(f"unknown mode {mode!r}")
    return mode


def to_exponents(expo, n: int, mode: str) -> Exponents:
    """``expo`` as a tuple of n integers (``to_int``), none negative in poly mode."""
    key = tuple(expo)
    if not {int}.issuperset(map(type, key)):  # type(True) is bool, not int
        key = tuple(to_int(e, "an exponent") for e in key)
    if len(key) != n:
        raise ValueError(f"exponent vector {key} has length {len(key)}, expected {n}")
    if mode == POLY and key and min(key) < 0:
        raise ValueError(f"negative exponent {key} not allowed in poly mode")
    return key


class Polynomial:
    """Immutable formal max-plus polynomial in ``n`` variables.

    ``Polynomial(coeffs, n, mode)`` reads public input: exponents by
    ``to_exponents``, coefficients by ``scalar`` (bottom terms dropped).
    """

    __slots__ = ("n", "mode", "_coeffs", "_items")

    def __init__(self, coeffs: Mapping[Exponents, object], n: int, mode: str = LAURENT):
        n = n if type(n) is int else to_int(n, "variable count")
        _check_mode(mode)
        if n < 0:
            raise ValueError("variable count must be non-negative")
        clean: dict[Exponents, Fraction] = {}
        for expo, c in coeffs.items():
            value = scalar(c)
            if not is_bottom(value):
                # distinct keys of one mapping read as distinct integer tuples
                clean[to_exponents(expo, n, mode)] = value
        self._set(clean, n, mode)

    @classmethod
    def _of(cls, clean: dict[Exponents, Fraction], n: int, mode: str) -> "Polynomial":
        """The polynomial of terms that need no reading: ``clean`` is kept, not copied.

        ``clean`` maps distinct tuples of n ints (none negative in poly mode)
        to ``Fraction``s, none of them bottom; n and ``mode`` are valid.
        """
        self = object.__new__(cls)
        self._set(clean, n, mode)
        return self

    def _set(self, clean: dict[Exponents, Fraction], n: int, mode: str) -> None:
        self.n = n
        self.mode = mode
        self._coeffs = clean
        # display order: graded-lex from the top, ``window_order`` reversed
        self._items = tuple(sorted(clean.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True))

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n: int, mode: str = LAURENT) -> "Polynomial":
        return cls({}, n, mode)

    @classmethod
    def one(cls, n: int, mode: str = LAURENT) -> "Polynomial":
        return cls({(0,) * n: ONE}, n, mode)

    @classmethod
    def constant(cls, c, n: int, mode: str = LAURENT) -> "Polynomial":
        return cls({(0,) * n: c}, n, mode)

    @classmethod
    def term(cls, c, expo: Iterable[int], n: int, mode: str = LAURENT) -> "Polynomial":
        return cls({tuple(expo): c}, n, mode)

    @classmethod
    def variable(cls, i: int, n: int, mode: str = LAURENT) -> "Polynomial":
        expo = [0] * n
        expo[i] = 1
        return cls({tuple(expo): ONE}, n, mode)

    # -- basic queries ------------------------------------------------------

    @property
    def coeffs(self) -> dict[Exponents, Fraction]:
        return dict(self._coeffs)

    def terms(self) -> tuple[tuple[Exponents, Fraction], ...]:
        return self._items

    def support(self) -> tuple[Exponents, ...]:
        return tuple(expo for expo, _ in self._items)

    def coefficient(self, expo: Exponents) -> TropScalar:
        return self._coeffs.get(tuple(expo), BOTTOM)

    def is_zero(self) -> bool:
        return not self._coeffs

    def is_monomial(self) -> bool:
        return len(self._coeffs) == 1

    def degree(self) -> int:
        """Max total degree; -1 for the zero polynomial (poly-mode windows)."""
        if not self._coeffs:
            return -1
        return max(sum(e) for e in self._coeffs)

    def __len__(self) -> int:
        return len(self._coeffs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.n == other.n
            and self.mode == other.mode
            and self._coeffs == other._coeffs
        )

    def __hash__(self) -> int:
        return hash((self.n, self.mode, self._items))

    def _require_compatible(self, other: "Polynomial") -> None:
        if not isinstance(other, Polynomial):
            raise TypeError(f"expected Polynomial, got {type(other).__name__}")
        if self.n != other.n or self.mode != other.mode:
            raise ValueError(
                f"dimension/mode mismatch: ({self.n},{self.mode}) vs ({other.n},{other.mode})"
            )

    # -- semiring operations -------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._require_compatible(other)
        out = dict(self._coeffs)
        for expo, c in other._coeffs.items():
            out[expo] = max(out.get(expo, c), c)
        return Polynomial._of(out, self.n, self.mode)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._require_compatible(other)
        out: dict[Exponents, Fraction] = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                expo = tuple(a + b for a, b in zip(e1, e2))
                c = c1 + c2
                out[expo] = max(out.get(expo, c), c)
        return Polynomial._of(out, self.n, self.mode)

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative powers of polynomials are not defined")
        result = Polynomial.one(self.n, self.mode)
        for _ in range(k):
            result = result * self
        return result

    def scale(self, c) -> "Polynomial":
        """Multiply every coefficient by the scalar c."""
        value = scalar(c)
        if is_bottom(value):
            return Polynomial.zero(self.n, self.mode)
        return Polynomial._of({e: v + value for e, v in self._coeffs.items()}, self.n, self.mode)

    # -- bend machinery -------------------------------------------------------

    def delete_term(self, expo: Exponents) -> "Polynomial":
        key = tuple(expo)
        if key not in self._coeffs:
            raise KeyError(f"monomial {key} is not in the support")
        out = dict(self._coeffs)
        del out[key]
        return Polynomial._of(out, self.n, self.mode)

    def bend_pairs(self) -> tuple["Pair", ...]:
        """One pair (f, f with the i-th term deleted) per support element."""
        return tuple(Pair(self, self.delete_term(expo)) for expo in self.support())

    # -- evaluation ------------------------------------------------------------

    def _values(self, point) -> list[Fraction]:
        """Each term's value at ``point``, whose coordinates are read exactly."""
        pt = tuple(to_fraction(x) for x in point)
        if len(pt) != self.n:
            raise ValueError(f"point has length {len(pt)}, expected {self.n}")
        return [c + sum((e * x for e, x in zip(expo, pt)), Fraction(0)) for expo, c in self._items]

    def evaluate(self, point) -> TropScalar:
        return max(self._values(point), default=BOTTOM)

    def vanishes_at(self, point) -> bool:
        """True when at least two terms attain the maximum at the point.

        Monomials never vanish, and by convention neither does the zero
        polynomial.
        """
        return self.value_and_vanishing(point)[1]

    def value_and_vanishing(self, point) -> tuple[TropScalar, bool]:
        """``evaluate`` and ``vanishes_at`` at ``point``, from one computation of the term values."""
        values = self._values(point)
        top = max(values, default=BOTTOM)
        return top, values.count(top) >= 2

    def collapse_coefficients(self) -> "Polynomial":
        """Send every coefficient to the unit (image in the Boolean subsemifield)."""
        return Polynomial._of(dict.fromkeys(self._coeffs, ONE), self.n, self.mode)

    def restrict_to_stratum(self, dead_vars) -> "Polynomial":
        """Substitute bottom for the given variables and drop their coordinates.

        Terms with a positive exponent on a dead variable are killed; the
        survivors are re-indexed over the remaining variables in increasing
        order.  Poly mode only (Laurent terms never survive a bottom).
        """
        if self.mode != POLY:
            raise ValueError("stratum restriction requires poly mode")
        dead = frozenset(dead_vars)
        alive = [i for i in range(self.n) if i not in dead]
        out: dict[Exponents, Fraction] = {}
        for expo, c in self._coeffs.items():
            if any(expo[i] > 0 for i in dead):
                continue
            key = tuple(expo[i] for i in alive)
            out[key] = max(out.get(key, c), c)
        return Polynomial._of(out, len(alive), POLY)

    def __repr__(self) -> str:
        from .parsing import format_polynomial

        return f"Polynomial({format_polynomial(self)!r}, n={self.n}, mode={self.mode!r})"


class Pair:
    """Ordered pair of polynomials; the arena for congruence relations."""

    __slots__ = ("left", "right")

    def __init__(self, left: Polynomial, right: Polynomial):
        left._require_compatible(right)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def __setattr__(self, name, value):
        raise AttributeError("Pair is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, Pair) and self.left == other.left and self.right == other.right

    def __hash__(self) -> int:
        return hash((self.left, self.right))

    def __iter__(self):
        yield self.left
        yield self.right

    def swap(self) -> "Pair":
        return Pair(self.right, self.left)

    def is_diagonal(self) -> bool:
        return self.left == self.right

    def add(self, other: "Pair") -> "Pair":
        """Component-wise formal sum."""
        return Pair(self.left + other.left, self.right + other.right)

    def mul(self, other: "Pair") -> "Pair":
        """Component-wise product (the congruence multiplication axiom)."""
        return Pair(self.left * other.left, self.right * other.right)

    def twisted(self, other: "Pair") -> "Pair":
        """Twisted product (a1 b1 + a2 b2, a1 b2 + a2 b1)."""
        a1, a2 = self.left, self.right
        b1, b2 = other.left, other.right
        return Pair(a1 * b1 + a2 * b2, a1 * b2 + a2 * b1)

    def __repr__(self) -> str:
        return f"Pair({self.left!r}, {self.right!r})"


def unit_pair(n: int, mode: str = LAURENT) -> Pair:
    """The twisted-product identity (1, 0)."""
    return Pair(Polynomial.one(n, mode), Polynomial.zero(n, mode))


def twisted_mul(a: Pair, b: Pair) -> Pair:
    return a.twisted(b)


def twisted_pow(a: Pair, k: int) -> Pair:
    if k < 0:
        raise ValueError("negative twisted powers are not defined")
    result = unit_pair(a.left.n, a.left.mode)
    for _ in range(k):
        result = result.twisted(a)
    return result


def scalar_pair_mul(c, a: Pair) -> Pair:
    """Product of a scalar with a pair, c(a1, a2) = (c a1, c a2)."""
    return Pair(a.left.scale(c), a.right.scale(c))
