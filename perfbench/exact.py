"""Exact arithmetic the benchmark owns, used to make inputs and to check answers.

Nothing here imports tropica: the checks must not trust the code under test.
A polynomial is a dict from exponent tuples to Fractions (coefficients), and
a matrix is a list of rows of Fractions.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

VARS = "xyzw"


def frac(rng, lo=-4, hi=4, max_den=3) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def monomials(n: int, degree: int) -> list[tuple[int, ...]]:
    """Exponent vectors of total degree <= degree, in a fixed order."""
    return [e for e in itertools.product(range(degree + 1), repeat=n) if sum(e) <= degree]


def random_poly(rng, n: int, terms: int, degree: int) -> dict:
    """Rational coefficients with denominators <= 3 on a random support."""
    return {e: frac(rng) for e in rng.sample(monomials(n, degree), terms)}


def dot(a, b) -> Fraction:
    return sum((Fraction(x) * Fraction(y) for x, y in zip(a, b)), Fraction(0))


def values_at(coeffs: dict, point) -> list[Fraction]:
    return [c + dot(e, point) for e, c in coeffs.items()]


def max_at(coeffs: dict, point) -> Fraction:
    return max(values_at(coeffs, point))


def vanishes(coeffs: dict, point) -> bool:
    """The maximum is attained at least twice (never for < 2 terms)."""
    vals = sorted(values_at(coeffs, point), reverse=True)
    return len(vals) >= 2 and vals[0] == vals[1]


def tie_at(rng, coeffs: dict, point) -> dict:
    """Copy of coeffs where a second term ties the maximum at point.

    The point is integral, so the adjusted coefficient keeps a denominator
    of at most 3.
    """
    out = dict(coeffs)
    top = max(out, key=lambda e: out[e] + dot(e, point))
    value = out[top] + dot(top, point)
    other = rng.choice([e for e in sorted(out) if e != top])
    out[other] = value - dot(other, point)
    return out


def restrict(coeffs: dict, dead) -> dict:
    """Set the dead variables to bottom and drop their coordinates."""
    out: dict = {}
    for e, c in coeffs.items():
        if any(e[i] > 0 for i in dead):
            continue
        key = tuple(x for i, x in enumerate(e) if i not in dead)
        out[key] = max(out.get(key, c), c)
    return out


def poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (e1, c1), (e2, c2) in itertools.product(a.items(), b.items()):
        e = tuple(x + y for x, y in zip(e1, e2))
        out[e] = max(out.get(e, c1 + c2), c1 + c2)
    return out


# -- text in the README grammar ---------------------------------------------


def fmt_monomial(e) -> str:
    """Letter variables, as the README grammar names them for n <= 4."""
    return "*".join(VARS[i] if k == 1 else f"{VARS[i]}^{k}" for i, k in enumerate(e) if k)


def fmt_term(e, c) -> str:
    mono = fmt_monomial(e)
    return f"{c}*{mono}" if mono else str(c)


def fmt_poly(coeffs: dict) -> str:
    return " + ".join(fmt_term(e, c) for e, c in sorted(coeffs.items()))


def fmt_matrix(rows) -> str:
    return "[" + ",".join("[" + ",".join(f'"{x}"' for x in r) + "]" for r in rows) + "]"


# -- linear algebra -----------------------------------------------------------


def echelon(rows) -> list[list[Fraction]]:
    """Reduced row echelon form without zero rows."""
    mat = [[Fraction(x) for x in r] for r in rows]
    out: list[list[Fraction]] = []
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        pivot = next((r for r in mat if r[col] != 0), None)
        if pivot is None:
            continue
        mat.remove(pivot)
        pivot = [x / pivot[col] for x in pivot]
        mat = [[a - r[col] * b for a, b in zip(r, pivot)] for r in mat]
        out = [[a - r[col] * b for a, b in zip(r, pivot)] for r in out]
        out.append(pivot)
    return out


def rank(rows) -> int:
    return len(echelon(rows))


def nullspace(rows, ncols: int) -> list[list[Fraction]]:
    ech = echelon(rows)
    pivots = [next(i for i, x in enumerate(r) if x != 0) for r in ech]
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for r, p in zip(ech, pivots):
            vec[p] = -r[free]
        basis.append(vec)
    return basis


def violations(rows, n: int) -> bool:
    """True when the rows fail one of the README's admissibility conditions."""
    if not rows or len(rows) > n + 1 or rank(rows) != len(rows):
        return True
    first = next((r[0] for r in rows if r[0] != 0), None)
    return first is not None and first < 0


# -- term orders of a prime ---------------------------------------------------


def key(rows, c, e) -> tuple:
    """U @ (c, u): terms compare lexicographically by this vector."""
    vec = (Fraction(c),) + tuple(Fraction(x) for x in e)
    return tuple(dot(r, vec) for r in rows)


def compare(rows, t1, t2) -> str:
    k1, k2 = key(rows, *t1), key(rows, *t2)
    return "greater" if k1 > k2 else "less" if k1 < k2 else "equal"


def leading(rows, coeffs: dict) -> list:
    keys = {e: key(rows, c, e) for e, c in coeffs.items()}
    top = max(keys.values())
    return sorted(e for e, k in keys.items() if k == top)


def member(rows, coeffs: dict) -> bool:
    if not coeffs:
        return True
    return len(coeffs) >= 2 and len(leading(rows, coeffs)) >= 2


def kind(rows, n: int) -> str:
    if len(rows) == 1 and rows[0][0] != 0:
        return "geometric"
    return "minimal" if len(rows) == n + 1 else "other"


def random_rows(rng, n: int, r: int) -> list[list[Fraction]]:
    """Independent rows with a positive first non-zero entry in column 0."""
    while True:
        rows = [[frac(rng) for _ in range(n + 1)] for _ in range(r)]
        if rank(rows) != r:
            continue
        pivot = next((i for i, row in enumerate(rows) if row[0] != 0), None)
        if pivot is not None and rows[pivot][0] < 0:
            rows[pivot] = [-x for x in rows[pivot]]
        return rows


def tie_direction(rows, n: int):
    """(dc, du) with U @ (dc, du) = 0 and du a non-zero integer vector, or None."""
    for vec in nullspace(rows, n + 1):
        if any(vec[1:]):
            scale = 1
            for x in vec[1:]:
                scale = scale * x.denominator // math.gcd(scale, x.denominator)
            return vec[0] * scale, tuple(int(x * scale) for x in vec[1:])
    return None


def member_poly(rng, rows, n: int, terms: int, degree: int = 3) -> dict:
    """Polynomial whose leading class has two terms, so it is a member.

    When the prime ties no two distinct monomials, no such polynomial
    exists, and a random one is returned.
    """
    direction = tie_direction(rows, n)
    if direction is None:
        return laurent_poly(rng, n, terms, degree)
    base = tuple(rng.randint(-degree, degree) for _ in range(n))
    c = frac(rng)
    dc, du = direction
    coeffs = {base: c, tuple(b - d for b, d in zip(base, du)): c - dc}
    top = key(rows, c, base)
    for _ in range(8 * terms):
        if len(coeffs) >= terms:
            break
        e = tuple(rng.randint(-degree, degree) for _ in range(n))
        c2 = frac(rng)
        if e not in coeffs and key(rows, c2, e) < top:
            coeffs[e] = c2
    return coeffs


def laurent_poly(rng, n: int, terms: int, degree: int = 3) -> dict:
    coeffs: dict = {}
    terms = min(terms, (2 * degree + 1) ** n)
    while len(coeffs) < terms:
        coeffs[tuple(rng.randint(-degree, degree) for _ in range(n))] = frac(rng)
    return coeffs
