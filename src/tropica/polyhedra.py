"""Exact rational polyhedra: feasibility, dimension, interior points, projection.

Everything is decided by Fourier-Motzkin elimination with equality pivoting
and pairwise redundancy pruning; no LP solver and no floating point.  Strict
inequalities are supported internally so that implicit equalities and
relative interior points are exact.  Desk scale: a handful of dimensions and
a few dozen constraints.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .matrices import nullspace, rank, to_fraction

LE, EQ, LT = "le", "eq", "lt"

Constraint = tuple[tuple[Fraction, ...], Fraction, str]


@dataclass(frozen=True)
class HalfSpace:
    normal: tuple[Fraction, ...]
    rhs: Fraction
    relation: str = LE

    def __post_init__(self):
        if self.relation not in (LE, EQ):
            raise ValueError(f"relation must be {LE!r} or {EQ!r}")


@dataclass(frozen=True)
class Polyhedron:
    constraints: tuple[HalfSpace, ...]
    n: int


def make_polyhedron(rows, n: int) -> Polyhedron:
    """rows: iterables (normal, rhs, relation); coerces entries to Fraction."""
    cons = []
    for normal, rhs, rel in rows:
        cons.append(HalfSpace(tuple(to_fraction(x) for x in normal), to_fraction(rhs), rel))
    return Polyhedron(tuple(cons), n)


def full_space(n: int) -> Polyhedron:
    return Polyhedron((), n)


def _as_constraints(poly: Polyhedron) -> list[Constraint]:
    return [(h.normal, h.rhs, h.relation) for h in poly.constraints]


def _normalize(cons: list[Constraint]) -> list[Constraint] | None:
    """Scale, drop trivial rows, dedupe; None when a constant row is violated."""
    best: dict[tuple, tuple[Fraction, str]] = {}
    eqs: dict[tuple, Fraction] = {}
    for coeffs, rhs, rel in cons:
        pivot = next((c for c in coeffs if c != 0), None)
        if pivot is None:
            if rel == EQ and rhs != 0:
                return None
            if rel == LE and rhs < 0:
                return None
            if rel == LT and rhs <= 0:
                return None
            continue
        if rel == EQ:
            scale = Fraction(1) / abs(pivot) * (1 if pivot > 0 else -1)
            key = tuple(c * scale for c in coeffs)
            value = rhs * scale
            if key in eqs and eqs[key] != value:
                return None
            eqs[key] = value
            continue
        # only positive scaling keeps the inequality direction
        scale = Fraction(1) / abs(pivot)
        key = tuple(c * scale for c in coeffs)
        value = rhs * scale
        if key in best:
            old_rhs, old_rel = best[key]
            if value < old_rhs or (value == old_rhs and rel == LT):
                best[key] = (value, rel)
        else:
            best[key] = (value, rel)
    out: list[Constraint] = [(k, v, EQ) for k, v in sorted(eqs.items())]
    out.extend((k, v, r) for k, (v, r) in sorted(best.items()))
    return out


def _eliminate_last(cons: list[Constraint], n: int) -> list[Constraint] | None:
    """Project onto the first n-1 coordinates; None when infeasibility is evident."""
    j = n - 1
    kept: list[Constraint] = []
    eq_pivot: Constraint | None = None
    with_var: list[Constraint] = []
    for coeffs, rhs, rel in cons:
        if coeffs[j] == 0:
            kept.append((coeffs[:j], rhs, rel))
        elif rel == EQ and eq_pivot is None:
            eq_pivot = (coeffs, rhs, rel)
        else:
            with_var.append((coeffs, rhs, rel))
    if eq_pivot is not None:
        pc, pb, _ = eq_pivot
        for coeffs, rhs, rel in with_var:
            factor = coeffs[j] / pc[j]
            new_coeffs = tuple(a - factor * p for a, p in zip(coeffs[:j], pc[:j]))
            kept.append((new_coeffs, rhs - factor * pb, rel))
        return _normalize(kept)
    lowers = [(c, b, r) for c, b, r in with_var if c[j] < 0]
    uppers = [(c, b, r) for c, b, r in with_var if c[j] > 0]
    for lc, lb, lr in lowers:
        for uc, ub, ur in uppers:
            lo_w, up_w = uc[j], -lc[j]
            coeffs = tuple(lo_w * a + up_w * b for a, b in zip(lc[:j], uc[:j]))
            rhs = lo_w * lb + up_w * ub
            rel = LT if LT in (lr, ur) else LE
            kept.append((coeffs, rhs, rel))
    return _normalize(kept)


def _value(coeffs, point) -> Fraction:
    return sum((a * x for a, x in zip(coeffs, point)), Fraction(0))


def _feasible_point(cons: list[Constraint], n: int) -> tuple[Fraction, ...] | None:
    cons = _normalize(cons)
    if cons is None:
        return None
    if n == 0:
        return ()
    reduced = _eliminate_last(cons, n)
    if reduced is None:
        return None
    base = _feasible_point(reduced, n - 1)
    if base is None:
        return None
    j = n - 1
    forced: Fraction | None = None
    lower: tuple[Fraction, bool] | None = None  # (bound, strict)
    upper: tuple[Fraction, bool] | None = None
    for coeffs, rhs, rel in cons:
        cj = coeffs[j]
        if cj == 0:
            continue
        bound = (rhs - _value(coeffs[:j], base)) / cj
        if rel == EQ:
            forced = bound if forced is None else forced
            if forced != bound:
                return None
        elif cj > 0:
            strict = rel == LT
            if upper is None or bound < upper[0] or (bound == upper[0] and strict):
                upper = (bound, strict)
        else:
            strict = rel == LT
            if lower is None or bound > lower[0] or (bound == lower[0] and strict):
                lower = (bound, strict)
    if forced is not None:
        value = forced
    elif lower is None and upper is None:
        value = Fraction(0)
    elif lower is None:
        value = upper[0] - 1
    elif upper is None:
        value = lower[0] + 1
    elif lower[0] < upper[0]:
        value = (lower[0] + upper[0]) / 2
    else:
        # elimination guarantees lower == upper with both bounds non-strict
        value = lower[0]
    return base + (value,)


def is_empty(poly: Polyhedron) -> bool:
    return _feasible_point(_as_constraints(poly), poly.n) is None


def contains_point(poly: Polyhedron, point) -> bool:
    pt = tuple(to_fraction(x) for x in point)
    for h in poly.constraints:
        value = _value(h.normal, pt)
        if h.relation == EQ and value != h.rhs:
            return False
        if h.relation == LE and value > h.rhs:
            return False
    return True


def implicit_equality_indices(poly: Polyhedron) -> list[int]:
    """Indices of LE constraints that hold with equality on the whole set.

    An implicit equality is tight at every feasible point, so only the LE
    constraints tight at one feasible point are probed: such a constraint is
    implicit when making it strict leaves no feasible point.  On the empty
    set every LE index is returned.
    """
    cons = _as_constraints(poly)
    candidates = [i for i, (_, _, rel) in enumerate(cons) if rel == LE]
    point = _feasible_point(cons, poly.n)
    if point is None:
        return candidates
    out = []
    for i in candidates:
        coeffs, rhs, _ = cons[i]
        if _value(coeffs, point) != rhs:
            continue
        probe = list(cons)
        probe[i] = (coeffs, rhs, LT)
        if _feasible_point(probe, poly.n) is None:
            out.append(i)
    return out


def _equality_normals(poly: Polyhedron) -> list[tuple[Fraction, ...]]:
    normals = [h.normal for h in poly.constraints if h.relation == EQ]
    implicit = set(implicit_equality_indices(poly))
    normals.extend(h.normal for i, h in enumerate(poly.constraints) if i in implicit)
    return normals


def dimension(poly: Polyhedron) -> int:
    """Dimension of the affine hull; -1 for the empty set."""
    if is_empty(poly):
        return -1
    return poly.n - rank(_equality_normals(poly))


def affine_hull_directions(poly: Polyhedron) -> list[tuple[Fraction, ...]]:
    """Rational basis of the direction space of the affine hull."""
    normals = _equality_normals(poly)
    if not normals:
        return [tuple(Fraction(int(i == k)) for i in range(poly.n)) for k in range(poly.n)]
    return nullspace(normals, poly.n)


def relative_interior_point(poly: Polyhedron) -> tuple[Fraction, ...]:
    """A rational point satisfying every non-implied inequality strictly."""
    implicit = set(implicit_equality_indices(poly))
    probe = [
        (coeffs, rhs, EQ if rel == EQ or i in implicit else LT)
        for i, (coeffs, rhs, rel) in enumerate(_as_constraints(poly))
    ]
    point = _feasible_point(probe, poly.n)
    if point is None:
        raise ValueError("polyhedron is empty")
    return point


def intersect(p: Polyhedron, q: Polyhedron) -> Polyhedron:
    if p.n != q.n:
        raise ValueError(f"ambient dimension mismatch: {p.n} vs {q.n}")
    return Polyhedron(p.constraints + q.constraints, p.n)


def fm_eliminate(poly: Polyhedron, index: int) -> Polyhedron:
    """Exact projection dropping the given coordinate (ambient shrinks by one).

    A point lies in the output exactly when it lifts to the input.
    """
    if not 0 <= index < poly.n:
        raise ValueError(f"coordinate index {index} out of range for n={poly.n}")
    # move the coordinate to the end, then eliminate it
    order = [i for i in range(poly.n) if i != index] + [index]
    cons: list[Constraint] = []
    for h in poly.constraints:
        cons.append((tuple(h.normal[i] for i in order), h.rhs, h.relation))
    reduced = _eliminate_last(cons, poly.n)
    if reduced is None:
        # projection of an (evidently) empty set: encode a constant contradiction
        zero = tuple([Fraction(0)] * (poly.n - 1))
        return Polyhedron((HalfSpace(zero, Fraction(-1), LE),), poly.n - 1)
    out = []
    for coeffs, rhs, rel in reduced:
        out.append(HalfSpace(coeffs, rhs, LE if rel == LT else rel))
    return Polyhedron(tuple(out), poly.n - 1)

