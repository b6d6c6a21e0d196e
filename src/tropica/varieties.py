"""Tropical hypersurfaces and prevarieties as exact polyhedral complexes.

A complex stores the maximal candidate cells of the tie-and-dominate
enumeration.  A candidate intersects one non-empty tie cell per generator
(two of its terms agree and dominate all others), so a hypersurface is the
prevariety of one generator.  No face lattice is computed; dimension and
coverage queries only need maximal cells.

Maximality and cell dimension come from argmax signatures, not from
polyhedral probing: the set of terms of each generator that attain the
maximum at a cell's relative interior point (see ``_maximal_cells``).

Size lemma: when cell A is a proper face of cell B, each argmax set of A
contains B's and at least one strictly, so the size of A's signature (the
sum of its set sizes) is strictly larger than B's.  So a signature is only
tested against signatures of strictly smaller size, and one of the least
size in its complex is maximal with no test: every untight hypersurface
cell, whose signature is one pair.

Untight-signature lemma: a candidate carries, per generator, the pair
(i, j) of its tie cell, and the point its solve found, which is its
relative interior point (interior lemma of ``polyhedra``).  When no LE row
is tight there, term i equals term j and every other term of the
generator lies strictly below them.  So each argmax set is exactly
{e_i, e_j}, with no evaluation, and the cell's dimension is n minus the
rank of the differences e_j - e_i: n - 1 for a hypersurface, with no rank
computed.  Only a candidate with a tight row evaluates its terms.

Difference table: the rows of a polynomial are the differences
term_k - term_i, built once per polynomial (``_differences``).  A tie cell
picks its EQ row and its LE rows from the table, and
``vanishes_on_complex`` reads its strict rows off one table per stratum.

Integer rows: a prevariety scales all its generators by one L, the lcm of
their coefficient denominators, so term k becomes (L e_k, L c_k), the affine
function L (c_k + e_k . x).  Tie-cell rows, their intersections and the
strict-dominance systems go to Fourier-Motzkin as integer rows, each L times
the rational constraint it stands for; they describe the same polyhedra, so
by the representation lemma of ``polyhedra`` they give the same points.
Argmax sets are compared as integers L den times the term values at the
point nums / den; L den > 0 keeps their order.  A tie cell picks its rows
from the difference table, and a cell keeps integer rows with a canonical
scale and the solve's interior point (nums, den) (see ``Cell``).  Rational
text ("p/q") appears only where a complex is written to or read from JSON
(``complex_to_json``, ``complex_from_json``), in the SVG, in a witness
row, and in the key and head of a cell, written from the integers by ``_text``.

Head lemma: every computed cell has one EQ row per generator, the tie row
of its pair.  Relations sort as "eq" < "le", so the smallest constraint of
a cell's key is the smallest text of its EQ rows, and ``Cell.head``, the
key cut off after its first constraint, writes the EQ rows only (every
row only for a cell with none, such as one read from JSON; a cell with no
rows has no constraint in its head).  A key is a tuple that begins with
its head, so keys whose heads differ compare as their heads do.  Sorting
by head, and then by full key within each run of equal heads, therefore
gives exactly the order of ``sorted(cells, key=Cell.key)`` (``key_order``),
and the full key is written only for cells that share a head.

Conventions: monomials never vanish and the zero polynomial vanishes nowhere
on R^n, so both contribute empty hypersurfaces.  On a bottom stratum of the
affine (T^n) extension a generator all of whose terms die vanishes
identically there (its value is bottom).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd, lcm

from .matrices import int_rank, to_fraction, to_int
from .polyhedra import (
    EQ,
    LE,
    LT,
    IntPoint,
    IntRow,
    _int_feasible_point,
    _int_point,
    _tight_rows,
    affine_hull_directions,
    contains_point,
    dimension,
)
from .parsing import json_field
from .polynomials import LAURENT, POLY, Exponents, Polynomial


@dataclass(frozen=True)
class Cell:
    """A polyhedron as integer rows, with dimension, interior point and stratum label.

    Row (a, b, rel) stands for the constraint (a / scale) . x rel b / scale.
    The scale is canonical: the lcm of the denominators of those rational
    entries, so the gcd of the scale and all entries of the rows is 1.  Two
    cells with the same constraints are then equal however they were made:
    computed, or read back from JSON.  ``stratum`` lists the variables pinned
    to bottom; the rows live in the space of the remaining coordinates (in
    increasing variable order).  The interior point is the solve's ``IntPoint``
    (nums, den).  Point lemma: ``_int_feasible_point`` reduces each coordinate
    t / q and keeps den = lcm of the reduced q, so (nums, den) is canonical:
    ``_int_point(_fractions(p)) == p``.  Two cells are therefore equal exactly
    when their rational points are, and ``_text(v, den)`` is ``str`` of v / den.
    """

    rows: tuple[IntRow, ...]
    scale: int
    dim: int
    interior_point: IntPoint
    stratum: tuple[int, ...] = ()

    def key(self):
        """Stratum, then larger dimension, then the sorted constraints in their JSON text.

        Cells are ordered by ``head`` first; ``key_order`` writes the full
        key only for cells whose heads are equal (head lemma of the module).
        """
        return (self.stratum, -self.dim, tuple(sorted(_row_texts(self.rows, self.scale))))

    def head(self):
        """The key cut off after its first constraint: the text of the EQ rows only, if any."""
        rows = [row for row in self.rows if row[2] == EQ] or self.rows
        return (self.stratum, -self.dim, (min(_row_texts(rows, self.scale)),) if rows else ())


def _row_texts(rows, scale: int):
    """Each row as its constraint's JSON text (relation, normal, rhs), the order of the key."""
    if scale == 1:
        return [(rel, tuple(map(str, a)), str(b)) for a, b, rel in rows]
    return [(rel, tuple([_text(x, scale) for x in a]), _text(b, scale)) for a, b, rel in rows]


def key_order(cells: list[Cell]) -> list[int]:
    """The indices of the cells in ``Cell.key`` order, equal keys in list order.

    The cells are sorted by head, and each run of equal heads by full key:
    the order of ``sorted(cells, key=Cell.key)`` (head lemma of the module).
    """
    heads = [cell.head() for cell in cells]
    order = []
    by_head = sorted(range(len(cells)), key=heads.__getitem__)
    for _, run in itertools.groupby(by_head, heads.__getitem__):
        run = list(run)
        if len(run) > 1:
            run.sort(key=lambda i: cells[i].key())
        order.extend(run)
    return order


def _text(x: int, scale: int) -> str:
    """The entry x / scale as JSON text: an integer or "p/q".

    It equals ``str(Fraction(x, scale))``: the scale is positive, so the
    sign stays on the reduced numerator.
    """
    if scale == 1:
        return str(x)
    g = gcd(x, scale)
    return str(x // g) if g == scale else f"{x // g}/{scale // g}"


def _canonical(rows: list[IntRow], scale: int) -> tuple[tuple[IntRow, ...], int]:
    """Rows standing for row / scale, and their scale, both divided by the gcd of all entries.

    The gcd is taken row by row and stops once it reaches 1.
    """
    g = scale
    for a, b, _ in rows:
        g = gcd(g, b, *a)
        if g == 1:
            return tuple(rows), scale
    rows = [(tuple(x // g for x in a), b // g, rel) for a, b, rel in rows]
    return tuple(rows), scale // g


@dataclass(frozen=True)
class PolyComplex:
    ambient: int
    mode: str
    cells: tuple[Cell, ...]


ScaledTerm = tuple[Exponents, tuple[int, ...], int]


def _scaled_terms(f: Polynomial, scale: int) -> list[ScaledTerm]:
    """The terms of f, in support order, as (e_k, L e_k, L c_k) with L = scale.

    L is a multiple of f's coefficient denominators, so L (c_k + e_k . x) is
    term k's affine function with integer coefficients.
    """
    return [
        (e, tuple(scale * x for x in e), c.numerator * (scale // c.denominator))
        for e, c in f.terms()
    ]


Differences = list[list[IntRow]]


def _differences(terms: list[ScaledTerm]) -> Differences:
    """The difference table of a polynomial: entry [i][k] is the row term_k <= term_i.

    That row is (L e_k - L e_i) . x <= L c_i - L c_k, with integer entries.
    """
    return [
        [(tuple([x - y for x, y in zip(gk, gi)]), ci - ck, LE) for _, gk, ck in terms]
        for _, gi, ci in terms
    ]


def _tie_rows(table: Differences, i: int, j: int) -> list[IntRow]:
    """The tie cell {x : term_i(x) = term_j(x) >= term_k(x) for all k}, each row times L.

    Its EQ row term_i = term_j is entry [j][i] of the table, and its LE rows
    are the entries [i][k] for k other than i and j.
    """
    a, b, _ = table[j][i]
    rows = [(a, b, EQ)]
    rows.extend(row for k, row in enumerate(table[i]) if k != i and k != j)
    return rows


Signature = tuple[frozenset[Exponents], ...]


def _argmax(terms: list[ScaledTerm], point: IntPoint) -> frozenset[Exponents]:
    """The terms attaining the maximum at nums / den, compared as L den times their values."""
    nums, den = point
    values = [(c * den + sum(x * y for x, y in zip(g, nums)), e) for e, g, c in terms]
    top = max(v for v, _ in values)
    return frozenset(e for v, e in values if v == top)


def _make_cell(
    candidate, scaled: list[list[ScaledTerm]], scale: int, n: int
) -> tuple[Signature, Cell]:
    """The cell of a non-empty candidate, with its argmax signature.

    A candidate is (rows, found, pairs): its constraints, each L = scale
    times the rational constraint it stands for, the point its solve found,
    and the tie pair (i, j) of each generator.  The cell keeps the rows over
    their canonical scale.  Near ``found``, its relative interior point
    (interior lemma of ``polyhedra``), the cell is cut out by the ties
    within each argmax set: its dimension is n minus the rank of those
    differences.  With no tight row the signature is read off the pairs
    (untight-signature lemma above).
    """
    rows, found, pairs = candidate
    if _tight_rows(rows, found):
        signature = tuple(_argmax(terms, found) for terms in scaled)
        ties = [tuple(a - b for a, b in zip(e, min(terms))) for terms in signature for e in terms]
        dim = n - int_rank(ties)
    else:
        tied = [(terms[i][0], terms[j][0]) for terms, (i, j) in zip(scaled, pairs)]
        signature = tuple(frozenset(pair) for pair in tied)
        if len(tied) == 1:
            dim = n - 1  # e_i != e_j
        else:
            dim = n - int_rank([tuple(a - b for a, b in zip(ei, ej)) for ei, ej in tied])
    return signature, Cell(*_canonical(rows, scale), dim, found)


def _contains_any(sig: Signature, smaller: list[Signature]) -> bool:
    """Whether each argmax set of sig contains the matching set of some smaller signature."""
    return any(all(b <= a for a, b in zip(sig, other)) for other in smaller)


def _maximal_cells(made) -> tuple[Cell, ...]:
    """The inclusion-maximal cells among the made ones, one per set, in key order.

    ``made`` yields (signature, cell) pairs, as ``_make_cell`` returns them.
    Cell A lies in cell B exactly when each of B's argmax sets is contained
    in A's, so equal cells share a signature (the key-smallest represents
    them) and a signature strictly containing another marks a proper face.
    The made cells are put in key order once (``key_order``), so the first
    cell of each signature is its key-smallest and the kept cells need no
    sort.

    Size lemma: a proper face's signature contains the other's sets, one of
    them strictly, so its size (the sum of its set sizes) is strictly
    larger.  A signature is therefore compared only with those of strictly
    smaller size, layer by layer, and the signatures of the least size,
    which include every untight hypersurface cell's pair, are never faces
    and are not compared at all.
    """
    made = list(made)
    groups: dict[Signature, Cell] = {}
    for i in key_order([cell for _, cell in made]):
        signature, cell = made[i]
        groups.setdefault(signature, cell)
    layers: dict[int, list[Signature]] = {}
    for sig in groups:
        layers.setdefault(sum(map(len, sig)), []).append(sig)
    sizes = sorted(layers)
    faces: set[Signature] = set()
    smaller = layers[sizes[0]] if sizes else []  # the least size: no face
    for size in sizes[1:]:
        layer = layers[size]
        faces.update(sig for sig in layer if _contains_any(sig, smaller))
        smaller = smaller + layer
    return tuple(cell for sig, cell in groups.items() if sig not in faces)


def _extend(candidates, ties, n: int):
    """Each candidate intersected with each tie cell, in product order; empty ones are dropped."""
    for rows, _, pairs in candidates:
        for more, _, pair in ties:
            joined = rows + more
            found = _int_feasible_point(joined, n)
            if found is not None:
                yield joined, found, pairs + pair


def hypersurface(f: Polynomial) -> PolyComplex:
    """The locus where the maximum of f is attained at least twice."""
    return prevariety([f])


def prevariety(gens: list[Polynomial]) -> PolyComplex:
    """Intersection of the generators' hypersurfaces over R^n.

    This is the prevariety of the input set; it equals the variety of the
    generated ideal only when the input is a tropical basis.  Generators are
    intersected one at a time, depth first, and an empty partial
    intersection is never extended.  All generators are scaled by one L.
    """
    if not gens:
        raise ValueError("at least one generator is required")
    n, mode = gens[0].n, gens[0].mode
    for g in gens[1:]:
        gens[0]._require_compatible(g)
    if any(len(g) < 2 for g in gens):
        # a monomial (or zero) generator never vanishes on R^n
        return PolyComplex(n, mode, ())
    scale = lcm(*(c.denominator for g in gens for _, c in g.terms()))
    scaled = [_scaled_terms(g, scale) for g in gens]
    candidates = None
    for terms in scaled:
        table = _differences(terms)
        ties = []
        for i, j in itertools.combinations(range(len(terms)), 2):
            rows = _tie_rows(table, i, j)
            found = _int_feasible_point(rows, n)
            if found is not None:
                ties.append((rows, found, ((i, j),)))
        candidates = ties if candidates is None else _extend(candidates, ties, n)
    made = (_make_cell(c, scaled, scale, n) for c in candidates)
    return PolyComplex(n, mode, _maximal_cells(made))


def affine_prevariety(gens: list[Polynomial]) -> PolyComplex:
    """Prevariety over T^n, stratified by the set of coordinates at bottom.

    For each subset S of variables the generators are restricted (terms
    touching S die); a generator restricting to zero vanishes identically on
    the stratum, a non-zero monomial restriction kills the stratum, and the
    rest cut out an R^(n-|S|) prevariety labelled by S.

    A cell's key begins with its stratum and ``prevariety`` returns cells in
    key order, so sorted strata give the complex in key order with no sort.
    """
    if not gens:
        raise ValueError("at least one generator is required")
    if any(g.mode != POLY for g in gens):
        raise ValueError("the affine extension requires poly mode")
    n = gens[0].n
    for g in gens[1:]:
        gens[0]._require_compatible(g)
    cells: list[Cell] = []
    strata = (subset for size in range(n + 1) for subset in itertools.combinations(range(n), size))
    for dead in sorted(strata):
        restricted = [g.restrict_to_stratum(dead) for g in gens]
        if any(r.is_monomial() for r in restricted):
            continue
        live = [r for r in restricted if not r.is_zero()]
        if not live:
            ambient = n - len(dead)
            cells.append(Cell((), 1, ambient, ((0,) * ambient, 1), dead))
            continue
        cells.extend(replace(cell, stratum=dead) for cell in prevariety(live).cells)
    return PolyComplex(n, POLY, tuple(cells))


def complex_dim(x: PolyComplex) -> int:
    if not x.cells:
        return -1
    return max(cell.dim for cell in x.cells)


def complex_contains_point(x: PolyComplex, point) -> bool:
    """Whether the rational point lies in the R^n part of the complex; it is read once."""
    point = _int_point(point)
    if len(point[0]) != x.ambient:
        raise ValueError(f"point has length {len(point[0])}, expected {x.ambient}")
    return any(cell.stratum == () and contains_point(cell.rows, point) for cell in x.cells)


def vanishes_on_complex(f: Polynomial, x: PolyComplex) -> bool:
    """True when f tropically vanishes at every point of the complex.

    Decided by strict dominance: a point is off V(f) exactly when one term
    of f lies strictly above all the others there.  So f vanishes on a cell
    iff, for every term i, the cell together with the rows term_k < term_i
    (all k != i) is empty: one solve per term and cell, and the first
    feasible system answers False.
    """
    if f.n != x.ambient:
        raise ValueError(f"ambient mismatch: {f.n} vs {x.ambient}")
    strata: dict[tuple[int, ...], tuple[Polynomial, list[list[IntRow]]]] = {}
    for cell in x.cells:
        if cell.stratum not in strata:
            restricted = f.restrict_to_stratum(cell.stratum) if cell.stratum else f
            strata[cell.stratum] = restricted, _strict_rows(restricted)
        restricted, strict = strata[cell.stratum]
        if restricted.is_zero():
            if cell.stratum:
                continue  # value is bottom on the whole stratum
            return False  # the zero polynomial vanishes nowhere on R^n
        if restricted.is_monomial():
            return False
        ncoords = x.ambient - len(cell.stratum)
        for others in strict:
            if _int_feasible_point([*cell.rows, *others], ncoords) is not None:
                return False
    return True


def _strict_rows(f: Polynomial) -> list[list[IntRow]]:
    """Per term i of f, the rows term_k < term_i (k != i), read off one difference table."""
    terms = _scaled_terms(f, lcm(*(c.denominator for _, c in f.terms())))
    return [
        [(a, b, LT) for k, (a, b, _) in enumerate(row) if k != i]
        for i, row in enumerate(_differences(terms))
    ]


def complex_to_json(x: PolyComplex) -> dict:
    cells = []
    for cell in x.cells:
        s = cell.scale
        nums, den = cell.interior_point
        cells.append(
            {
                "stratum": list(cell.stratum),
                "normals": [[_text(v, s) for v in a] for a, _, _ in cell.rows],
                "rhs": [_text(b, s) for _, b, _ in cell.rows],
                "relations": [rel for _, _, rel in cell.rows],
                "dim": cell.dim,
                "interior_point": [_text(v, den) for v in nums],
            }
        )
    return {"ambient": x.ambient, "mode": x.mode, "cells": cells}


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise ValueError(message)


def _rationals(values, length: int, what: str) -> tuple[Fraction, ...]:
    _require(isinstance(values, list) and len(values) == length, f"{what} needs {length} entries")
    return tuple(to_fraction(v) for v in values)


def complex_from_json(data) -> PolyComplex:
    """Read the output of complex_to_json; malformed input raises ValueError.

    Every key but a cell's ``stratum`` (default []) is required.  Each
    cell's rational constraints become integer rows over the lcm of their
    denominators, which is the canonical scale of ``Cell``.  A cell whose
    dim is not its polyhedron's dimension, or whose interior_point is off
    its relative interior (where fewer than dim hull directions remain), is
    malformed too.  Each cell takes one solve, for its dimension; the given
    point is checked with none.
    """
    _require(isinstance(data, dict), "a complex must be a JSON object")
    ambient = to_int(json_field(data, "ambient", "complex JSON"), "ambient")
    mode, cells = (json_field(data, key, "complex JSON") for key in ("mode", "cells"))
    _require(ambient >= 0, "ambient must be a non-negative integer")
    _require(mode in (LAURENT, POLY), f"mode must be {LAURENT!r} or {POLY!r}")
    _require(isinstance(cells, list), "cells must be a list")
    out = []
    for index, c in enumerate(cells):
        _require(isinstance(c, dict), "each cell must be a JSON object")
        where = f"complex JSON: cells[{index}]"
        stratum = c.get("stratum", [])
        _require(isinstance(stratum, list), "stratum must list increasing variables")
        stratum = [to_int(v, "a stratum variable") for v in stratum]
        ok = all(0 <= v < ambient for v in stratum) and stratum == sorted(set(stratum))
        _require(ok, "stratum must list increasing variables")
        _require(mode == POLY or not stratum, "bottom strata exist only in poly mode")
        ncoords = ambient - len(stratum)
        normals, rhs, relations = (json_field(c, k, where) for k in ("normals", "rhs", "relations"))
        _require(
            all(isinstance(v, list) and len(v) == len(normals) for v in (normals, rhs, relations)),
            "normals, rhs and relations must be lists of equal length",
        )
        _require(all(rel in (LE, EQ) for rel in relations), f"relations must be {LE!r} or {EQ!r}")
        cons = [(_rationals(a, ncoords, "a normal"), to_fraction(b)) for a, b in zip(normals, rhs)]
        scale = lcm(*(x.denominator for a, b in cons for x in (*a, b)))
        rows = tuple(
            (tuple(int(x * scale) for x in a), int(b * scale), rel)
            for (a, b), rel in zip(cons, relations)
        )
        dim = to_int(json_field(c, "dim", where), "dim")
        _require(0 <= dim <= ncoords, f"dim must be an integer in 0..{ncoords}")
        values = json_field(c, "interior_point", where)
        point = _int_point(_rationals(values, ncoords, "interior_point"))
        _require(contains_point(rows, point), "interior_point violates the cell's constraints")
        actual = dimension(rows, ncoords)
        _require(dim == actual, f"dim is {dim} but the cell has dimension {actual}")
        interior = len(affine_hull_directions(rows, ncoords, point)) == dim
        _require(interior, "interior_point lies on the boundary of the cell")
        out.append(Cell(rows, scale, dim, point, tuple(stratum)))
    return PolyComplex(ambient, mode, tuple(out))
