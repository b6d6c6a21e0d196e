"""The integer kernel against the Fraction definitions, and the rows of the former kernel.

`system_point` (the `Fraction` front end of `oracles.polyhedra`) clears its
constraints and runs Fourier-Motzkin on integer rows, `matrices.int_rank`
runs Bareiss elimination on integer rows, and `matrices.int_nullspace`
reads its basis off the integer Gauss-Jordan elimination
`matrices.int_echelon`.
Their oracles are the `Fraction` versions of `oracles.polyhedra`
(`ref_feasible_point`) and `oracles.matrices` (`ref_row_echelon`, the
former `matrices.row_echelon`, `ref_nullspace` and `ref_rank`): on seeded
systems and matrices (empty and unbounded systems, zero columns and rows,
dependent, duplicate and parallel rows, no rows, `int`, `Fraction` and
"p/q" input, cleared of denominators where the code reads integers) the
new code must give the same point, or also report the system empty, the
same rank, and the same kernel basis up to one positive factor per vector,
its last non-zero entry (scaling lemma of `polyhedra`).  The rows of
`int_echelon` must be non-zero multiples of the reduced row echelon rows,
with the same pivots.

The integer kernel reduces rows only before a pairing step and relies on
the representation lemma of `polyhedra`: on seeded integer systems it must
give the `Fraction` oracle's point or also `None`, the point must not
change with how the rows are written, `_normalize` must run only before
pairing steps above the last level and on the constant level (on fewer
rows than the former integer step, which normalized every level), the
last level must keep only its tightest lower and upper bound (last-level
lemma of `polyhedra`, also on one-variable systems whose tied bounds differ
only in strictness), and `fm_eliminate` (on the library's `_eliminate_last`
and `_normalize`) must return the rows of the former integer step
(`ref_fm_eliminate`), in the same order.
"""

import itertools
import random
from fractions import Fraction
from math import gcd

import pytest

from tropica import polyhedra, varieties
from tropica.matrices import clear_denominators, int_echelon, int_nullspace, int_rank, to_fraction
from tropica.parsing import parse_polynomial
from tropica.polyhedra import EQ, LE, LT, _int_feasible_point

import oracles.polyhedra
from oracles.matrices import rank, ref_nullspace, ref_rank, ref_row_echelon
from oracles.polyhedra import (
    fm_eliminate,
    is_empty,
    make_polyhedron,
    ref_feasible_point,
    ref_fm_eliminate,
    ref_point_pair,
    system_point,
)
from oracles.varieties import ref_difference


# -- seeded inputs ----------------------------------------------------------------


def _entry(rng, as_int: bool):
    if as_int:
        return rng.randint(-3, 3)
    return Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3, 4, 6]))


def _system(rng):
    """(constraints, n): mixed EQ/LE/LT rows with the awkward cases mixed in."""
    n = rng.randint(0, 4)
    as_int = rng.random() < 0.3
    zero_cols = {j for j in range(n) if rng.random() < 0.15}
    rows = []
    for _ in range(rng.randint(0, 7)):
        kind = rng.random()
        if rows and kind < 0.12:
            # a positive or negative multiple of an earlier row
            a, b, rel = rng.choice(rows)
            k = rng.choice([2, 3, Fraction(1, 2), -1]) if not as_int else rng.choice([2, 3, -1])
            rel = rel if k > 0 or rel == EQ else rng.choice([LE, LT])
            rows.append((tuple(k * x for x in a), k * b, rel))
            continue
        if rows and kind < 0.2:
            # the opposite half-space of an earlier row, often making the set empty or flat
            a, b, _ = rng.choice(rows)
            rows.append((tuple(-x for x in a), -b + rng.choice([0, 0, -1, 1]), rng.choice([LE, LT])))
            continue
        a = tuple(0 if j in zero_cols else _entry(rng, as_int) for j in range(n))
        if kind < 0.25:
            a = tuple(0 for _ in range(n))  # a constant row
        rel = rng.choices([EQ, LE, LT], weights=[2, 5, 3])[0]
        rows.append((a, _entry(rng, as_int), rel))
    return rows, n


def _has_ray_along_an_axis(cons, n):
    for k in range(n):
        for sign in (1, -1):
            if all(sign * a[k] == 0 if rel == EQ else sign * a[k] <= 0 for a, _, rel in cons):
                return True
    return False


def test_feasible_point_matches_fraction_oracle():
    rng = random.Random(20260601)
    outcomes = {"empty": 0, "bounded or not seen": 0, "unbounded": 0}
    for _ in range(20000):
        cons, n = _system(rng)
        expected = ref_feasible_point(cons, n)
        assert system_point(cons, n) == expected, (cons, n)
        if expected is None:
            outcomes["empty"] += 1
        elif _has_ray_along_an_axis(cons, n):
            outcomes["unbounded"] += 1
        else:
            outcomes["bounded or not seen"] += 1
    assert min(outcomes.values()) > 1000, outcomes


def _int_system(rng):
    """(rows, n): integer EQ/LE/LT rows, n = 0..5, with the awkward cases drawn on purpose."""
    n = rng.randint(0, 5)
    zero_cols = {j for j in range(n) if rng.random() < 0.15}
    rows = []
    for _ in range(rng.randint(0, 8)):
        kind = rng.random()
        if rows and kind < 0.1:
            rows.append(rng.choice(rows))  # a duplicate
        elif rows and kind < 0.2:
            # a positive multiple of an earlier row, often with a shifted bound: a parallel row
            a, b, rel = rng.choice(rows)
            k = rng.randint(2, 4)
            rows.append((tuple(k * x for x in a), k * b + rng.choice([0, 0, -1, 1]), rel))
        elif rows and kind < 0.3:
            # the opposite side of an earlier row, often making the set empty or flat
            a, b, _ = rng.choice(rows)
            rows.append((tuple(-x for x in a), -b + rng.choice([0, 0, -1, 1]), rng.choice([EQ, LE, LT])))
        elif kind < 0.35:
            rows.append(((0,) * n, rng.randint(-2, 2), rng.choice([EQ, LE, LT])))  # a constant row
        else:
            a = tuple(0 if j in zero_cols else rng.randint(-3, 3) for j in range(n))
            rows.append((a, rng.randint(-4, 4), rng.choices([EQ, LE, LT], weights=[2, 5, 3])[0]))
    return rows, n


def _disagreeing_equalities(rows) -> bool:
    """Two parallel EQ rows with different right-hand sides."""
    eqs = [(a, b) for a, b, rel in rows if rel == EQ and any(a)]
    for (a, b), (c, d) in itertools.combinations(eqs, 2):
        i = next(k for k, x in enumerate(a) if x)
        if all(x * c[i] == y * a[i] for x, y in zip(a, c)) and b * c[i] != d * a[i]:
            return True
    return False


def _turns_constant(rows, n) -> bool:
    """True when elimination makes a row constant above the constant level."""
    before = sum(not any(a) for a, _, _ in rows)
    for k in range(n, 1, -1):
        rows = polyhedra._eliminate_last(rows, k)[0]
        after = sum(not any(a) for a, _, _ in rows)
        if after > before:
            return True
        before = after
    return False


def test_int_feasible_point_matches_fraction_oracle_on_integer_systems():
    rng = random.Random(20261101)
    seen = {f"n={n}": 0 for n in range(6)}
    seen.update({"empty": 0, "unbounded": 0, "duplicate": 0, "parallel": 0,
                 "disagreeing equalities": 0, "turns constant": 0, "EQ": 0, "LE": 0, "LT": 0})
    for _ in range(3000):
        rows, n = _int_system(rng)
        expected = ref_point_pair(rows, n)
        assert _int_feasible_point(rows, n) == expected, (rows, n)
        seen[f"n={n}"] += 1
        seen["empty"] += expected is None
        seen["unbounded"] += expected is not None and _has_ray_along_an_axis(rows, n)
        seen["duplicate"] += len(set(rows)) < len(rows)
        primitive = [tuple(x // gcd(*a) for x in a) for a, _, _ in rows if any(a)]
        seen["parallel"] += len(set(primitive)) < len(primitive)
        seen["disagreeing equalities"] += _disagreeing_equalities(rows)
        seen["turns constant"] += _turns_constant(rows, n)
        for rel in (EQ, LE, LT):
            seen[rel.upper()] += any(r == rel for _, _, r in rows)
    assert min(seen.values()) >= 100, seen


def test_point_ignores_how_the_rows_are_written():
    """Representation lemma: the point depends only on the polyhedron.

    Shuffling the rows, scaling each by a positive integer (an equality by
    any non-zero one) and repeating some of them leaves the point unchanged.
    """
    rng = random.Random(20261102)
    points = 0
    for _ in range(2000):
        rows, n = _int_system(rng)
        expected = _int_feasible_point(rows, n)
        points += expected is not None
        written = []
        for a, b, rel in rows + rng.sample(rows, rng.randint(0, len(rows))):
            k = rng.choice([1, 2, 3, 5]) * (rng.choice([1, -1]) if rel == EQ else 1)
            written.append((tuple(k * x for x in a), k * b, rel))
        rng.shuffle(written)
        assert _int_feasible_point(written, n) == expected, (rows, written, n)
    assert points >= 500


def test_normalize_runs_only_before_pairing_and_on_the_constant_level(monkeypatch):
    """Each solve normalizes the lowers and uppers of each pairing step above the last level.

    A pairing step is a level with no equality pivot and rows bounding the
    coordinate from both sides; every other level passes its rows through.
    On the last level a pairing step normalizes nothing: it keeps one lower
    and one upper bound row, from the rows bounding x_1, and turns them into
    exactly one constant row (last-level lemma of ``polyhedra``).  The
    constant rows are normalized once, at the end.  Fewer rows go through
    ``_normalize`` than through the former kernel's, which normalized every
    level (`ref_int_normalize` after each `ref_int_eliminate_last`).
    """
    events = []
    normalize, eliminate = polyhedra._normalize, polyhedra._eliminate_last
    former = oracles.polyhedra.ref_int_normalize
    counts = {"rows": 0, "former rows": 0}

    def spy_normalize(rows):
        events.append(("normalize", list(rows)))
        counts["rows"] += len(rows)
        return normalize(rows)

    def spy_eliminate(rows, n):
        j = n - 1
        pivot = any(rel == EQ and a[j] for a, _, rel in rows)
        signs = {a[j] > 0 for a, _, _ in rows if a[j]}
        events.append(("eliminate", j, not pivot and len(signs) == 2))
        kept, bounds = eliminate(rows, n)
        events.append(("eliminated", list(rows), kept, bounds))
        return kept, bounds

    def former_normalize(rows):
        counts["former rows"] += len(rows)
        return former(rows)

    monkeypatch.setattr(polyhedra, "_normalize", spy_normalize)
    monkeypatch.setattr(polyhedra, "_eliminate_last", spy_eliminate)
    monkeypatch.setattr(oracles.polyhedra, "ref_int_normalize", former_normalize)
    rng = random.Random(20261103)
    steps = {"pairing": 0, "passed through": 0}
    last_level = 0
    for _ in range(2000):
        rows, n = _int_system(rng)
        events.clear()
        _int_feasible_point(rows, n)
        reduced = oracles.polyhedra.ref_int_normalize(rows)
        for k in range(n, 0, -1):
            if reduced is None:
                break
            reduced = oracles.polyhedra.ref_int_eliminate_last(reduced, k)
        *levels, (kind, constants) = events
        assert kind == "normalize" and all(len(a) == 0 for a, _, _ in constants), events
        i = 0
        for _ in range(n):
            kind, j, pairing = levels[i]
            assert kind == "eliminate", events
            i += 1
            if pairing and j > 0:
                (lo_kind, lowers), (up_kind, uppers) = levels[i : i + 2]
                assert lo_kind == up_kind == "normalize", events
                assert lowers and all(a[j] < 0 and rel != EQ for a, _, rel in lowers), events
                assert uppers and all(a[j] > 0 and rel != EQ for a, _, rel in uppers), events
                i += 2
            kind, given, kept, bounds = levels[i]
            assert kind == "eliminated", events
            i += 1
            steps["pairing" if pairing else "passed through"] += 1
            if pairing and j == 0:
                last_level += 1
                lower, upper = bounds
                assert lower in given and lower[0][0] < 0, events
                assert upper in given and upper[0][0] > 0, events
                passed = [(a[:0], b, rel) for a, b, rel in given if a[0] == 0]
                assert kept[:-1] == passed and len(kept[-1][0]) == 0, events
        assert i == len(levels), events
    assert min(steps.values()) >= 500 and last_level >= 150, (steps, last_level)
    assert counts["rows"] < counts["former rows"], counts


def _tied_last_level(rng):
    """(rows, 1): several lower and upper bounds on x_1 that tie, only one tied row strict.

    The tightest lower bound v and the tightest upper bound w are drawn
    equal most of the time.  The tied rows are scaled copies of one bound,
    one of them strict (on either side, or on neither); looser bounds and
    constant rows are mixed in, and the rows are shuffled.
    """
    v = Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3]))
    w = v if rng.random() < 0.7 else v + Fraction(rng.randint(-2, 2), rng.choice([1, 2]))
    strict_side = rng.choice(["lower", "upper", "neither"])
    rows = []
    for side, bound, sign in (("lower", v, -1), ("upper", w, 1)):
        tied = rng.randint(2, 4)
        strict = rng.randrange(tied) if side == strict_side else None
        for k in range(tied):
            scale = rng.randint(1, 4) * bound.denominator
            rel = LT if k == strict else LE
            rows.append(((sign * scale,), sign * scale * bound, rel))
        for _ in range(rng.randint(0, 3)):
            looser = bound + sign * Fraction(rng.randint(1, 4), rng.choice([1, 2]))
            scale = rng.randint(1, 3) * looser.denominator
            rows.append(((sign * scale,), sign * scale * looser, rng.choice([LE, LT])))
    for _ in range(rng.randint(0, 2)):
        rows.append(((0,), rng.randint(0, 2), LE))
    rows = [(a, int(b), rel) for a, b, rel in rows]
    rng.shuffle(rows)
    return rows, 1


def test_last_level_reads_the_tightest_bounds():
    """On the last level the point, and whether there is one, are the `Fraction` oracle's.

    The systems are one-variable ones where several lower and several upper
    bounds tie, only one of the tied rows is strict, and the tightest lower
    bound mostly equals the tightest upper bound: the set is then one point
    or empty, decided by the one strict row.  The two bound rows returned
    are the tightest ones, the strict one on a tie.
    """
    rng = random.Random(20261105)
    seen = {"point": 0, "empty": 0, "interval": 0, "strict lower": 0, "strict upper": 0}
    for _ in range(3000):
        rows, n = _tied_last_level(rng)
        expected = ref_point_pair(rows, n)
        assert _int_feasible_point(rows, n) == expected, rows
        kept, (lower, upper) = polyhedra._eliminate_last(rows, n)
        v = max(Fraction(b, a[0]) for a, b, _ in rows if a[0] < 0)
        w = min(Fraction(b, a[0]) for a, b, _ in rows if a[0] > 0)
        lower_strict = any(rel == LT and Fraction(b, a[0]) == v for a, b, rel in rows if a[0] < 0)
        upper_strict = any(rel == LT and Fraction(b, a[0]) == w for a, b, rel in rows if a[0] > 0)
        assert Fraction(lower[1], lower[0][0]) == v and (lower[2] == LT) == lower_strict, rows
        assert Fraction(upper[1], upper[0][0]) == w and (upper[2] == LT) == upper_strict, rows
        assert len(kept) == sum(a[0] == 0 for a, _, _ in rows) + 1, rows
        if v == w:
            seen["empty" if expected is None else "point"] += 1
        else:
            seen["interval"] += 1
        seen["strict lower"] += lower_strict and v == w
        seen["strict upper"] += upper_strict and v == w
    assert min(seen.values()) >= 300, seen


def test_fm_eliminate_rows_match_former_kernel():
    """The projection's rows are the former kernel's, in the same order.

    They are normalized and no two are parallel; the eliminated rows were
    deduplicated before they multiplied, and that changes neither the set
    nor the order.
    """
    rng = random.Random(20261104)
    seen = {"empty": 0, "equalities": 0, "parallel input": 0}
    for _ in range(1500):
        n = rng.randint(1, 4)
        rows = []
        for _ in range(rng.randint(0, 7)):
            normal = tuple(Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2, 3])) for _ in range(n))
            if rows and rng.random() < 0.25:
                k = Fraction(rng.choice([1, 2, 3]), rng.choice([1, 2]))
                normal = tuple(k * x for x in rng.choice(rows)[0])  # a parallel row
                seen["parallel input"] += 1
            rhs = Fraction(rng.randint(-4, 4), rng.choice([1, 2]))
            rows.append((normal, rhs, EQ if rng.random() < 0.25 else LE))
        p = make_polyhedron(rows, n)
        index = rng.randrange(n)
        got = fm_eliminate(p, index)
        assert got == ref_fm_eliminate(p, index), (rows, index)
        assert len(set(got.constraints)) == len(got.constraints), rows
        seen["empty"] += is_empty(p)
        seen["equalities"] += any(h.relation == EQ for h in got.constraints)
    assert min(seen.values()) >= 100, seen


def _matrix(rng):
    nrows, ncols = rng.randint(0, 5), rng.randint(1, 6)
    as_int = rng.random() < 0.3
    zero_cols = {j for j in range(ncols) if rng.random() < 0.15}
    rows = []
    for _ in range(nrows):
        if rows and rng.random() < 0.3:
            # a rational combination of earlier rows
            picks = rng.sample(rows, rng.randint(1, len(rows)))
            weights = [_entry(rng, as_int) for _ in picks]
            rows.append([sum((w * r[j] for w, r in zip(weights, picks)), 0) for j in range(ncols)])
        elif rng.random() < 0.05:
            rows.append([0] * ncols)
        else:
            rows.append([0 if j in zero_cols else _entry(rng, as_int) for j in range(ncols)])
    return rows


def test_rank_matches_fraction_oracle():
    rng = random.Random(20260602)
    deficient = 0
    for _ in range(20000):
        rows = _matrix(rng)
        expected = ref_rank(rows)
        assert rank(rows) == expected, rows
        deficient += expected < min(len(rows), len(rows[0]) if rows else 0)
    assert deficient > 2000


def test_rank_of_large_entries_and_tall_matrices():
    rng = random.Random(5)
    for _ in range(300):
        ncols = rng.randint(2, 8)
        rows = [[Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4)) for _ in range(ncols)]
                for _ in range(rng.randint(1, 10))]
        rows.append([sum(r[j] for r in rows[:2]) for j in range(ncols)])
        assert rank(rows) == ref_rank(rows)


def test_int_rank_stops_at_full_row_rank():
    # integer rows of full row rank m < ncols, so the scan stops before the last
    # column, among zero rows; a third have their last row a combination of others
    rng = random.Random(20261020)
    early = dependent = 0
    for _ in range(3000):
        ncols = rng.randint(2, 7)
        m = rng.randint(1, ncols - 1)
        rows = [[rng.randint(-9, 9) for _ in range(ncols)] for _ in range(m)]
        if m > 1 and rng.random() < 0.3:
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            rows[-1] = [a * x + b * y for x, y in zip(rows[0], rng.choice(rows[:-1]))]
        for _ in range(rng.choice((0, 1, 1, 2))):
            rows.insert(rng.randint(0, len(rows)), [0] * ncols)
        expected = ref_rank(rows)
        assert int_rank(rows) == expected, rows
        _, pivots = int_echelon(rows, ncols)
        early += expected == m and pivots[-1] < ncols - 1
        dependent += expected < m
    assert early > 1500 and dependent > 500, (early, dependent)


def _kernel_matrix(rng):
    """(rows, ncols): rational rows with zero, duplicate, parallel and combined rows.

    About one matrix in seven has no rows, and some rows are "p/q" strings.
    """
    ncols = rng.randint(1, 6)
    rows = []
    for _ in range(rng.randint(0, 6)):
        kind = rng.random()
        if rows and kind < 0.15:
            rows.append(list(rng.choice(rows)))  # a duplicate
        elif rows and kind < 0.3:
            k = Fraction(rng.choice([-3, -2, -1, 2, 3]), rng.choice([1, 2, 5]))
            rows.append([k * x for x in rng.choice(rows)])  # a parallel row
        elif rows and kind < 0.45:
            a, b = rng.choice(rows), rng.choice(rows)
            s, t = _entry(rng, False), _entry(rng, False)
            rows.append([s * x + t * y for x, y in zip(a, b)])
        elif kind < 0.55:
            rows.append([0] * ncols)
        else:
            rows.append([_entry(rng, rng.random() < 0.3) for _ in range(ncols)])
    return [[str(x) for x in row] if rng.random() < 0.1 else row for row in rows], ncols


def test_int_nullspace_is_the_fraction_oracle_scaled():
    """Each vector is primitive, with last non-zero entry f > 0, and is f times the oracle's."""
    rng = random.Random(20261019)
    seen = {"no rows": 0, "dependent rows": 0, "zero kernel": 0, "kernel": 0}
    for _ in range(1500):
        rows, ncols = _kernel_matrix(rng)
        expected = ref_nullspace(rows, ncols)
        got = int_nullspace([clear_denominators([to_fraction(x) for x in r]) for r in rows], ncols)
        assert len(got) == len(expected), rows
        for vec, ref in zip(got, expected):
            assert all(type(x) is int for x in vec) and gcd(*vec) == 1, rows
            f = next(x for x in reversed(vec) if x)
            assert f > 0 and vec == tuple(f * x for x in ref), rows
        seen["no rows"] += not rows
        seen["dependent rows"] += len(rows) > ncols - len(expected)
        seen["zero kernel" if not expected else "kernel"] += 1
    assert min(seen.values()) >= 100, seen


def test_int_echelon_rows_are_multiples_of_rref_rows():
    rng = random.Random(20261020)
    signs = {1: 0, -1: 0}
    for _ in range(1000):
        rows, ncols = _kernel_matrix(rng)
        rref = [row for row in ref_row_echelon(rows) if any(row)]
        got, pivots = int_echelon([clear_denominators([to_fraction(x) for x in r]) for r in rows], ncols)
        assert pivots == [next(j for j, v in enumerate(row) if v) for row in rref], rows
        assert len(got) == len(rref)
        for row, ref, c in zip(got, rref, pivots):
            assert all(type(a) is int for a in row)
            assert row[c] != 0 and row == [row[c] * b for b in ref], rows
            signs[1 if row[c] > 0 else -1] += 1
    assert min(signs.values()) >= 100, signs


# -- exact input -------------------------------------------------------------------


@pytest.mark.parametrize(
    "call",
    [
        lambda: rank([[0.1, 1], [1, 10]]),
        lambda: rank([["1.5", 1]]),
        lambda: rank([[True, 1]]),
    ],
    ids=["rank-float", "rank-decimal-string", "rank-bool"],
)
def test_matrices_reject_inexact_entries(call):
    with pytest.raises(ValueError):
        call()


def test_matrices_read_rational_strings():
    assert rank([["1/10", 1], [1, 10]]) == 1


# -- one feasible point per candidate --------------------------------------------


def test_make_cell_solves_each_candidate_once(monkeypatch):
    """The unmodified system of a candidate is solved once, not once per query.

    Each candidate costs one feasibility solve and nothing more; a
    non-empty one reaches `_make_cell` with the point found, its relative
    interior point, and its tie pair, whether or not an LE row is tight
    there.  Tie rows are picked from the polynomial's difference table, and
    are the rows `ref_difference` writes.
    """
    f = parse_polynomial("x^2 + 1*x*y + y^2 + x + -1*y + 2*x*z + z^2 + 0", "poly", 3)
    terms = varieties._scaled_terms(f, 1)
    candidates = []
    pairs = {}
    tie_rows = varieties._tie_rows

    def recorded_tie_rows(table, i, j):
        rows = tie_rows(table, i, j)
        assert table == varieties._differences(terms)
        assert rows == [ref_difference(terms, i, j, EQ)] + [
            ref_difference(terms, k, i, LE) for k in range(len(terms)) if k not in (i, j)
        ]
        candidates.append(list(rows))
        pairs[tuple(rows)] = ((i, j),)
        return rows

    made = []
    original = varieties._make_cell

    def make_cell(candidate, scaled, scale, n):
        rows, found, pair = candidate
        made.append(list(rows))
        assert found == solve(rows, n)
        assert pair == pairs[tuple(rows)]
        return original(candidate, scaled, scale, n)

    solved = []
    solve = polyhedra._int_feasible_point

    def counted(rows, n):
        solved.append(list(rows))
        return solve(rows, n)

    monkeypatch.setattr(varieties, "_tie_rows", recorded_tie_rows)
    monkeypatch.setattr(varieties, "_make_cell", make_cell)
    monkeypatch.setattr(varieties, "_int_feasible_point", counted)
    monkeypatch.setattr(polyhedra, "_int_feasible_point", counted)
    varieties.hypersurface(f)
    assert len(candidates) == 28
    nonempty = []
    untight = 0
    for rows in candidates:
        assert solved.count(rows) == 1
        point = solve(rows, 3)
        if point is not None:
            nonempty.append(rows)
            nums, den = point
            untight += not any(
                rel == LE and sum(x * y for x, y in zip(a, nums)) == b * den for a, b, rel in rows
            )
    assert made == nonempty
    assert len(solved) == len(candidates) == 28
    assert 0 < untight < len(nonempty)
