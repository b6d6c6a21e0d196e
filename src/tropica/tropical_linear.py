"""Degree-truncated tropical linear algebra.

Vectors are ``Polynomial``s whose support lies in a fixed monomial window
(all monomials of total degree <= d in poly mode, or all exponents in
[-d, d]^n in Laurent mode).  The module provides span membership by max-plus
residuation, the monomial elimination axiom checked pairwise, and circuits
of tropicalized rational ideals under the trivial valuation.  There every
non-bottom coordinate is the unit, so a circuit, a witness and a membership
test are plain sets of monomials (frozensets of exponent tuples).  Each
triple of the axiom is decided in closed form: on circuits by one union of
the circuits inside a set (``elimination_witness``), on sampled members of
a prime by its term keys (``_witness_exists``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd
from typing import Callable

from .matrices import clear_denominators, int_echelon, int_nullspace, to_fraction, to_int
from .parsing import json_field, monomial_text, parse_monomial
from .polynomials import Exponents, LAURENT, POLY, Polynomial, _check_mode, to_exponents
from .primes import (
    GEOMETRIC,
    AdmissibleMatrix,
    _keys,
    classify_prime,
)
from .scalars import BOTTOM, ONE, TropScalar, is_bottom, trop_add, trop_mul

MAX_WINDOW_MONOMIALS = 20  # desk-scale cap for circuit enumeration
MAX_WINDOW_SIZE = 10_000  # the most entries (n per monomial) of a window monomial_window builds


@dataclass(frozen=True)
class MonomialWindow:
    """Canonically ordered (graded-lex) finite list of exponent vectors."""

    n: int
    mode: str
    degree: int
    monomials: tuple[Exponents, ...]

    def __len__(self) -> int:
        return len(self.monomials)


def window_order(expo: Exponents):
    """Graded-lex sort key of the window: total degree first, then the exponents."""
    return (sum(expo), expo)


def _monomials(n: int, mode: str, degree: int):
    """The window's monomials, lazily and unsorted."""
    if mode == LAURENT:
        return itertools.product(range(-degree, degree + 1), repeat=n)
    # stars and bars: the exponents are the gaps between n bars among n + d slots;
    # combinations copies its pool first, so with no bars there are no slots
    bars = itertools.combinations(range(n + degree), n) if n else [()]
    return (tuple(b - a - 1 for a, b in zip((-1, *c), c)) for c in bars)


def _window(n, mode: str, degree, cap: int, what: str, entries: bool = False) -> MonomialWindow:
    """The window, built one monomial at a time and refused once it passes ``cap``.

    The cap counts monomials, or with ``entries`` their entries, n per
    monomial: then a window in n >= 1 variables holds at most cap // n
    monomials.  When n >= 1 and d >= 1 the window holds 1 and each variable,
    and 1, x1, ..., x1^d, so more than max(n, d) monomials, and otherwise
    one: a window refused by that count is refused before any monomial is
    built.  Otherwise at most one monomial more than it may hold is built.
    """
    n = to_int(n, "window variable count")
    degree = to_int(degree, "window degree")
    if n < 0:
        raise ValueError("window variable count must be non-negative")
    if degree < 0:
        raise ValueError("window degree must be non-negative")
    _check_mode(mode)
    most = cap // n if entries and n else cap
    at_once = (max(n, degree) + 1 if min(n, degree) >= 1 else 1) > most
    monos = [] if at_once else list(itertools.islice(_monomials(n, mode, degree), most + 1))
    if at_once or len(monos) > most:
        unit = f" entries, {n} per monomial" if entries else ""
        raise ValueError(
            f"the degree-{degree} {mode} window in {n} variables has more than {most} "
            f"monomials; the cap {what} is {cap}{unit}"
        )
    monos.sort(key=window_order)
    return MonomialWindow(n, mode, degree, tuple(monos))


def monomial_window(n: int, mode: str, degree: int) -> MonomialWindow:
    """The window, refused when its entries, n per monomial, pass MAX_WINDOW_SIZE."""
    return _window(n, mode, degree, MAX_WINDOW_SIZE, "on monomial windows", entries=True)


def _require_same_ring(vectors) -> None:
    if len({(v.n, v.mode) for v in vectors}) > 1:
        raise ValueError("all vectors must have the same variable count and mode")


def span_membership(v: Polynomial, gens: list[Polynomial]) -> list[TropScalar] | None:
    """Largest coefficients with combination <= v, accepted when it equals v.

    The principal solution of the max-plus system: lambda_j is the minimum of
    v_i - g_j_i over the support of g_j (bottom when v is bottom somewhere on
    that support).  If even this combination misses v, nothing does.
    """
    _require_same_ring([v, *gens])
    lambdas: list[TropScalar] = []
    for g in gens:
        lam: TropScalar | None = None
        for expo, value in g.terms():
            target = v.coefficient(expo)
            if is_bottom(target):
                lam = BOTTOM
                break
            gap = target - value
            lam = gap if lam is None or (not is_bottom(lam) and gap < lam) else lam
        if lam is None:
            lam = BOTTOM  # the zero generator contributes nothing
        lambdas.append(lam)
    combo: dict[Exponents, TropScalar] = {}
    for lam, g in zip(lambdas, gens):
        if is_bottom(lam):
            continue
        for expo, value in g.terms():
            combo[expo] = trop_add(combo.get(expo, BOTTOM), trop_mul(lam, value))
    achieved = {k: val for k, val in combo.items() if not is_bottom(val)}
    if achieved == v.coeffs:
        return lambdas
    return None


def elimination_witness(
    f: frozenset[Exponents],
    g: frozenset[Exponents],
    u: Exponents,
    span: Callable[[frozenset[Exponents]], frozenset[Exponents]],
) -> frozenset[Exponents] | None:
    """The largest elimination-axiom witness of two circuits at a shared monomial u.

    Under the trivial valuation a vector is its support.  A witness h must
    drop u, hold every monomial of F = f xor g (where max(f_v, g_v) is the
    unit), may hold any tie of T = (f & g) - {u}, and must be a member: a
    union of circuits.  ``span(S)`` is the union of the circuits inside S.

    Lemma.  Let S = (f | g) - {u} = F | T and U = span(S).  A witness exists
    iff F <= U, and U is then the largest one.  Every witness is a union of
    circuits inside S, so it lies in U.  Conversely, when F <= U, U is
    F | (U & T), which has the witness shape, and it is a union of circuits.
    Witnesses are closed under union, so U is the unique largest witness,
    the first one a search over F | R (R <= T, most ties first) finds.
    When F is empty and no circuit lies in T, U is empty: h = 0.

    Returns U, or None when no witness exists.
    """
    u = tuple(u)
    if u not in f or u not in g:
        raise ValueError("u must lie in the supports of both f and g")
    union = span((f | g) - {u})
    return union if f ^ g <= union else None


@dataclass(frozen=True)
class AxiomResult:
    passed: bool
    counterexample: tuple[Polynomial, Polynomial, Exponents] | None = None


@dataclass(frozen=True)
class MembershipSample:
    """Sampled members of the bend ideal of a prime, with the prime itself."""

    samples: tuple[Polynomial, ...]
    prime: AdmissibleMatrix


@dataclass(frozen=True)
class CircuitSet:
    """Support-minimal vectors of a tropicalized ideal slice, as monomial sets.

    Under the trivial valuation every non-bottom coordinate is the unit, so
    a vector is its support: each circuit is a frozenset of exponent tuples.
    """

    window: MonomialWindow
    circuits: tuple[frozenset[Exponents], ...]

    @property
    def trivial(self) -> bool:
        """The constant monomial alone is a circuit: the slice holds 1."""
        return frozenset({(0,) * self.window.n}) in self.circuits

    def span(self, support: frozenset[Exponents]) -> frozenset[Exponents]:
        """The union of the circuits inside ``support``."""
        return frozenset().union(*(c for c in self.circuits if c <= support))

    def covers(self, support: frozenset[Exponents]) -> bool:
        """Whether ``support`` is a union of circuits (the empty set is the empty union)."""
        return self.span(support) == support

    def member(self, v: Polynomial) -> bool:
        """Unit values on a support that is a union of circuits."""
        if any(value != 0 for _, value in v.terms()):
            return False
        return self.covers(frozenset(v.support()))


def circuits_to_json(circuits: CircuitSet) -> dict:
    """Circuit JSON: each circuit as its sorted monomial texts, and whether the slice holds 1.

    Each window monomial is written once, and every circuit reads its texts.
    """
    window = circuits.window
    text = {e: monomial_text(e, window.n) for e in window.monomials}
    return {
        "nvars": window.n,
        "degree": window.degree,
        "mode": window.mode,
        "trivial": circuits.trivial,
        "circuits": [sorted(text[e] for e in c) for c in circuits.circuits],
    }


def circuits_from_json(data) -> CircuitSet:
    """Circuit JSON as a CircuitSet: monomials as ``circuits_to_json`` writes them, or exponents.

    ``mode`` defaults to poly, and ``trivial`` is not read: the circuits fix it.
    A circuit is a set, so a monomial written twice in one circuit, in either
    form, is malformed input.
    """
    if not isinstance(data, dict):
        raise ValueError("circuit JSON must be an object")
    n = to_int(json_field(data, "nvars", "circuit JSON"), "nvars")
    degree = to_int(json_field(data, "degree", "circuit JSON"), "degree")
    window = monomial_window(n, data.get("mode", POLY), degree)
    supports = json_field(data, "circuits", "circuit JSON")
    if not isinstance(supports, list) or not all(isinstance(c, list) for c in supports):
        raise ValueError('"circuits" must be an array of circuits, each an array of monomials')
    inside = set(window.monomials)

    def monomial(entry, where: str) -> Exponents:  # either form, in the window
        if isinstance(entry, str):
            expo = parse_monomial(entry, LAURENT, n, where)
        elif isinstance(entry, list):
            expo = tuple(to_int(e, "an exponent") for e in entry)
        else:
            raise ValueError(f"{where} {entry!r} is neither monomial text nor an exponent vector")
        if expo not in inside:
            raise ValueError(f"monomial {expo} is outside the window")
        return expo

    circuits = []
    for index, support in enumerate(supports):
        if not support:
            raise ValueError("a circuit must hold at least one monomial")
        where = f"circuit JSON: circuits[{index}]"
        circuit = frozenset(monomial(entry, f"{where} monomial") for entry in support)
        if len(circuit) < len(support):
            raise ValueError(f"{where} repeats a monomial")
        circuits.append(circuit)
    return CircuitSet(window, tuple(circuits))


def check_tropical_axiom(description) -> AxiomResult:
    """Run the monomial elimination axiom over all applicable pairs.

    ``description`` is either a CircuitSet (all circuit pairs, each shared
    monomial decided by ``elimination_witness`` on ``span``) or a
    MembershipSample (all sample pairs, decided on the prime's term keys,
    see ``_witness_exists``).  Pairs come in sample order, each pair's shared
    monomials in window order, and the first failing triple is returned;
    a failing circuit pair is returned as unit-coefficient polynomials.
    """
    if isinstance(description, MembershipSample):
        return _check_on_keys(description)
    if not isinstance(description, CircuitSet):
        raise TypeError("description must be a CircuitSet or MembershipSample")
    window = description.window
    for f, g in itertools.combinations_with_replacement(description.circuits, 2):
        for u in sorted(f & g, key=window_order):
            if elimination_witness(f, g, u, description.span) is None:
                f, g = (Polynomial(dict.fromkeys(c, ONE), window.n, window.mode) for c in (f, g))
                return AxiomResult(False, (f, g, u))
    return AxiomResult(True)


def _witness_exists(forced: list, ties: list, geometric: bool) -> bool:
    """Whether some witness candidate of one triple (f, g, u) is in the bend ideal.

    ``forced`` holds the keys of max(f_v, g_v) at the positions v != u where
    f and g differ (F), ``ties`` the keys of the tie positions other than u
    (T); all keys share one denominator.  A term's key grows with its
    coefficient, since the first non-zero entry of column 0 is positive, so
    the key of max(f_v, g_v) is the larger of the two keys.  A candidate h
    keeps F and a subset S of T at their values, and h is in the bend ideal
    iff its top key is attained twice (or h = 0).  With M the top key of F,
    a witness exists iff

    1. F is empty: dropping every tie gives h = 0;
    2. M occurs at least twice in F and T: keep the ties with key M;
    3. two ties share a key K > M: keep those two, and K is attained twice;
    4. the prime is geometric and some tie has a key above M: lowered to
       the level where its value at the point equals M, which is below its
       common value, that tie is a tie-level candidate, and M is attained
       twice.

    Conversely, if h = F + S has its top key K attained twice, then K = M
    gives (2) and K > M gives two ties of S at K, (3).  A tie-level
    candidate exists only at a geometric prime and needs a tie key >= M,
    which is (2) or (4).
    """
    if not forced:
        return True
    top = max(forced)
    if forced.count(top) + ties.count(top) >= 2:
        return True
    above = [key for key in ties if key > top]
    if geometric:
        return bool(above)
    return len(set(above)) < len(above)


def _check_on_keys(sample: MembershipSample) -> AxiomResult:
    """The axiom over a MembershipSample, each triple decided by ``_witness_exists``.

    One ``_keys`` call gives every term of every sample its key at one
    common denominator, so keys of different samples compare directly.  The
    triples and their order are those of the circuit check: a sample's
    ``terms()`` run in display order, so reversed they run in window order.
    Each triple costs O(ties).
    """
    prime, samples = sample.prime, sample.samples
    if any(f.n != prime.n for f in samples):
        raise ValueError(f"every sample must have {prime.n} variables, like the prime")
    _require_same_ring(samples)
    keys = iter(_keys(prime, [(coeff, expo) for f in samples for expo, coeff in f.terms()])[0])
    tables = [{expo: (coeff, next(keys)) for expo, coeff in f.terms()} for f in samples]
    geometric = classify_prime(prime)[0] == GEOMETRIC
    for i, j in itertools.combinations_with_replacement(range(len(samples)), 2):
        tf, tg = tables[i], tables[j]
        forced = [key for expo, (_, key) in tg.items() if expo not in tf]
        ties = []
        for expo in reversed(tf):
            coeff, key = tf[expo]
            other = tg.get(expo)
            if other is None:
                forced.append(key)
            elif other[0] != coeff:
                forced.append(max(key, other[1]))
            else:
                ties.append((expo, key))
        for u, _ in ties:
            others = [key for expo, key in ties if expo != u]
            if not _witness_exists(forced, others, geometric):
                return AxiomResult(False, (samples[i], samples[j], u))
    return AxiomResult(True)


# -- tropicalization of rational ideals (trivial valuation) -------------------


def _shift(expo: Exponents, by: Exponents) -> Exponents:
    return tuple(a + b for a, b in zip(expo, by))


def _parallel_representatives(int_basis, m: int) -> list[int]:
    """The first column of each parallel class of non-zero columns, in order.

    Two non-zero columns are parallel when one is a rational multiple of the
    other; dividing a column by its content, signed like its first non-zero
    entry, gives one key per class.  Zero columns (loops) are left out.
    """
    seen: set[tuple[int, ...]] = set()
    reps = []
    for j in range(m):
        column = [row[j] for row in int_basis]
        lead = next((a for a in column if a), 0)
        if not lead:
            continue
        content = gcd(*column) if lead > 0 else -gcd(*column)
        key = tuple(a // content for a in column)
        if key not in seen:
            seen.add(key)
            reps.append(j)
    return reps


def truncated_tropicalization(rational_gens: list[dict], n: int, degree: int) -> CircuitSet:
    """Circuits of the degree-truncated tropicalization of a rational ideal.

    ``rational_gens`` are classical polynomials over Q given as maps from
    exponent tuples to non-zero rational coefficients.  The degree-<= d slice
    of the ideal is the row space of the multiplication matrix (each
    generator shifted by every monomial that keeps it inside the window);
    under the trivial valuation its vectors are Boolean, so the circuits are
    exactly the support-minimal non-zero row-space vectors.

    The generators are cleared of denominators, and ``int_echelon`` of
    their shift rows gives the basis B (r x m) with pivot columns p_1..p_r.
    Row k of B is D_k != 0 times row k of the reduced row echelon form R.
    Scaling the rows by D = diag(D_k) maps column c to D c, so B has the
    parallel classes of R, and its row space, so every null-vector support.

    Lemma (Oxley, *Matroid Theory*, Prop. 2.1.6).  Let M be the matroid of
    the columns of B on the window E.  The support-minimal row-space vectors
    are the cocircuits of M, and the cocircuits are exactly the complements
    E - H of the hyperplanes H (the flats of rank r - 1).  For a set T of
    columns, the row-space vectors vanishing on T form a space of dimension
    r - rank(T), and their common zero set is the closure cl(T).  Every v in
    the row space is sum_k (v[p_k] / D_k) b_k, since b_k is zero at the
    other pivots, so v vanishes on T iff it combines only the live rows
    (pivot outside T) and vanishes on the free columns of T: the left null
    space of the live rows restricted to those columns (``int_nullspace`` of
    the transpose).

    The hyperplanes are found by walking the (r - 1)-subsets T of one
    representative per parallel class of non-zero columns, in lex order
    (loops and parallel columns lie in the same flats as the rest of their
    class).  A T inside a flat already recorded is skipped: then cl(T) lies
    in that flat, so T is dependent or spans a hyperplane already found.
    Otherwise one null-space solve gives cl(T), which is recorded; nullity 1
    means a new hyperplane, whose complement (the support of the one null
    vector) is a circuit, and a larger nullity records a smaller flat.
    Every hyperplane H is found: its lex-first independent (r - 1)-subset of
    representatives is either solved, giving H, or lies in a recorded flat
    of rank >= r - 1, which can only be H itself.

    The recorded flats are indexed by column: bit k of ``flats[j]`` says
    that column j lies in the k-th recorded flat.  So T lies in a recorded
    flat iff the AND of ``flats[j]`` over j in T, started from the mask of
    all recorded flats, is non-zero.  Over the empty T of a rank-1 slice
    the AND is that mask, 0 before the first solve, so the empty T is solved.
    """
    window = _window(n, POLY, degree, MAX_WINDOW_MONOMIALS, "for circuit enumeration")
    n, degree = window.n, window.degree
    gen_maps = []
    for g in rational_gens:
        coeffs = {to_exponents(e, n, POLY): to_fraction(c) for e, c in g.items()}
        clean = {e: c for e, c in coeffs.items() if c != 0}
        if not clean:
            continue
        gdeg = max(sum(e) for e in clean)
        if gdeg > degree:
            raise ValueError(f"generator degree {gdeg} exceeds the window degree {degree}")
        gen_maps.append((dict(zip(clean, clear_denominators(clean.values()))), gdeg))
    m = len(window)
    columns = {expo: i for i, expo in enumerate(window.monomials)}
    rows = []
    for terms, gdeg in gen_maps:
        for shift in window.monomials:
            if sum(shift) > degree - gdeg:
                continue
            row = [0] * m
            for expo, coeff in terms.items():
                row[columns[_shift(expo, shift)]] = coeff
            rows.append(row)
    basis, pivots = int_echelon(rows, m)
    if not basis:
        return CircuitSet(window, ())
    flats = [0] * m  # bit k of flats[j]: column j lies in the k-th recorded flat
    recorded = 0  # the mask of all recorded flats
    circuits: list[int] = []
    for subset in itertools.combinations(_parallel_representatives(basis, m), len(basis) - 1):
        common = recorded
        for j in subset:
            common &= flats[j]
        if common:
            continue  # T lies in a recorded flat
        live = [row for row, p in zip(basis, pivots) if p not in subset]
        restricted = [[row[j] for row in live] for j in subset if j not in pivots]
        null = int_nullspace(restricted, len(live))
        outside = 0
        for ys in null:
            vector = [0] * m
            for y, row in zip(ys, live):
                if y:
                    vector = [a + y * b for a, b in zip(vector, row)]
            outside |= sum(1 << j for j, value in enumerate(vector) if value)
        flat = recorded + 1  # recorded is 2^k - 1 after k flats, so this is bit k
        for j in range(m):
            if not outside >> j & 1:
                flats[j] |= flat
        recorded |= flat
        if len(null) == 1:
            circuits.append(outside)
    supports = sorted([j for j in range(m) if c >> j & 1] for c in circuits)
    return CircuitSet(window, tuple(frozenset(window.monomials[j] for j in c) for c in supports))
