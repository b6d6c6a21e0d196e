"""Each polynomial is built once: the parser, the prime sampler and the trace reader.

The oracles are those of `oracles.parsing` and `oracles.sampling`:
`ref_parse_polynomial` is the former term-by-term fold of
`parse_polynomial` (one polynomial per term, summed one at a time), and
`ref_cli_polynomials` the former two-pass reading of `--poly` texts without
`--nvars`.  `ref_random_member_polynomial` and `ref_point_members` are the
one geometric draw loop, which the tests build their geometric samples
from: `tropica` draws no member of a geometric prime, which passes the
elimination axiom by lemma (a).  `ref_prime_members` decides each draw and
its partner by the top key of its terms over the prime's integer rows.
Where `ref_prime_members` draws no member, `prime_members` raises instead
(`assert_no_member_error`).
"""

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from tropica import parsing, traces
from tropica.parsing import ParseError, parse_polynomial, parse_polynomials
from tropica.polynomials import LAURENT, POLY, Polynomial
from tropica.primes import (
    AdmissibilityError,
    bend_ideal_member,
    check_admissible,
    geometric_prime_of_point,
    variety_of_prime,
)
from tropica.sampling import prime_members, random_admissible, random_point, window_admits_member
from tropica.tropical_linear import monomial_window

from oracles.matrices import dot, rank
from oracles.parsing import outcome, ref_cli_polynomials, ref_parse_polynomial
from oracles.sampling import (
    assert_no_member_error,
    ref_point_members,
    ref_prime_members,
    ref_random_member_polynomial,
    tied_prime,
)

REPO = Path(__file__).resolve().parent.parent

# -- the parser ------------------------------------------------------------------

_LETTERS = ("x", "y", "z", "w")


def _random_text(rng):
    """Grammar text with repeated monomials, -inf terms and, now and then, a defect."""
    names = _LETTERS if rng.random() < 0.6 else tuple(f"x{i}" for i in range(1, 6))
    names = names[: rng.randint(1, len(names))]
    monomials = []
    for _ in range(rng.randint(1, 4)):
        factors = []
        for name in rng.sample(names, rng.randint(1, len(names))):
            power = rng.choice((1, 1, 2, 3, -1, -2, 0))
            factors.append(name if power == 1 and rng.random() < 0.7 else f"{name}^{power}")
        monomials.append("*".join(factors))
    terms = []
    for _ in range(rng.randint(1, 6)):
        coeff = rng.choice(("", "", "0", "3", "-1", "7/2", "-5/3", "-inf", "12"))
        monomial = rng.choice(monomials + [""])
        if not monomial:
            terms.append(coeff or "0")
        else:
            terms.append(f"{coeff}*{monomial}" if coeff else monomial)
    text = " + ".join(terms)
    if rng.random() < 0.15:
        at = rng.randrange(len(text) + 1)
        text = text[:at] + rng.choice(("*", "+", "^", "q", "1/0", " ", "x1")) + text[at:]
    return text


def test_parser_matches_fold_oracle():
    rng = random.Random(20)
    parsed = errors = 0
    for _ in range(1500):
        text = _random_text(rng)
        mode = rng.choice((LAURENT, POLY))
        nvars = rng.choice((None, None, 1, 3, 5))
        got = outcome(parse_polynomial, text, mode, nvars)
        assert got == outcome(ref_parse_polynomial, text, mode, nvars), text
        if got[0] == "ok":
            parsed += 1
            assert got[1].terms() == ref_parse_polynomial(text, mode, nvars).terms()
        else:
            errors += 1
    assert parsed > 400 and errors > 200


@pytest.mark.parametrize(
    "text, mode, expected",
    [
        ("1*x + 3*x + -2*x", LAURENT, {(1,): Fraction(3)}),
        ("-inf*x + -inf + y", LAURENT, {(0, 1): Fraction(0)}),
        ("-inf*x + 2*x", POLY, {(1,): Fraction(2)}),
        ("-inf", LAURENT, {}),
        ("x*x^-1 + 0", LAURENT, {(0,): Fraction(0)}),
    ],
)
def test_parser_folds_terms(text, mode, expected):
    assert parse_polynomial(text, mode).coeffs == expected


@pytest.mark.parametrize(
    "text, mode, message",
    [
        ("x + y^-1", POLY, "negative exponents are not allowed in poly mode (at position 0)"),
        ("-inf*x^-1", POLY, "negative exponents are not allowed in poly mode (at position 0)"),
        (3, LAURENT, "expected polynomial text, got int (at position 0)"),
        (None, POLY, "expected polynomial text, got NoneType (at position 0)"),
        (["x"], LAURENT, "expected polynomial text, got list (at position 0)"),
    ],
)
def test_parser_errors_kept(text, mode, message):
    with pytest.raises(ParseError) as exc:
        parse_polynomial(text, mode)
    assert str(exc.value) == message


def test_parse_polynomials_matches_two_pass_reading():
    rng = random.Random(21)
    for _ in range(400):
        texts = [_random_text(rng) for _ in range(rng.randint(1, 4))]
        mode = rng.choice((LAURENT, POLY))
        nvars = rng.choice((None, None, 2, 4, 0, -1))
        assert outcome(parse_polynomials, texts, mode, nvars) == outcome(
            ref_cli_polynomials, texts, mode, nvars
        ), texts


# -- the point sampler ------------------------------------------------------------


def _case(seed):
    """(point, window, count) for one seed; the two modes alternate."""
    rng = random.Random(seed)
    n = 1 + seed % 3
    mode = POLY if seed % 2 else LAURENT
    degree = rng.randint(1, 3 if n == 1 else 2)
    point = random_point(rng, n, -3, 3, 4)
    if rng.random() < 0.2:  # points given as strings and ints
        point = tuple(str(x) if x.denominator > 1 else int(x) for x in point)
    return point, monomial_window(n, mode, degree), rng.randint(0, 12)


def test_point_members_lie_in_the_geometric_prime():
    # the geometric draw loop against the package's own membership test;
    # x + c at the origin holds 19 members: the last three cases run out of draws
    small = [((Fraction(0),), monomial_window(1, POLY, 1), 20)] * 3
    exhausted = 0
    for seed, (point, window, count) in enumerate([_case(seed) for seed in range(420)] + small):
        sample = ref_point_members(random.Random(seed), point, window, count)
        assert sample.prime == geometric_prime_of_point(point)
        w = variety_of_prime(sample.prime)
        assert len(set(sample.samples)) == len(sample.samples) <= count
        for v in sample.samples:
            assert v.degree() <= window.degree and v.vanishes_at(w), seed
            assert bend_ideal_member(sample.prime, v), seed
        exhausted += len(sample.samples) < count
    assert exhausted >= 3


def test_random_member_polynomial_lies_in_the_geometric_prime():
    for seed in range(400):
        rng = random.Random(seed)
        n = rng.randint(1, 4)
        point = random_point(rng, n, -4, 4, 5)
        mode = rng.choice((LAURENT, POLY))
        max_extra, max_deg = rng.randint(0, 4), rng.randint(1, 3)
        f = ref_random_member_polynomial(rng, point, mode, max_extra, max_deg)
        assert 2 <= len(f.support()) <= 2 + max_extra, seed
        assert all(abs(e) <= max_deg for expo in f.support() for e in expo)
        assert f.vanishes_at(point), seed
        assert bend_ideal_member(geometric_prime_of_point(point), f), seed


_SAMPLER_ERRORS = [
    ("member", ((Fraction(1),), POLY, 3, 0), "member polynomials need max_deg >= 1"),
    ("member", ((0.5,), POLY), "floating point values are not allowed"),
    ("member", ((0.5,), POLY, 3, 0), "member polynomials need max_deg >= 1"),
    ("member", (("1/0",), LAURENT), "zero denominator in '1/0'"),
    ("points", ((Fraction(0),), monomial_window(1, POLY, 0), 1), "member polynomials need max_deg >= 1"),
    ("points", ((0.1,), monomial_window(1, POLY, 2), 3), "floating point values are not allowed"),
]


@pytest.mark.parametrize(
    "call, args, message",
    _SAMPLER_ERRORS,
    ids=[f"{call}-args{i}" for i, (call, _, _) in enumerate(_SAMPLER_ERRORS)],
)
def test_sampler_errors_kept(call, args, message):
    # the geometric draw loop rejects its input before any draw
    sampler = (ref_random_member_polynomial, ref_point_members)[call == "points"]
    rng = random.Random(0)
    state = rng.getstate()
    got = outcome(sampler, rng, *args)
    assert got[0] == "ValueError" and got[1].startswith(message)
    assert rng.getstate() == state


def test_point_members_count_zero_draws_nothing():
    # a degree-0 window raises only once a draw is made, as before
    rng = random.Random(0)
    state = rng.getstate()
    assert ref_point_members(rng, (Fraction(0),), monomial_window(1, POLY, 0), 0).samples == ()
    assert rng.getstate() == state


# -- the prime sampler ------------------------------------------------------------


def _prime_case(seed):
    """(matrix, window, count) for one seed: every mode and row count.

    Blocks of nine seeds cycle through three kinds of prime.  Seven blocks
    in ten draw a 0/1 prime of rank <= n (``tied_prime``), whose windows
    mostly hold members.  One draws ``random_admissible`` of any rank, with
    ``first_entry`` cycling through its three values: a full-rank prime
    lets no two monomials tie.  Two draw a prime whose only ties raise e_n
    by one at the coefficient gap 4 (a pair drawn at exactly 2 and -2), with
    count 1: its 200 draws often hit no member.
    """
    rng = random.Random(20_000 + seed)
    n = 1 + seed % 3
    mode = POLY if seed % 2 else LAURENT
    degree = 1 if (n == 3 and mode == LAURENT) else rng.randint(1, 2)
    first = ("any", "zero", "positive")[seed // 3 % 3]
    kind = seed // 9 % 10
    if kind < 7:
        matrix = tied_prime(rng, n, rng.randint(1, n))
    elif kind == 7:
        matrix = random_admissible(rng, n, rng.randint(1, n + 1), first)
    else:
        rows = [[0] * (n + 1) for _ in range(n)]
        for i in range(1, n):
            rows[i - 1][i] = 1
        rows[n - 1][0], rows[n - 1][n] = 1, rng.choice((4, -4))
        return check_admissible(rows, n), monomial_window(n, mode, 2 if n < 3 else 1), 1
    return matrix, monomial_window(n, mode, degree), rng.randint(1, 10)


def test_prime_members_match_key_loop():
    over = short = compared = 0  # a partner passed count; the draws ran out first
    none = {True: 0, False: 0}  # no member drawn, by whether a drawable tie exists
    for seed in range(300):
        matrix, window, count = _prime_case(seed)
        ours, theirs = random.Random(seed), random.Random(seed)
        expected = ref_prime_members(theirs, matrix, window, count)
        if not expected.samples:
            none[assert_no_member_error(ours, matrix, window, count, theirs.getstate())] += 1
            continue
        sample = prime_members(ours, matrix, window, count)
        assert sample.samples == expected.samples, seed
        assert [f.terms() for f in sample.samples] == [f.terms() for f in expected.samples]
        assert ours.getstate() == theirs.getstate(), seed
        assert sample.prime == matrix
        compared += 1
        over += len(sample.samples) > count
        short += len(sample.samples) < count
    assert compared >= 200 and over >= 10 and short >= 5, (compared, over, short)
    assert min(none.values()) >= 20, none


@pytest.mark.parametrize(
    "matrix, window",
    [
        ([[0, 1, 1]], monomial_window(2, POLY, 0)),  # one monomial
        ([[0, 1]], monomial_window(2, POLY, 1)),  # another ring
    ],
)
def test_prime_members_errors_kept(matrix, window):
    matrix = check_admissible(matrix, len(matrix[0]) - 1)
    got = outcome(prime_members, random.Random(0), matrix, window, 5)
    assert got[0] == "ValueError"
    assert got == outcome(ref_prime_members, random.Random(0), matrix, window, 5)


def _small_prime(rng, n, nrows):
    """An admissible matrix of integers in -6..6, column 0 signed as admissibility asks."""
    while True:
        rows = [[rng.randint(-6, 6) for _ in range(n + 1)] for _ in range(nrows)]
        pivot = next((row for row in rows if row[0]), None)
        if pivot is not None and pivot[0] < 0:
            pivot[:] = [-a for a in pivot]
        try:
            return check_admissible(rows, n)
        except AdmissibilityError:
            continue


def test_window_admits_member_matches_pairwise_ties():
    # draws have coefficients in -2..2: a pair ties at an integer gap in -4..4
    # iff U (gap, e1 - e2) = 0 for one of those gaps.  A pair ties at some
    # rational gap iff U[:, 1:] (e1 - e2) is a multiple of U[:, 0]: windows
    # with only such ties are counted too
    rng = random.Random(18)
    seen = {True: 0, False: 0}
    some_tie = 0  # windows with a tie, none of them at a drawable gap
    for _ in range(400):
        n = rng.randint(1, 3)
        mode = rng.choice((LAURENT, POLY))
        matrix = _small_prime(rng, n, rng.randint(1, n))
        window = monomial_window(n, mode, rng.randint(1, 4 - n))
        expected = any(
            all(dot(row, (gap, *(a - b for a, b in zip(e1, e2)))) == 0 for row in matrix.rows)
            for e1, e2 in itertools.combinations(window.monomials, 2)
            for gap in range(-4, 5)
        )
        assert window_admits_member(matrix, window) is expected
        if not expected:
            column = [row[0] for row in matrix.rows]
            some_tie += any(
                rank([column, [dot(row[1:], [a - b for a, b in zip(e1, e2)]) for row in matrix.rows]])
                == rank([column])
                for e1, e2 in itertools.combinations(window.monomials, 2)
            )
            draws = random.Random(0)
            with pytest.raises(ValueError, match="no member can be drawn"):
                prime_members(draws, matrix, window, 2)
            assert draws.getstate() == random.Random(0).getstate()  # raised before any draw
        seen[expected] += 1
    assert min(seen.values()) >= 50 and some_tie >= 50, (seen, some_tie)


# -- construction counts ------------------------------------------------------------


@pytest.fixture
def constructions(monkeypatch):
    """The number of Polynomial constructions so far, as a one-element list.

    A polynomial is built by ``Polynomial(...)`` or, from terms the library
    already holds, by ``Polynomial._of``; both are counted.
    """
    count = [0]
    init, of = Polynomial.__init__, Polynomial._of

    def counting(self, *args, **kwargs):
        count[0] += 1
        init(self, *args, **kwargs)

    def counting_of(*args):
        count[0] += 1
        return of(*args)

    monkeypatch.setattr(Polynomial, "__init__", counting)
    monkeypatch.setattr(Polynomial, "_of", staticmethod(counting_of))
    return count


@pytest.mark.parametrize(
    "text", ["x", "3*x^2*y + 0*x + -1", "1*x + 3*x + -inf*y + 2 + 7/2*x*y*z", "-inf"]
)
def test_one_construction_per_parse(constructions, text):
    parse_polynomial(text, LAURENT)
    assert constructions[0] == 1


def test_prime_members_build_one_polynomial_per_member(constructions):
    # [[0, 1, 1]] at degree 2: few members exist, so most accepted draws repeat
    matrix = check_admissible([[0, 1, 1]], 2)
    sample = prime_members(random.Random(3), matrix, monomial_window(2, LAURENT, 2), 200)
    assert constructions[0] == len(sample.samples) == len(set(sample.samples))
    sampled = 0
    for seed in range(20):
        matrix, window, count = _prime_case(seed)
        constructions[0] = 0
        got = outcome(prime_members, random.Random(seed), matrix, window, count)
        built = got[1].samples if got[0] == "ok" else ()  # no member drawn: an error, nothing built
        assert constructions[0] == len(built) == len(set(built))
        sampled += bool(built)
    assert sampled >= 3, sampled


def test_trace_reader_parses_each_distinct_text_once(monkeypatch):
    texts = []
    parse = traces.parse_polynomial

    def counting(text, *args):
        texts.append(text)
        return parse(text, *args)

    monkeypatch.setattr(traces, "parse_polynomial", counting)
    for path in sorted((REPO / "traces").glob("*.json")):
        before = len(texts)
        traces.load_trace(path)
        assert len(set(texts[before:])) == len(texts) - before, path.name
    assert len(texts) == 46


def test_trace_reader_shares_repeated_texts():
    data = json.loads((REPO / "traces" / "monomial_bridge.json").read_text())
    trace = traces.trace_from_json(data)
    assert trace == traces.trace_from_json(json.loads(json.dumps(data)))
    first = trace.steps[0].conclusion.left
    assert first is trace.generators[trace.steps[0].args[0]]


def test_cli_reads_each_text_once(monkeypatch, capsys):
    from tropica.cli import main

    read = []
    read_terms = parsing._read_terms

    def counting(text, *args, **kwargs):
        read.append(text)
        return read_terms(text, *args, **kwargs)

    monkeypatch.setattr(parsing, "_read_terms", counting)
    assert main(["prevariety", "--poly", "x + y + 0", "--poly", "x + z + 1"]) == 0
    assert read == ["x + y + 0", "x + z + 1"]
    capsys.readouterr()
