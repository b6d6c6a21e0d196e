"""`tideal-check` on geometric primes, decided by lemma (a) with no sample check.

`ref_cmd_tideal_check` (`oracles.cli`) is the former handler of
`tideal-check`: it draws the full sample of `ref_point_members` (the
geometric draw loop of `oracles.sampling`) or `prime_members` and runs
`check_tropical_axiom` on it, for every prime.
The oracle test runs it through `cli.main`'s error handling and
compares stdout, stderr and exit code byte for byte with the handler that
decides geometric primes by lemma (a) (the `cli._cmd_tideal_check`
docstring).  On a geometric `--matrix` the two differ only where the
former draws found no member, which now passes, and at degree 0, which now
gives the `--point` message (`expected_answer`).  The lemma test runs the
full check on geometric samples of both samplers.
"""

import json
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from tropica import cli, sampling
from tropica.polynomials import LAURENT, POLY
from tropica.primes import GEOMETRIC, check_admissible, classify_prime, matrix_from_json
from tropica.sampling import prime_members, random_admissible, random_point
from tropica.tropical_linear import check_tropical_axiom, monomial_window

from oracles.cli import ref_run_cli, run_cli
from oracles.sampling import ref_point_members, tied_prime

RARE = ["tideal-check", "--matrix", '[[1,"1/3","2/3"]]', "--mode", "poly", "--degree", "3"]
RARE_WINDOWS = [
    ('[[1,"1/3","2/3"]]', POLY, 3),
    ('[[1,"7/4","-4/3","-8/5"]]', POLY, 3),
    ('[[1,"-4/3","2/5","7/4"]]', LAURENT, 2),
    ('[[1,"5/4","-4/5"]]', LAURENT, 3),
    ('[[1,"-2/5","-3/2","5/3"]]', LAURENT, 2),
]

PASSED = '{\n  "passed": true\n}\n'
DEGREE_ERROR = (
    '{"error": "domain", "message": "member polynomials need max_deg >= 1 (two distinct exponents)"}\n'
)


def _geometric(argv) -> bool:
    """Whether the --matrix of ``argv`` is an admissible geometric prime."""
    if "--matrix" not in argv:
        return False
    try:
        matrix = matrix_from_json(json.loads(argv[argv.index("--matrix") + 1]))
    except ValueError:
        return False
    return classify_prime(matrix)[0] == GEOMETRIC


def expected_answer(argv, former):
    """The former handler's (code, stdout, stderr), as lemma (a) changes it on a geometric --matrix.

    Where its draws found no member ("no member in", "no member can be
    drawn") the prime passes, and a degree-0 window gives the --point
    message; every other answer is the former one.
    """
    if not _geometric(argv):
        return former
    outcome = _outcome(*former)
    if outcome in ("no member in", "no member can be drawn"):
        return 0, "passed: True\n" if "text" in argv else PASSED, ""
    if outcome == "monomial; a member":
        return 1, "", DEGREE_ERROR
    return former


# -- seeded argv --------------------------------------------------------------------


def _rational(rng, lo=-3, hi=3, max_den=3) -> str:
    q = Fraction(rng.randint(lo, hi), rng.randint(1, max_den))
    return str(q)


def _json_entry(text: str):
    return int(text) if "/" not in text else text


def _matrix(rng, n):
    """Matrix rows of one kind, the kind's name first."""
    kind = rng.choice(("geometric", "geometric", "rare", "rare", "degree", "tied", "any", "bad"))
    if kind == "geometric":
        first = str(Fraction(rng.randint(1, 3), rng.randint(1, 3)))
        return kind, [[_json_entry(first), *(_json_entry(_rational(rng)) for _ in range(n))]]
    if kind == "rare":  # a tie needs a drawable gap from entries with denominators 2..5
        entries = (str(Fraction(rng.randint(-8, 8), rng.randint(2, 5))) for _ in range(n))
        return kind, [[1, *map(_json_entry, entries)]]
    if kind == "degree":  # column 0 is zero: never geometric
        row = [0, *(rng.randint(-1, 1) for _ in range(n))]
        row[rng.randint(1, n)] = 1
        return kind, [row]
    if kind == "tied":
        rows = tied_prime(rng, n, rng.randint(1, n + 1)).rows
        return kind, [[_json_entry(str(x)) for x in row] for row in rows]
    if kind == "any":  # dependent rows and a negative column 0 are errors
        return kind, [[rng.randint(-2, 2) for _ in range(n + 1)] for _ in range(rng.randint(1, n + 1))]
    bad = rng.choice((1.5, True, "1.5", "1/0", None))
    rows = [[1, *(0 for _ in range(n))]]
    rows[0][rng.randint(0, n)] = bad
    if rng.random() < 0.3:
        rows.append([1])  # ragged
    return kind, rows


def _argv(rng):
    """One seeded tideal-check command line for --point or --matrix, and its input kind."""
    n = rng.randint(1, 3)
    if rng.random() < 0.4:
        kind = "point"
        source = ["--point=" + ",".join(_rational(rng) for _ in range(n))]
        if rng.random() < 0.03:
            source = ["--point=" + rng.choice(("1,,2", "x", "1.5", "2,"))]
    else:
        kind, rows = _matrix(rng, n)
        source = ["--matrix", json.dumps(rows, separators=(",", ":"))]
    argv = ["tideal-check", *source]
    mode = rng.choice((None, POLY, LAURENT))
    if mode:
        argv += ["--mode", mode]
    degree = rng.choice((None, -1, 0, 1, 1, 2, 2, 3, 3, 40))
    trials = rng.choice((None, -1, 0, 1001, 1000, *range(1, 21)))
    if kind == "rare" and trials in range(1, 21):  # few draws: often no member
        trials = rng.randint(1, 3)
    if trials == 1000:  # the former handler would draw for seconds: an error before any draw
        degree = rng.choice((-1, 0))
    if degree == 40 and n < 3:  # past the window cap only at n = 3
        degree = 3
    if degree is not None:
        argv += ["--degree", str(degree)]
    if trials is not None:
        argv += ["--trials", str(trials)]
    if rng.random() < 0.7:
        argv += ["--seed", str(rng.randint(0, 10**6))]
    if rng.random() < 0.2:
        argv += ["--format", rng.choice(("text", "json"))]
    if rng.random() < 0.02:
        argv += ["--point", "0"] if kind != "point" else ["--matrix", "[[1,0]]"]
    return kind, argv


def _outcome(code, out, err):
    if code == 0:
        return "counterexample" if "counterexample" in out else "passed"
    for reason in (
        "no member in", "no member can be drawn", "max_deg >= 1", "--trials must",
        "monomials; the cap", "monomial; a member", "takes one of",
    ):
        if reason in err:
            return reason
    return f"exit {code}"


def test_cli_matches_the_former_handler(capsys, monkeypatch):
    rng = random.Random(2026)
    seen: dict[str, int] = {}
    kinds: dict[tuple[str, str], int] = {}
    text = 0  # --format text lines that printed a verdict
    changed = 0  # geometric answers that lemma (a) changes
    for _ in range(1200):
        kind, argv = _argv(rng)
        former = ref_run_cli(argv, capsys, monkeypatch)
        expected = expected_answer(argv, former)
        assert run_cli(argv, capsys) == expected, argv
        changed += expected != former
        outcome = _outcome(*former)
        seen[outcome] = seen.get(outcome, 0) + 1
        kinds[kind, outcome] = kinds.get((kind, outcome), 0) + 1
        text += "text" in argv and expected[0] == 0
    assert seen["passed"] >= 150 and seen["counterexample"] >= 30, seen
    for reason in ("no member can be drawn", "monomial; a member", "max_deg >= 1", "--trials must"):
        assert seen.get(reason, 0) >= 20, (reason, seen)
    for reason in ("monomials; the cap", "takes one of", "exit 1", "exit 2"):
        assert seen.get(reason, 0) >= 5, (reason, seen)
    assert seen.get("no member in", 0) >= 1, seen  # mostly left to the rare-window test
    for kind in ("point", "geometric", "rare"):
        assert kinds.get((kind, "passed"), 0) >= 50, kinds
    assert text >= 20, text
    assert changed >= 20, changed


def test_rare_member_windows_match_the_former_handler(capsys, monkeypatch):
    # geometric windows where one draw in tens to hundreds finds a member, so
    # --trials 1..3 gives a member on some seeds and "no member in" on others
    seen: dict[str, int] = {}
    for matrix, mode, degree in RARE_WINDOWS:
        for trials in (1, 2, 3):
            for seed in range(8):
                argv = ["tideal-check", "--matrix", matrix, "--mode", mode, "--degree", str(degree),
                        "--trials", str(trials), "--seed", str(seed)]
                former = ref_run_cli(argv, capsys, monkeypatch)
                assert run_cli(argv, capsys) == expected_answer(argv, former) == (0, PASSED, ""), argv
                outcome = _outcome(*former)
                seen[outcome] = seen.get(outcome, 0) + 1
    assert seen.get("passed", 0) >= 20 and seen.get("no member in", 0) >= 20, seen


# -- no draws beyond the answer --------------------------------------------------------


def _no_draws(monkeypatch, what):
    """Every draw loop, and the RNG the CLI seeds, fail the test naming ``what``."""

    def no_draws(*_):
        raise AssertionError(f"drew a member for {what}")

    monkeypatch.setattr(sampling, "prime_members", no_draws)
    monkeypatch.setattr(cli, "prime_members", no_draws)
    monkeypatch.setattr(cli, "random", SimpleNamespace(Random=no_draws))


@pytest.mark.parametrize(
    "args",
    [
        ["--point", "0,0", "--degree", "2"],
        ["--point", "1/2,-3,2", "--mode", "poly", "--degree", "3", "--seed", "7"],
        ["--point", "5", "--mode", "laurent", "--degree", "40", "--format", "text"],
    ],
)
def test_point_makes_no_draw(capsys, monkeypatch, args):
    _no_draws(monkeypatch, "--point")
    code, out, err = run_cli(["tideal-check", *args, "--trials", "1000"], capsys)
    assert (code, err) == (0, "")
    assert out == ("passed: True\n" if "text" in args else '{\n  "passed": true\n}\n')


@pytest.mark.parametrize(
    "args",
    [
        ["--mode", "poly", "--degree", "3"],
        ["--mode", "poly", "--degree", "1"],  # no member that draws can hit
        ["--mode", "laurent", "--degree", "2", "--seed", "5", "--format", "text"],
    ],
)
def test_geometric_matrix_makes_no_draw(capsys, monkeypatch, args):
    _no_draws(monkeypatch, "a geometric --matrix")
    code, out, err = run_cli([*RARE[:3], *args, "--trials", "1000"], capsys)
    assert (code, err) == (0, "")
    assert out == ("passed: True\n" if "text" in args else PASSED)


def test_point_degree_zero_is_still_an_error(capsys):
    code, out, err = run_cli(["tideal-check", "--point", "0", "--degree", "0"], capsys)
    assert code == 1 and out == ""
    assert "member polynomials need max_deg >= 1 (two distinct exponents)" in err


@pytest.mark.parametrize("matrix", ["[[1,0]]", '[["1/2",3,4]]'])
def test_geometric_matrix_degree_zero_gives_the_point_message(capsys, matrix):
    # the draws said "the window holds 1 monomial; a member needs two terms"
    code, out, err = run_cli(["tideal-check", "--matrix", matrix, "--degree", "0"], capsys)
    assert (code, out, err) == (1, "", DEGREE_ERROR)


def test_non_geometric_matrix_draws_its_full_sample(capsys, monkeypatch):
    samples = []

    def kept(*args):
        samples.append(prime_members(*args))
        return samples[-1]

    monkeypatch.setattr(cli, "prime_members", kept)
    code, out, _ = run_cli(["tideal-check", "--matrix", "[[0,1,1]]", "--degree", "2"], capsys)
    assert code == 0 and '"passed": false' in out
    assert len(samples) == 1 and len(samples[0].samples) >= 2


def test_geometric_matrix_passes_where_draws_find_no_member(capsys):
    # [[1,1/3,2/3]] in poly degree 1: x and y tie at no coefficient gap draws can hit,
    # which was the error "no member can be drawn"
    argv = ["tideal-check", "--matrix", '[[1,"1/3","2/3"]]', "--mode", "poly", "--degree", "1"]
    assert run_cli(argv, capsys) == (0, PASSED, "")
    # under [[1,5/4,-4/5]] in Laurent degree 3, 200 draws find a member on some
    # seeds and not on others, which was "no member in 200 draws"; the prime
    # passes on every seed
    matrix, mode, degree = RARE_WINDOWS[3]
    window = monomial_window(2, mode, degree)
    prime = check_admissible([[1, Fraction(5, 4), Fraction(-4, 5)]], 2)
    misses = []
    for seed in range(40):
        try:
            prime_members(random.Random(seed), prime, window, 1)
        except ValueError as exc:
            assert str(exc) == "no member in 200 draws with coefficients in -2..2"
            misses.append(seed)
        argv = ["tideal-check", "--matrix", matrix, "--mode", mode, "--degree", str(degree),
                "--trials", "1", "--seed", str(seed)]
        assert run_cli(argv, capsys) == (0, PASSED, ""), argv
    assert 10 <= len(misses) <= 30, misses


# -- lemma (a) through the full check ------------------------------------------------


def test_lemma_a_geometric_samples_pass_the_full_check():
    rng = random.Random(412)
    checked = {"point": 0, "matrix": 0}
    while min(checked.values()) < 500:
        n = rng.randint(1, 3)
        mode = rng.choice((POLY, LAURENT))
        window = monomial_window(n, mode, rng.randint(1, 3 if n < 3 or mode == POLY else 2))
        if checked["point"] <= checked["matrix"]:
            sample = ref_point_members(rng, random_point(rng, n, -3, 3, 3), window, rng.randint(2, 8))
            kind = "point"
        else:
            matrix = random_admissible(rng, n, 1, "positive")
            if rng.random() < 0.5:  # integer points: many ties
                matrix = check_admissible([[1, *(rng.randint(-1, 1) for _ in range(n))]], n)
            try:
                sample = prime_members(rng, matrix, window, rng.randint(2, 8))
            except ValueError as exc:
                assert "no member" in str(exc)
                continue
            kind = "matrix"
        assert classify_prime(sample.prime)[0] == GEOMETRIC
        result = check_tropical_axiom(sample)
        assert result.passed, (kind, result.counterexample)
        checked[kind] += 1
