"""Grammar round trips, matrix JSON, CLI subcommands and determinism."""

import json
import random
import re
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from tropica import cli, parsing, sampling
from tropica.cli import main
from tropica.parsing import (
    ParseError,
    format_polynomial,
    parse_classical,
    parse_polynomial,
    parse_polynomials,
)
from tropica.polynomials import LAURENT, POLY, Polynomial
from tropica.primes import matrix_from_json
from tropica.rendering import render_svg
from tropica.sampling import random_polynomial
from tropica.varieties import hypersurface

from oracles.cli import MATRIX_READERS, SEED_5_ARGV, SEED_5_STDOUT, readme_json, run_cli
from oracles.parsing import outcome, ref_parse_classical, ref_read_terms

REPO = Path(__file__).resolve().parent.parent


# -- grammar -----------------------------------------------------------------


def test_parse_examples():
    f = parse_polynomial("3*x^2*y + 0*x + -1")
    assert f.coeffs == {(2, 1): Fraction(3), (1, 0): Fraction(0), (0, 0): Fraction(-1)}
    g = parse_polynomial("x + y")
    assert g.coeffs == {(1, 0): Fraction(0), (0, 1): Fraction(0)}


def test_parse_rejects_negative_exponent_in_poly_mode():
    with pytest.raises(ParseError):
        parse_polynomial("x^-1 + y", POLY)


@pytest.mark.parametrize("texts", [["x + 1"], ["x + * y"], []])
def test_parse_rejects_unknown_mode_first(texts):
    with pytest.raises(ValueError, match="unknown mode 'Laurent'"):
        parse_polynomials(texts, "Laurent")


def test_parse_laurent_negative_exponent():
    f = parse_polynomial("x^-1 + y")
    assert (-1, 0) in f.coeffs


def test_parse_bottom_coefficient_dropped():
    assert parse_polynomial("-inf*x + y", nvars=2) == parse_polynomial("y", nvars=2)
    assert parse_polynomial("-inf", nvars=1) == Polynomial.zero(1)


def test_parse_merges_repeated_monomials():
    assert parse_polynomial("1*x + 3*x") == parse_polynomial("3*x")


def test_parse_repeated_variable_in_monomial():
    assert parse_polynomial("x*x") == parse_polynomial("x^2")


def test_parse_rational_coefficients():
    f = parse_polynomial("7/2*x + -3/4")
    assert f.coefficient((1,)) == Fraction(7, 2)
    assert f.coefficient((0,)) == Fraction(-3, 4)


def test_parse_numbered_variables():
    f = parse_polynomial("x1 + 2*x3")
    assert f.n == 3


def test_mixed_variable_styles_rejected():
    with pytest.raises(ParseError):
        parse_polynomial("x + x2")


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse_polynomial("x + * y")
    assert err.value.position == 4
    with pytest.raises(ParseError):
        parse_polynomial("")
    with pytest.raises(ParseError):
        parse_polynomial("x $ y")


@pytest.mark.parametrize("text, name", [("x١ + 0", "x١"), ("x١٠ + 0", "x١٠"), ("2*x۳", "x۳")])
def test_subscripts_are_ascii_digits(capsys, text, name):
    message = f"unknown variable {name!r} (at position {text.index(name)})"
    with pytest.raises(ParseError, match=re.escape(message)):
        parse_polynomial(text)
    code, out, err = run_cli(["eval", "--poly", text, "--point", "3"], capsys)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "parse", "message": message}


# tokens that, concatenated with no separator, reach every error message of the reader
READER_TOKENS = (
    "x", "y", "z", "w", "x1", "x0", "q", " ", "\t", "\n", "+", "*", "^", "-", "/",
    "2", "-1", "3/2", "1/0", "-inf", "$", "ab",
)
READER_WEIGHTS = (6, 4, 3, 2, 4, 1, 1, 6, 1, 1, 6, 6, 3, 3, 1, 4, 2, 2, 1, 1, 1, 1)


def test_term_reader_matches_former_reader():
    rng = random.Random(20261020)
    read = Counter()
    for k in range(100_000):
        text = "".join(rng.choices(READER_TOKENS, READER_WEIGHTS, k=rng.randint(0, 10)))
        nvars = (None, 0, 3)[k % 3]
        for classical in (False, True):
            # a ParseError's message ends in its position
            got = outcome(parsing._read_terms, text, nvars, classical)
            assert got == outcome(ref_read_terms, text, nvars, classical), (text, nvars, classical)
            read[got[0] == "ok", classical] += 1
    # both grammars read some texts and reject others
    assert min(read.values()) >= 4_000, read


def test_round_trip_random():
    rng = random.Random(3)
    for _ in range(500):
        n = rng.randint(1, 5)
        mode = LAURENT if rng.random() < 0.5 else POLY
        f = random_polynomial(rng, n, mode, max_terms=5, max_deg=3)
        assert parse_polynomial(format_polynomial(f), mode, n) == f


def test_matrix_json():
    # matrix_from_json checks the shape; check_admissible reads the entries
    data = [["1", "1/2"], [0, "-2"]]
    matrix = matrix_from_json(data)
    assert matrix.n == 1 and matrix.to_json() == [["1", "1/2"], ["0", "-2"]]
    rows = matrix.rows
    assert rows == ((Fraction(1), Fraction(1, 2)), (Fraction(0), Fraction(-2)))
    with pytest.raises(ValueError):
        matrix_from_json([[1.5, 2]])  # floats are not rationals
    with pytest.raises(ValueError):
        matrix_from_json([])
    with pytest.raises(ValueError):
        matrix_from_json([[1, 2], []])


# -- CLI ---------------------------------------------------------------------


def test_cli_eval(capsys):
    code, out, _ = run_cli(["eval", "--poly", "x + y + 0", "--point", "1,2"], capsys)
    assert code == 0
    assert json.loads(out) == {"value": "2", "vanishes": False}


@pytest.mark.parametrize(
    "poly, point, expected",
    [
        ("x + y + 0", "1,2", {"value": "2", "vanishes": False}),
        ("x + y + 0", "1,1", {"value": "1", "vanishes": True}),
        ("3*x", "1", {"value": "4", "vanishes": False}),
        ("x + -inf", "1", {"value": "1", "vanishes": False}),
    ],
)
def test_cli_eval_computes_term_values_once(capsys, monkeypatch, poly, point, expected):
    # evaluate and vanishes_at each computed every term's value at the point
    calls = []
    values = Polynomial._values
    monkeypatch.setattr(Polynomial, "_values", lambda f, pt: calls.append(pt) or values(f, pt))
    code, out, _ = run_cli(["eval", "--poly", poly, "--point", point], capsys)
    assert (code, json.loads(out)) == (0, expected)
    assert len(calls) == 1


def test_cli_bend(capsys):
    code, out, _ = run_cli(["bend", "--poly", "x + y"], capsys)
    assert code == 0
    assert json.loads(out) == {"pairs": [["x + y", "y"], ["x + y", "x"]]}


def test_cli_prime_variety(capsys):
    code, out, _ = run_cli(["prime-variety", "--matrix", "[[1,1,2]]"], capsys)
    assert code == 0 and json.loads(out)["point"] == ["1", "2"]
    code, out, _ = run_cli(["prime-variety", "--matrix", "[[0,1,1]]"], capsys)
    assert code == 0 and json.loads(out)["point"] is None


def test_cli_prime_check_report(capsys):
    code, out, _ = run_cli(["prime-check", "--matrix", "[[1,0],[2,0]]"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["admissible"] is False and data["violations"]


def test_cli_prime_member(capsys):
    code, out, _ = run_cli(
        ["prime-member", "--matrix", "[[1,0,0]]", "--poly", "x + y"], capsys
    )
    assert code == 0 and json.loads(out) == {"member": True}


def test_cli_prime_compare(capsys):
    code, out, _ = run_cli(
        ["prime-compare", "--matrix", "[[1,2]]", "--term1", "3*x", "--term2", "0*x^2"],
        capsys,
    )
    assert code == 0 and json.loads(out) == {"order": "greater"}


def test_cli_dim_report(capsys):
    code, out, _ = run_cli(["dim", "--poly", "x + y + 0"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["variety_dim"] == 1 and data["coordinate_dim"] == 2
    assert data["witness_checks"] == {
        "admissible": True,
        "contains_bends": True,
        "rank": 2,
    }


def test_cli_trace_verify_shipped(capsys):
    for name in ("monomial_bridge", "factor_swap"):
        code, out, _ = run_cli(
            ["trace-verify", "--trace", str(REPO / "traces" / f"{name}.json")], capsys
        )
        assert code == 0 and json.loads(out) == {"accepted": True}


def test_cli_trace_verify_rejects_corruption(tmp_path, capsys):
    data = json.loads((REPO / "traces" / "monomial_bridge.json").read_text())
    data["steps"][3]["conclusion"] = ["x", "x*y"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, out, _ = run_cli(["trace-verify", "--trace", str(bad)], capsys)
    assert code == 0
    result = json.loads(out)
    assert result["accepted"] is False and result["failed_step"] == 3


_DELETE = object()
_FIELD_VALUES = [
    None, True, 0, -1, 7, 2.5, "", "x", "x + y", "GEN", [], {}, [1], ["x"], ["x", "y", "z"],
    {"a": 1}, _DELETE,
]


def _json_paths(node, prefix=()):
    yield prefix
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _json_paths(child, prefix + (key,))


@pytest.mark.parametrize("name", sorted(p.stem for p in (REPO / "traces").glob("*.json")))
def test_cli_trace_verify_mutated_json(tmp_path, capsys, name):
    # one field replaced (or deleted) per run; this used to end in TypeError and
    # AttributeError tracebacks in almost half the runs
    base = (REPO / "traces" / f"{name}.json").read_text()
    paths = list(_json_paths(json.loads(base)))
    rng = random.Random(name)
    mutant = tmp_path / "mutant.json"
    for _ in range(100):
        data = json.loads(base)
        path, value = rng.choice(paths), rng.choice(_FIELD_VALUES)
        if not path:
            data = [] if value is _DELETE else value
        else:
            node = data
            for key in path[:-1]:
                node = node[key]
            if value is not _DELETE:
                node[path[-1]] = value
            elif isinstance(node, dict):
                del node[path[-1]]
            else:
                node.pop(path[-1])
        mutant.write_text(json.dumps(data))
        code, out, err = run_cli(["trace-verify", "--trace", str(mutant)], capsys)
        assert code in (0, 1, 2), (path, value)
        if code == 0:
            assert "accepted" in json.loads(out) and err == ""
        else:
            assert out == "" and json.loads(err)["error"] == {1: "domain", 2: "parse"}[code]


def test_cli_tideal_trop(capsys):
    code, out, _ = run_cli(["tideal-trop", "--gens", "x - y", "--degree", "1"], capsys)
    assert code == 0
    assert json.loads(out)["circuits"] == [["x", "y"]]


@pytest.mark.parametrize(
    "args, circuits",
    [
        (["--gens", "0*x - y", "--nvars", "2"], [["y"]]),  # 0*x was read as 1*x
        (["--gens", "x - 0"], [["x"]]),  # the constant 0 was read as 1
    ],
)
def test_cli_tideal_trop_zero_coefficients(capsys, args, circuits):
    code, out, _ = run_cli(["tideal-trop", *args, "--degree", "1"], capsys)
    assert code == 0 and json.loads(out)["circuits"] == circuits


@pytest.mark.parametrize(
    "args, trivial",
    [
        (["--gens", "x - 0"], False),  # the monomial ideal (x) was flagged as the unit ideal
        (["--gens", "x", "--gens", "y"], False),
        (["--gens", "1", "--nvars", "2"], True),
    ],
)
def test_cli_tideal_trop_trivial_means_unit_ideal(capsys, args, trivial):
    code, out, _ = run_cli(["tideal-trop", *args, "--degree", "1"], capsys)
    assert code == 0 and json.loads(out)["trivial"] is trivial


def test_cli_tideal_trop_error_position(capsys):
    # the position used to count from the start of the split piece "2*q"
    code, out, err = run_cli(["tideal-trop", "--gens", "x + 2*q", "--degree", "1"], capsys)
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "parse", "message": "unknown variable 'q' (at position 6)"}


def _classical_text(rng):
    """Classical polynomial text with no zero coefficient, in one naming style."""
    n = rng.randint(1, 4)
    names = [f"x{i + 1}" for i in range(n)] if rng.random() < 0.3 else list("xyzw"[:n])
    text = rng.choice(["", "", "-", "+", "- "])
    for k in range(rng.randint(1, 5)):
        factors = [rng.choice(names) for _ in range(rng.randint(0, 3))]
        monom = "*".join(v if rng.random() < 0.5 else f"{v}^{rng.randint(0, 3)}" for v in factors)
        integer, fraction = str(rng.randint(1, 5)), f"{rng.randint(1, 7)}/{rng.randint(1, 4)}"
        coeff = rng.choice(["", "", integer, fraction])
        if not monom:
            term = coeff or str(rng.randint(1, 9))
        else:
            term = f"{coeff}*{monom}" if coeff else monom
        if k:
            text += rng.choice([" + ", " - ", "+", "-", " -", "- "])
        text += term
    return text


def test_parse_classical_matches_split_parser():
    rng = random.Random(2024)
    for _ in range(600):
        text = _classical_text(rng)
        nvars = rng.choice([None, 4, 5])
        assert parse_classical(text, nvars) == ref_parse_classical(text, nvars), text


def test_cli_tideal_check_circuits(capsys):
    circuits = {
        "nvars": 2,
        "degree": 1,
        "mode": "poly",
        "circuits": [[[1, 0], [0, 1]]],
    }
    code, out, _ = run_cli(["tideal-check", "--circuits", json.dumps(circuits)], capsys)
    assert code == 0 and json.loads(out) == {"passed": True}


def test_cli_tideal_check_matrix_counterexample(capsys):
    code, out, _ = run_cli(SEED_5_ARGV, capsys)
    assert code == 0
    assert out == SEED_5_STDOUT


def test_cli_tideal_check_point_output(capsys):
    args = ["tideal-check", "--point", "0,0", "--degree", "2", "--trials", "15", "--seed", "0"]
    code, out, err = run_cli(args, capsys)
    assert (code, out, err) == (0, '{\n  "passed": true\n}\n', "")


def test_cli_tideal_check_point_degree_zero(capsys):
    # a degree-0 window has one monomial, so no member polynomial exists: this looped forever
    args = ["tideal-check", "--point", "0,0", "--degree", "0"]
    code, out, err = run_cli(args, capsys)
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "domain"


ONE_MONOMIAL = "the window holds 1 monomial; a member needs two terms"
DEGREE_ZERO = "member polynomials need max_deg >= 1 (two distinct exponents)"


@pytest.mark.parametrize(
    "matrix,degree,message",
    [
        # geometric: the --point checks, degree first
        ("[[1,0]]", "0", DEGREE_ZERO),
        ("[[1,0,0]]", "0", DEGREE_ZERO),
        ("[[1]]", "2", ONE_MONOMIAL),
        ("[[0,1]]", "0", ONE_MONOMIAL),  # not geometric: the draws' check
        ("[[0,1,0],[0,0,1]]", "0", ONE_MONOMIAL),
    ],
)
def test_cli_tideal_check_matrix_one_monomial_window(capsys, matrix, degree, message):
    # a one-monomial window holds no member: this printed {"passed": true} after 0 draws
    args = ["tideal-check", "--matrix", matrix, "--degree", degree]
    code, out, err = run_cli(args, capsys)
    assert code == 1 and out == ""
    error = json.loads(err)
    assert error == {"error": "domain", "message": message}


@pytest.mark.parametrize(
    "matrix,mode,degree",
    [
        ("[[0,1]]", "poly", "1"),
        ("[[0,1]]", "laurent", "2"),
        ("[[0,1],[1,0]]", "poly", "1"),
        ("[[1,0,7],[0,1,0]]", "poly", "1"),
    ],
)
def test_cli_tideal_check_matrix_window_without_drawable_member(capsys, matrix, mode, degree):
    # no two window monomials tie at a coefficient gap in -4..4, the gaps of draws
    # in -2..2, so no draw is a member.  Under [[0,1]] and [[0,1],[1,0]] no two tie
    # at all: this made 200,000 draws (1.7 s), then printed {"passed": true} from 0
    # members.  Under the rank-2 prime [[1,0,7],[0,1,0]], 1 and y tie only at
    # the gap 7.  (Under the geometric [[1,7]], 1 and x tie only at the gap 7:
    # lemma (a) passes it, see the test below.)
    args = ["tideal-check", "--matrix", matrix, "--mode", mode, "--degree", degree, "--trials", "1000"]
    start = time.perf_counter()
    code, out, err = run_cli(args, capsys)
    assert time.perf_counter() - start < 0.1
    assert code == 1 and out == ""
    error = json.loads(err)
    assert error == {
        "error": "domain",
        "message": "no member can be drawn: no two window monomials tie under the prime "
        "at a coefficient gap in -4..4",
    }


def test_cli_tideal_check_matrix_no_member_drawn(capsys):
    # two monomials tie only when their x-exponents agree and their y-exponents
    # differ by one, at the coefficient gap 4 (drawn only as 2 and -2), and the
    # pair must also beat the third drawn term: seed 0 draws no member in 200
    args = ["tideal-check", "--matrix", "[[0,1,0],[1,0,4]]", "--degree", "2", "--trials", "1"]
    code, out, err = run_cli(args, capsys)
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "error": "domain",
        "message": "no member in 200 draws with coefficients in -2..2",
    }


@pytest.mark.parametrize("matrix", ["[[1,0]]", "[[1,2]]", "[[1,7]]"])
def test_cli_tideal_check_matrix_window_with_member(capsys, matrix):
    # the window of the test above, under geometric primes, which pass by lemma (a)
    # with no draw; [[1,7]] ties 1 and x only at a gap that no draw hits
    args = ["tideal-check", "--matrix", matrix, "--mode", "poly", "--degree", "1", "--trials", "1000"]
    code, out, err = run_cli(args, capsys)
    assert (code, err) == (0, "")
    assert json.loads(out) == {"passed": True}


@pytest.mark.parametrize(
    "args",
    [
        ["tideal-trop", "--gens", "x - y", "--nvars", "3", "--degree", "1000000"],
        ["tideal-trop", "--gens", "x - y", "--nvars", "3", "--degree", "300"],
        ["tideal-check", "--mode", "poly", "--point", "0,0", "--degree", "1000000"],
        ["tideal-check", "--matrix", "[[0,1,1]]", "--degree", "1000000"],
        ["tideal-check", "--circuits", '{"nvars": 2, "degree": 1000000, "circuits": []}'],
    ],
)
def test_cli_window_caps(capsys, args):
    # refused at once, as n or d alone reaches the cap: degree 10^6 did not return
    code, out, err = run_cli(args, capsys)
    assert code == 1 and out == ""
    error = json.loads(err)
    assert error["error"] == "domain"
    assert "monomials; the cap" in error["message"]


def test_cli_tideal_check_point_many_variables(capsys):
    # the 29-monomial window was filtered from the 2^28 points of a box
    args = ["tideal-check", "--mode", "poly", "--point", ",".join(["0"] * 28), "--degree", "1"]
    start = time.perf_counter()
    code, out, err = run_cli(args, capsys)
    assert time.perf_counter() - start < 1
    assert (code, err, json.loads(out)) == (0, "", {"passed": True})


def test_cli_tideal_check_point_small_window(capsys):
    # the window {1, x} holds fewer than 100 members at 0: this looped forever
    args = ["tideal-check", "--mode", "poly", "--point", "0", "--degree", "1", "--trials", "100"]
    code, out, err = run_cli(args, capsys)
    assert code == 0 and err == ""
    assert json.loads(out) == {"passed": True}


@pytest.mark.parametrize(
    "data",
    [
        {"nvars": 2.9, "degree": 1, "circuits": [[[1, 0], [0, 1]]]},  # was truncated to 2
        {"nvars": 2, "degree": 1, "circuits": [[[1.5, 0], [0, 1]]]},  # was truncated to 1
        {"nvars": 2, "degree": 1, "circuits": 5},  # was a TypeError traceback
        [1],  # was a TypeError traceback
        {"nvars": 2, "degree": "1", "circuits": []},
        {"nvars": True, "degree": 1, "circuits": []},
        {"nvars": 2, "circuits": []},
        {"nvars": 2, "degree": 1, "circuits": [5]},
        {"nvars": 2, "degree": 1, "circuits": [[[1, 0, 0]]]},
        {"nvars": 2, "degree": 1, "circuits": [[[2, 0]]]},  # outside the window
        {"nvars": -1, "degree": 1, "circuits": []},  # leaked an itertools message
        {"nvars": 1, "degree": 1, "circuits": [[]]},  # printed {"passed": true}
    ],
)
def test_cli_tideal_check_rejects_malformed_circuits(capsys, data):
    code, out, err = run_cli(["tideal-check", "--circuits", json.dumps(data)], capsys)
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "domain"


@pytest.mark.parametrize(
    "data, message",
    [
        ({"nvars": -1, "degree": 1, "circuits": []}, "window variable count must be non-negative"),
        ({"nvars": -1, "degree": 0, "circuits": []}, "window variable count must be non-negative"),
        ({"nvars": 1, "degree": 1, "circuits": [[]]}, "a circuit must hold at least one monomial"),
        ({"nvars": 1, "degree": 1, "circuits": [[[1]], []]}, "a circuit must hold at least one monomial"),
    ],
)
def test_cli_tideal_check_circuit_errors_are_named(capsys, data, message):
    code, out, err = run_cli(["tideal-check", "--circuits", json.dumps(data)], capsys)
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "domain", "message": message}


def test_cli_exit_codes(capsys):
    code, _, err = run_cli(["eval", "--poly", "x + * y", "--point", "1"], capsys)
    assert code == 2 and json.loads(err)["error"] == "parse"
    code, _, err = run_cli(["eval", "--poly", "x + y", "--point", "1"], capsys)
    assert code == 1 and json.loads(err)["error"] == "domain"
    code, _, err = run_cli(["dim", "--poly", "x + 0", "--poly", "x + 1"], capsys)
    assert code == 1 and json.loads(err)["error"] == "domain"


@pytest.mark.parametrize(
    "args",
    [
        ["eval", "--poly", "x"],  # --point missing
        ["evaluate", "--poly", "x"],  # unknown subcommand
        [],  # no subcommand
        ["tideal-check", "--degree", "abc"],  # not an integer
        ["eval", "--poly", "x", "--point", "1", "--bogus"],  # unknown option
        ["hypersurface", "--poly", "x", "--mode", "tropical"],  # not a choice
    ],
)
def test_cli_argument_errors_are_json_parse_errors(capsys, args):
    # argparse used to print its usage text and raise SystemExit(2)
    code, out, err = run_cli(args, capsys)
    assert code == 2 and out == ""
    error = json.loads(err)
    assert error["error"] == "parse" and error["message"]


def test_cli_negative_first_coordinate_needs_the_equals_form(capsys):
    # argparse reads "-1/2,2" after a space as an option, not as the value of --point
    code, out, err = run_cli(["eval", "--poly", "x + y + 0", "--point", "-1/2,2"], capsys)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "parse", "message": "argument --point: expected one argument"}
    code, out, err = run_cli(["eval", "--poly", "x + y + 0", "--point=-1/2,2"], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out) == {"value": "2", "vanishes": False}


def test_cli_help_keeps_text_and_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: tropica eval")


@pytest.mark.parametrize("args", MATRIX_READERS)
@pytest.mark.parametrize("matrix", ["[[]]", "[[1, 0], []]"])
def test_cli_matrix_with_an_empty_row_is_domain_error(capsys, args, matrix):
    # an empty row used to end in an IndexError traceback
    code, out, err = run_cli([*args, "--matrix", matrix], capsys)
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "domain"


@pytest.mark.parametrize("args", MATRIX_READERS)
def test_cli_matrix_json_string_is_domain_error(capsys, args):
    # the string was decoded a second time, so '"[[1,1]]"' was read as [[1,1]] (exit 0)
    assert run_cli([*args, "--matrix", "[[1,1]]"], capsys)[0] == 0
    code, out, err = run_cli([*args, "--matrix", '"[[1,1]]"'], capsys)
    assert (code, out) == (1, "")
    message = "matrix JSON must be a non-empty array of non-empty arrays"
    assert json.loads(err) == {"error": "domain", "message": message}


@pytest.mark.parametrize(
    "args",
    [
        ["--point", "0", "--trials", "-5"],
        ["--point", "0,0", "--trials", "0"],
        ["--matrix", "[[0,1,1]]", "--trials", "0"],
        ["--circuits", '{"nvars": 1, "degree": 1, "circuits": []}', "--trials", "0"],
    ],
)
def test_cli_tideal_check_trials_below_one_is_domain_error(capsys, args):
    # these drew no member and printed {"passed": true}
    code, out, err = run_cli(["tideal-check", *args], capsys)
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "domain"


@pytest.mark.parametrize(
    "args",
    [
        ["--point", "0", "--mode", "poly", "--degree", "1"],
        ["--matrix", "[[1,0]]", "--mode", "poly", "--degree", "1"],
        ["--circuits", '{"nvars": 1, "degree": 1, "circuits": []}'],
    ],
)
def test_cli_tideal_check_trials_above_cap_is_domain_error(capsys, monkeypatch, args):
    # --trials 1000000 on a 19-member window headed for 2*10^8 draws
    def no_draws(*_):
        raise AssertionError("sampled although --trials is over the cap")

    # the sampler in its module, and where the CLI imports it by name
    monkeypatch.setattr(sampling, "prime_members", no_draws)
    monkeypatch.setattr(cli, "prime_members", no_draws)
    code, out, err = run_cli(["tideal-check", *args, "--trials", str(cli.MAX_TRIALS + 1)], capsys)
    assert code == 1 and out == ""
    message = "--trials must be at most 1000, got 1001"
    if "--circuits" in args:  # --circuits reads no --trials, whatever its value
        message = "tideal-check --circuits does not read --trials"
    assert json.loads(err) == {"error": "domain", "message": message}


def test_cli_tideal_check_trials_at_cap(capsys):
    args = ["tideal-check", "--mode", "poly", "--matrix", "[[1,0]]", "--degree", "1", "--trials", "1000"]
    code, out, err = run_cli(args, capsys)
    assert (code, err) == (0, "")
    assert json.loads(out) == {"passed": True}


def test_cli_matrix_rejects_non_rational_entries(capsys):
    # a JSON null used to reach Fraction() and end in a TypeError traceback
    code, out, err = run_cli(["prime-check", "--matrix", "[[null, 1]]"], capsys)
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "domain"


def test_cli_plot_deterministic(capsys):
    args = ["plot", "--poly", "x + y + 0", "--bbox=-5,-5,5,5"]
    code, first, _ = run_cli(args, capsys)
    assert code == 0
    code, second, _ = run_cli(args, capsys)
    assert first == second
    assert first.count("<line") == 5  # two axes + three rays
    assert "<svg" in first


def test_cli_plot_empty_complex(capsys):
    code, out, _ = run_cli(["plot", "--poly", "3*x*y", "--bbox=-5,-5,5,5"], capsys)
    assert code == 0
    assert out.count("<line") == 2 and "<circle" not in out


def test_cli_plot_point(capsys):
    complex_json = json.dumps(
        {
            "ambient": 2,
            "mode": "laurent",
            "cells": [
                {
                    "stratum": [],
                    "normals": [["1", "0"], ["0", "1"]],
                    "rhs": ["1", "2"],
                    "relations": ["eq", "eq"],
                    "dim": 0,
                    "interior_point": ["1", "2"],
                }
            ],
        }
    )
    code, out, _ = run_cli(["plot", "--complex", complex_json, "--bbox=-5,-5,5,5"], capsys)
    assert code == 0 and out.count("<circle") == 1


def _point_complex(**cell_changes):
    cell = {
        "stratum": [],
        "normals": [["1", "0"], ["0", "1"]],
        "rhs": ["1", "2"],
        "relations": ["eq", "eq"],
        "dim": 0,
        "interior_point": ["1", "2"],
    }
    cell.update(cell_changes)
    return {"ambient": 2, "mode": "laurent", "cells": [cell]}


@pytest.mark.parametrize(
    "data",
    [
        _point_complex(rhs=[0.1, "2"]),  # JSON float: inexact
        _point_complex(interior_point=["1", 2.0]),
        _point_complex(dim=0.9),  # was truncated to 0
        _point_complex(dim=True),
        {"cells": 5},  # was a TypeError traceback
        {"ambient": 2, "mode": "laurent", "cells": 5},
        [1, 2],
        {"ambient": 2, "mode": "laurent", "cells": [7]},
        {"ambient": "2", "mode": "laurent", "cells": []},
        {"ambient": 2, "mode": "tropical", "cells": []},
        _point_complex(rhs=["1"]),  # fewer rhs than normals
        _point_complex(relations="eq"),
        _point_complex(normals=[["1", "0", "0"], ["0", "1"]]),  # wrong normal length
        _point_complex(normals=[["1", None], ["0", "1"]]),
        _point_complex(relations=["eq", "ge"]),
        # the segment x = 1, y < 3 would load and plot: "lt" is the solver's, not a cell's
        _point_complex(rhs=["1", "3"], relations=["eq", "lt"], dim=1),
        _point_complex(stratum=[5]),
        _point_complex(interior_point=["1"]),
        _point_complex(interior_point=["1", "3"]),  # outside the cell: used to load
        _point_complex(dim=1),  # the cell is a point: used to load
        {  # the line x = 0 with dim 2 and a point off it: complex_dim was 2
            "ambient": 2,
            "mode": "laurent",
            "cells": [{"normals": [[1, 0]], "rhs": ["0"], "relations": ["eq"], "dim": 2,
                       "interior_point": ["5", "7"]}],
        },
        {
            "ambient": 2,
            "mode": "laurent",
            "cells": [{"normals": [[1, 0]], "rhs": ["0"], "relations": ["eq"], "dim": 2,
                       "interior_point": ["0", "7"]}],
        },
        # the ray x = 0, y <= 0 with its apex as interior point: used to load
        _point_complex(rhs=["0", "0"], relations=["eq", "le"], dim=1, interior_point=["0", "0"]),
        # the segment x = 0, -1 <= y <= 0 with an end as interior point: used to load
        _point_complex(normals=[["1", "0"], ["0", "1"], ["0", "-1"]], rhs=["0", "0", "1"],
                       relations=["eq", "le", "le"], dim=1, interior_point=["0", "-1"]),
    ],
)
def test_cli_plot_rejects_malformed_complex(capsys, data):
    code, out, err = run_cli(["plot", "--complex", json.dumps(data)], capsys)
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "domain"


@pytest.mark.parametrize(
    "args, code, kind",
    [
        (["eval", "--poly", "x + y", "--point", "1.5,2"], 2, "parse"),  # decimals were read
        (["eval", "--poly", "x + y", "--point", "1e2,0"], 2, "parse"),
        (["prime-check", "--matrix", '[["1e2", 1]]'], 1, "domain"),  # JSON readers: domain
        (["plot", "--complex", json.dumps(_point_complex(rhs=["0.5", "1e0"]))], 1, "domain"),
        (["eval", "--poly", "x + y", "--point", "2/0,1"], 2, "parse"),  # was exit 1
        (["eval", "--poly", "2/0*x + y", "--point", "1,1"], 2, "parse"),
    ],
    ids=["point-decimal", "point-exponent", "matrix-exponent", "complex-decimal",
         "point-zero-denominator", "poly-zero-denominator"],
)
def test_cli_strict_rationals(capsys, args, code, kind):
    rc, out, err = run_cli(args, capsys)
    assert rc == code and out == ""
    assert json.loads(err)["error"] == kind


@pytest.mark.parametrize(
    "args, message",
    [
        (["eval", "--poly", "x + y", "--point", "1,,2"], "empty coordinate (at position 2)"),
        (["eval", "--poly", "x + y", "--point", "1,2,"], "empty coordinate (at position 4)"),
        (["eval", "--poly", "x + y", "--point", "1, ,2"], "empty coordinate (at position 3)"),
        (
            ["tideal-check", "--point", "0,,0", "--degree", "1", "--trials", "2"],
            "empty coordinate (at position 2)",
        ),
        (
            ["eval", "--poly", "x + y", "--point", "1/2,1/"],
            "expected an integer or a 'p/q' string, got '1/' (at position 4)",
        ),
        (["plot", "--poly", "x + y + 0", "--bbox=-5,,5,5"], "empty coordinate (at position 3)"),
    ],
    ids=["eval-inner", "eval-trailing", "eval-blank", "tideal-check", "bad-offset", "bbox"],
)
def test_cli_point_coordinates_are_parse_errors(capsys, args, message):
    # empty coordinates were dropped: "1,,2" and "1,2," were read as (1, 2)
    code, out, err = run_cli(args, capsys)
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "parse", "message": message}


@pytest.mark.parametrize(
    "args",
    [
        ["eval", "--point", "1,2"],
        ["bend"],
        ["hypersurface"],
        ["prime-member", "--matrix", "[[1,0,0]]"],
        ["plot"],  # drew the first polynomial only
    ],
    ids=lambda args: args[0],
)
def test_cli_one_polynomial_commands_reject_more(capsys, args):
    polys = ["--poly", "x + y + 0", "--poly", "x + 1"]
    code, out, err = run_cli(args + polys, capsys)
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "error": "domain",
        "message": f"{args[0]} takes one polynomial, got 2",
    }


@pytest.mark.parametrize(
    "extra",
    [["--poly", "x + y + 0"], ["--file", "polys.txt"]],
    ids=["poly", "file"],
)
def test_cli_plot_rejects_complex_with_polynomials(capsys, extra):
    # --poly and --file were ignored: the empty complex was drawn, exit 0
    empty = json.dumps({"ambient": 2, "mode": "laurent", "cells": []})
    code, out, err = run_cli(["plot", "--complex", empty, *extra], capsys)
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "error": "domain",
        "message": "plot takes --complex or --poly/--file, not both",
    }


@pytest.mark.parametrize(
    "args, given",
    [
        (["--point", "0,0", "--matrix", "[[1,0,0]]"], "--point and --matrix"),
        (["--circuits", "[]", "--point", "0,0"], "--circuits and --point"),
        (["--matrix", "[[1,0,0]]", "--circuits", "[]"], "--circuits and --matrix"),
        (
            ["--circuits", "[]", "--point", "0,0", "--matrix", "[[1,0,0]]"],
            "--circuits and --point and --matrix",
        ),
    ],
    ids=["point-matrix", "circuits-point", "matrix-circuits", "all-three"],
)
def test_cli_tideal_check_takes_one_description(capsys, args, given):
    # only the first of --circuits, --point and --matrix was used
    code, out, err = run_cli(["tideal-check", *args, "--degree", "1", "--trials", "2"], capsys)
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "error": "domain",
        "message": f"tideal-check takes one of --circuits, --point or --matrix, got {given}",
    }


@pytest.mark.parametrize(
    "args, code, error",
    [
        (
            ["tideal-check", "--point", "", "--degree", "1", "--trials", "2"],
            2,
            {"error": "parse", "message": "empty point (at position 0)"},
        ),
        (
            ["plot", "--complex", "", "--poly", "x + y + 0"],
            1,
            {"error": "domain", "message": "plot takes --complex or --poly/--file, not both"},
        ),
        (
            ["prime-check", "--matrix", ""],
            1,
            {"error": "domain", "message": "Expecting value: line 1 column 1 (char 0)"},
        ),
        (
            ["eval", "--poly", "x + 0", "--point", "1", "--file", ""],
            1,
            {"error": "domain", "message": "--file is empty: it needs a file name"},
        ),
        (
            ["plot", "--poly", "x + y + 0", "--output", ""],
            1,
            {"error": "domain", "message": "--output is empty: it needs a file name"},
        ),
    ],
    ids=["tideal-check-point", "plot-complex", "prime-check-matrix", "eval-file", "plot-output"],
)
def test_cli_empty_option_values(capsys, args, code, error):
    # an empty value was taken as absent ("one of --circuits, --point or
    # --matrix is required", the polynomial was plotted, --file was skipped
    # with exit 0, and the SVG went to stdout instead of --output), and an
    # empty matrix was read from the directory Path("") names: "Is a
    # directory: '.'"
    rc, out, err = run_cli(args, capsys)
    assert rc == code and out == ""
    assert json.loads(err) == error


@pytest.mark.parametrize("bbox", [(-5, -5, 5.5, 5), (-5, -5, "0.5", 5)])
def test_render_svg_rejects_inexact_bbox(bbox):
    # Fraction(v) read the float 5.5 and the decimal "0.5" as exact bounds
    with pytest.raises(ValueError):
        render_svg(hypersurface(parse_polynomial("x + y + 0")), bbox)


@pytest.mark.parametrize("command", ["trace-verify --trace", "eval --point 1 --file"])
def test_cli_missing_file_is_domain_error(capsys, tmp_path, command):
    # a FileNotFoundError used to escape main() as a traceback
    rc, out, err = run_cli(command.split() + [str(tmp_path / "missing.json")], capsys)
    assert rc == 1 and out == ""
    assert json.loads(err)["error"] == "domain"


def test_cli_json_determinism(capsys):
    args = ["hypersurface", "--poly", "x + y + 0"]
    _, first, _ = run_cli(args, capsys)
    _, second, _ = run_cli(args, capsys)
    assert first == second


def test_cli_seed_environment_changes_nothing(capsys, monkeypatch):
    # --seed alone seeds the draws; TROPICA_SEED once overrode it
    monkeypatch.setenv("TROPICA_SEED", "0")
    assert run_cli(SEED_5_ARGV, capsys) == (0, SEED_5_STDOUT, "")


def test_cli_text_format(capsys):
    code, out, _ = run_cli(
        ["eval", "--poly", "x + y + 0", "--point", "1,2", "--format", "text"], capsys
    )
    assert code == 0
    assert "value: 2" in out


# each nested list under its own "-" marker; this printed the bend pairs as six
# undivided lines, the witness as six numbers and the empty stratum as a blank line
TEXT_PINS = {
    "bend": """\
pairs:
  -
    - x + y + 0
    - y + 0
  -
    - x + y + 0
    - x + 0
  -
    - x + y + 0
    - x + y
""",
    "dim": """\
caveat: computed from the prevariety of the given generators
coordinate_dim: 2
variety_dim: 1
witness:
  -
    - 1
    - -1
    - 0
  -
    - 1
    - -1/2
    - 0
witness_checks:
  admissible: True
  contains_bends: True
  rank: 2
""",
    "hypersurface": """\
ambient: 2
cells:
  -
    dim: 1
    interior_point:
      - -1
      - 0
    normals:
      -
        - 0
        - 1
      -
        - 1
        - -1
    relations:
      - eq
      - le
    rhs:
      - 0
      - 0
    stratum: []
  -
    dim: 1
    interior_point:
      - 1
      - 1
    normals:
      -
        - 1
        - -1
      -
        - -1
        - 0
    relations:
      - eq
      - le
    rhs:
      - 0
      - 0
    stratum: []
  -
    dim: 1
    interior_point:
      - 0
      - -1
    normals:
      -
        - 1
        - 0
      -
        - -1
        - 1
    relations:
      - eq
      - le
    rhs:
      - 0
      - 0
    stratum: []
mode: laurent
""",
}


@pytest.mark.parametrize("command", sorted(TEXT_PINS))
def test_cli_text_format_nests_lists(capsys, command):
    code, out, _ = run_cli([command, "--poly", "x + y + 0", "--format", "text"], capsys)
    assert (code, out) == (0, TEXT_PINS[command])


def test_cli_entry_point_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "tropica.cli", "eval", "--poly", "0", "--point", ""],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2  # empty point is a parse error


def test_readme_trace_example_verifies():
    # the schema example documented in the README must stay valid
    from tropica.traces import trace_from_json, verify_trace

    trace = trace_from_json(readme_json()["steps"])
    assert verify_trace(trace).accepted


@pytest.mark.parametrize("rule, field", [("GEN", "generator"), ("SYM", "step")])
def test_cli_trace_verify_rejects_boolean_indices(capsys, tmp_path, rule, field):
    # false == 0 in Python, so the README trace with a false index was accepted
    data = readme_json()["steps"]
    index = next(i for i, step in enumerate(data["steps"]) if step["rule"] == rule)
    assert data["steps"][index][field] == 0
    data["steps"][index][field] = False
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(["trace-verify", "--trace", str(path)], capsys)
    assert code == 0 and err == ""
    result = json.loads(out)
    assert result["accepted"] is False and result["failed_step"] == index


# where each polynomial text of the README trace sits: (path to the text's container, key)
_TRACE_TEXT_FIELDS = {
    "generators": (("generators",), 1),
    "conclusion": (("steps", 0, "conclusion"), 0),
    "delete": (("steps", 0), "delete"),
    "poly": (("steps", 1), "poly"),
    "pair": (("steps", 5, "pair"), 1),
    "goal": (("goal",), 1),
}


@pytest.mark.parametrize("value, kind", [(7, "int"), (["x"], "list"), (None, "NoneType")])
@pytest.mark.parametrize("field", sorted(_TRACE_TEXT_FIELDS))
def test_cli_trace_verify_non_text_polynomial(capsys, tmp_path, field, value, kind):
    data = readme_json()["steps"]
    path, key = _TRACE_TEXT_FIELDS[field]
    node = data
    for step in path:
        node = node[step]
    node[key] = value
    trace = tmp_path / "trace.json"
    trace.write_text(json.dumps(data))
    code, out, err = run_cli(["trace-verify", "--trace", str(trace)], capsys)
    assert (code, out) == (2, "")
    assert json.loads(err) == {
        "error": "parse",
        "message": f"expected polynomial text, got {kind} (at position 0)",
    }


@pytest.mark.parametrize("field", sorted(_TRACE_TEXT_FIELDS))
def test_cli_trace_verify_repeated_malformed_text(capsys, tmp_path, field):
    # the malformed text stands in the given field and in the goal's left side
    data = readme_json()["steps"]
    path, key = _TRACE_TEXT_FIELDS[field]
    node = data
    for step in path:
        node = node[step]
    node[key] = data["goal"][0] = "x + * y"
    trace = tmp_path / "trace.json"
    trace.write_text(json.dumps(data))
    code, out, err = run_cli(["trace-verify", "--trace", str(trace)], capsys)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "parse", "message": "expected a term (at position 4)"}
