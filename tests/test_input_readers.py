"""Exact input reading: one integer reader, one exponent reader, one admissibility check.

Every variable count, degree and exponent that enters the library goes
through ``matrices.to_int`` (an int that is not a bool, or an integral
``Fraction``), every exponent vector through ``polynomials.to_exponents``,
and every matrix through ``primes.check_admissible``.  Also here: tests for
input paths of the command line that no other test runs.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from tropica import parsing, primes
from tropica.krull import EmptyVarietyError, witness_prime
from tropica.matrices import to_int
from tropica.parsing import parse_polynomial
from tropica.polynomials import LAURENT, POLY, Polynomial, to_exponents
from tropica.primes import admissibility_violations, check_admissible
from tropica.traces import trace_from_json
from tropica.tropical_linear import (
    circuits_from_json,
    monomial_window,
    truncated_tropicalization,
)
from tropica.varieties import (
    affine_prevariety,
    complex_from_json,
    complex_to_json,
    hypersurface,
    vanishes_on_complex,
)

from oracles.cli import MATRIX_READERS, run_cli
from oracles.parsing import P


def _complex(ambient, stratum, dim):
    """A one-cell poly complex JSON: the whole space of the coordinates off ``stratum``."""
    ncoords = ambient - len(stratum)
    return {"ambient": ambient, "mode": POLY, "cells": [_cell(stratum, dim, ncoords)]}


def _cell(stratum, dim, ncoords):
    """A cell with no constraints."""
    return {"stratum": list(stratum), "normals": [], "rhs": [], "relations": [], "dim": dim,
            "interior_point": ["0"] * ncoords}


def _trace(nvars):
    return {"nvars": nvars, "generators": ["x + 1"], "steps": [], "goal": ["x", "x"]}


# Each reader takes the value under test where an integer belongs, and the
# check is on what it builds from the integral Fraction it accepts: 2, or 1
# where the input fixes the count at 1 (``ACCEPTED``).
READERS = {
    "Polynomial n": (lambda v: Polynomial({}, v), lambda p: p.n == 2 and type(p.n) is int),
    "Polynomial exponent": (
        lambda v: Polynomial({(v, 0): 0}, 2),
        lambda p: p.support() == ((2, 0),) and type(p.support()[0][0]) is int,
    ),
    "to_exponents": (lambda v: to_exponents((v,), 1, POLY), lambda e: e == (2,) and type(e[0]) is int),
    "check_admissible n": (
        lambda v: check_admissible([[1, 1]], v),
        lambda m: m.n == 1 and type(m.n) is int,
    ),
    "monomial_window n": (
        lambda v: monomial_window(v, POLY, 1),
        lambda w: w.n == 2 and type(w.n) is int and len(w) == 3,
    ),
    "monomial_window degree": (
        lambda v: monomial_window(1, POLY, v),
        lambda w: w.degree == 2 and type(w.degree) is int and w.monomials == ((0,), (1,), (2,)),
    ),
    "circuits_from_json nvars": (
        lambda v: circuits_from_json({"nvars": v, "degree": 1, "circuits": []}),
        lambda c: c.window.n == 2,
    ),
    "circuits_from_json degree": (
        lambda v: circuits_from_json({"nvars": 1, "degree": v, "circuits": []}),
        lambda c: c.window.degree == 2,
    ),
    "circuits_from_json exponent": (
        lambda v: circuits_from_json({"nvars": 1, "degree": 2, "circuits": [[[v]]]}),
        lambda c: c.circuits == (frozenset({(2,)}),),
    ),
    "parse_polynomial nvars": (lambda v: parse_polynomial("x", nvars=v), lambda p: p.n == 2),
    "trace_from_json nvars": (lambda v: trace_from_json(_trace(v)), lambda t: t.generators[0].n == 2),
    "complex_from_json ambient": (
        lambda v: complex_from_json({"ambient": v, "mode": POLY, "cells": []}),
        lambda x: x.ambient == 2 and type(x.ambient) is int,
    ),
    "complex_from_json stratum": (
        lambda v: complex_from_json(_complex(3, [0, v], 1)),
        lambda x: x.cells[0].stratum == (0, 2),
    ),
    "complex_from_json dim": (
        lambda v: complex_from_json(_complex(2, [], v)),
        lambda x: x.cells[0].dim == 2,
    ),
    "truncated_tropicalization n": (
        lambda v: truncated_tropicalization([], v, 1),
        lambda c: c.window.n == 2,
    ),
    "truncated_tropicalization degree": (
        lambda v: truncated_tropicalization([], 1, v),
        lambda c: c.window.degree == 2,
    ),
    "truncated_tropicalization exponent": (
        lambda v: truncated_tropicalization([{(v,): 1, (0,): -1}], 1, 2),
        lambda c: c.circuits == (frozenset({(0,), (2,)}),),
    ),
}


ACCEPTED = {"check_admissible n": 1}


@pytest.mark.parametrize("value", [1.0, True, "2", Fraction(1, 2)], ids=repr)
@pytest.mark.parametrize("reader", READERS)
def test_readers_reject_what_is_no_integer(reader, value):
    # 1.0, True and "2" went through int() or isinstance(x, int) at some readers
    read, _ = READERS[reader]
    with pytest.raises(ValueError):
        read(value)


@pytest.mark.parametrize("reader", READERS)
def test_readers_accept_an_integral_fraction(reader):
    read, check = READERS[reader]
    value = ACCEPTED.get(reader, 2)
    assert check(read(Fraction(value)))
    assert check(read(value))


def test_former_silent_readings_are_errors():
    with pytest.raises(ValueError, match="an exponent must be an integer, got 1.0"):
        Polynomial({(1.0, True): 0}, 2)  # was x*y
    with pytest.raises(ValueError, match="variable count must be an integer, got 2.9"):
        Polynomial({}, 2.9)  # had n = 2
    with pytest.raises(ValueError, match="variable count must be an integer, got '2'"):
        Polynomial({}, "2")
    with pytest.raises(ValueError, match="variable count must be an integer, got 1.0"):
        check_admissible([[1, 1]], 1.0)  # stored a float n
    with pytest.raises(ValueError, match="window degree must be an integer, got True"):
        monomial_window(1, "poly", True)  # built the window {1, x}


def test_to_int():
    assert to_int(3, "k") == 3 and to_int(Fraction(-4, 2), "k") == -2
    assert type(to_int(Fraction(6, 3), "k")) is int
    for bad in (True, False, 2.0, "3", Fraction(1, 3), None, [1]):
        with pytest.raises(ValueError, match=r"^k must be an integer, got "):
            to_int(bad, "k")


def test_to_exponents_checks_length_and_sign():
    assert to_exponents([1, -1], 2, LAURENT) == (1, -1)
    assert to_exponents((), 0, POLY) == ()
    with pytest.raises(ValueError, match="has length 1, expected 2"):
        to_exponents((1,), 2, LAURENT)
    with pytest.raises(ValueError, match="negative exponent"):
        to_exponents((1, -1), 2, POLY)
    with pytest.raises(ValueError, match="negative exponent"):
        truncated_tropicalization([{(1, -1): 1}], 2, 2)
    with pytest.raises(ValueError, match="has length 1, expected 2"):
        truncated_tropicalization([{(1,): 1}], 2, 2)


def test_equal_keys_of_one_mapping_are_one_term():
    # Fraction(2) == 2 with equal hashes, so a mapping holds at most one of them
    f = Polynomial({(Fraction(2), 0): 1, (2, 0): 3, (0, 1): 0}, 2)
    assert f.coeffs == {(2, 0): Fraction(3), (0, 1): Fraction(0)}


# -- one admissibility check ------------------------------------------------------

ROW_LENGTH = "every row must have 2 entries (coefficient column plus 1 exponent columns)"


@pytest.mark.parametrize(
    "rows, violations",
    [
        ([], ["matrix must have at least one row"]),
        ([[1, 2], [3]], [ROW_LENGTH]),
        ([[1, 2, 3]], [ROW_LENGTH]),
        ([[1, 0], [0, 1], [1, 1]], ["at most 2 rows allowed, got 3", "rows are linearly dependent"]),
        ([[-1, 0], [-2, 0]], [
            "rows are linearly dependent", "first non-zero entry of column 0 must be positive"
        ]),
        ([[1, 2]], []),
    ],
)
def test_admissibility_violations_are_those_check_admissible_raises(rows, violations):
    assert admissibility_violations(rows, 1) == violations
    if violations:
        with pytest.raises(primes.AdmissibilityError) as caught:
            check_admissible(rows, 1)
        assert caught.value.violations == violations
    else:
        assert check_admissible(rows, 1).rows == ((1, 2),)


@pytest.mark.parametrize("args", MATRIX_READERS)
def test_matrix_readers_give_one_shape_message(capsys, args):
    # prime-check said "every row must have 2 entries (...)", the other four
    # "matrix must be non-empty with 2 columns"
    code, out, err = run_cli([*args, "--matrix", "[[1,2],[3]]"], capsys)
    if args[0] == "prime-check":
        assert (code, err) == (0, "")
        assert json.loads(out) == {"admissible": False, "violations": [ROW_LENGTH]}
    else:
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": "domain", "message": ROW_LENGTH}


@pytest.mark.parametrize("args", MATRIX_READERS)
@pytest.mark.parametrize(
    "matrix, message",
    [
        ("[[1.5, 0]]", "floating point values are not allowed; use rationals"),
        ("[[1, true]]", "booleans are not rational numbers"),
        ('[["1.5", 0]]', "expected an integer or a 'p/q' string, got '1.5'"),
        ('[[1, "1/0"]]', "zero denominator in '1/0'"),
        ("[[1, null]]", "expected an integer or a 'p/q' string, got None"),
        ("[[1, 0], [2.5]]", "floating point values are not allowed; use rationals"),  # ragged too
    ],
)
def test_matrix_entries_are_read_by_check_admissible(capsys, args, matrix, message):
    # the entry errors parse_matrix_json raised, now raised by the one reader
    code, out, err = run_cli([*args, "--matrix", matrix], capsys)
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "domain", "message": message}


@pytest.mark.parametrize("matrix", ["[[1,2]]", "[[1,0],[2,0]]", "[[1,2],[3]]"])
def test_prime_check_builds_its_matrix_once(capsys, monkeypatch, matrix):
    # parse_matrix_json read every entry too, before check_admissible read it again
    reads, ranks = [], []
    to_fraction, int_rank = primes.to_fraction, primes.int_rank
    for module in (parsing, primes):
        monkeypatch.setattr(module, "to_fraction", lambda x: reads.append(x) or to_fraction(x))
    monkeypatch.setattr(primes, "int_rank", lambda rows: ranks.append(rows) or int_rank(rows))
    assert run_cli(["prime-check", "--matrix", matrix], capsys)[0] == 0
    assert reads == [x for row in json.loads(matrix) for x in row]  # each entry once, in order
    assert len(ranks) == (matrix != "[[1,2],[3]]")


# -- a Laurent complex has no bottom strata ------------------------------------


def _laurent_with_strata():
    data = complex_to_json(affine_prevariety([P("x + y + 0", mode=POLY)]))
    assert any(cell["stratum"] for cell in data["cells"])
    return {**data, "mode": LAURENT}


def test_laurent_complex_with_bottom_strata_rejected():
    with pytest.raises(ValueError, match="bottom strata exist only in poly mode"):
        complex_from_json(_laurent_with_strata())
    poly = {**_laurent_with_strata(), "mode": POLY}
    assert complex_to_json(complex_from_json(poly)) == poly


def test_cli_plot_of_laurent_complex_with_bottom_strata_is_domain_error(capsys):
    # plot --complex drew it and exited 0
    code, out, err = run_cli(["plot", "--complex", json.dumps(_laurent_with_strata())], capsys)
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "domain", "message": "bottom strata exist only in poly mode"}


# -- input paths the other tests do not run ----------------------------------------


@pytest.mark.parametrize(
    "args, option, text",
    [
        (["prime-check"], "--matrix", "[[1, 0], [0, 1]]"),
        (["prime-variety"], "--matrix", "[[2, 1, 4]]"),
        (["tideal-check"], "--circuits", '{"nvars": 1, "degree": 2, "circuits": [[[0], [1]]]}'),
        (["plot"], "--complex", json.dumps(complex_to_json(hypersurface(P("x + y + 0"))))),
    ],
)
def test_json_options_read_a_file_path_like_inline_json(tmp_path, capsys, args, option, text):
    path = tmp_path / "input.json"
    path.write_text(text)
    inline = run_cli([*args, option, text], capsys)
    assert inline[0] == 0 and inline[1]
    assert run_cli([*args, option, str(path)], capsys) == inline


def test_cli_prime_compare_term_that_is_no_single_term(capsys):
    code, out, err = run_cli(
        ["prime-compare", "--matrix", "[[1,2]]", "--term1", "x + 1", "--term2", "1"], capsys
    )
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "domain", "message": "'x + 1' is not a single term"}


def test_cli_plot_bbox_of_three_numbers(capsys):
    code, out, err = run_cli(["plot", "--poly", "x + y + 0", "--bbox=-5,-5,5"], capsys)
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "domain", "message": "--bbox expects xmin,ymin,xmax,ymax"}


def test_cli_plot_of_a_two_dimensional_cell(capsys):
    code, out, err = run_cli(["plot", "--complex", json.dumps(_complex(2, [], 2))], capsys)
    assert (code, out) == (1, "")
    message = "2-dimensional cells are not supported by the renderer"
    assert json.loads(err) == {"error": "domain", "message": message}


def test_polynomial_powers():
    f = P("x + 1")
    assert f ** 0 == Polynomial.one(1)
    assert f ** 1 == f
    assert f ** 2 == P("x^2 + 1*x + 2") == f * f
    assert f ** 3 == f * f * f
    with pytest.raises(ValueError, match="negative powers"):
        f ** -1


def test_vanishes_on_complex_zero_polynomial_and_ambient_mismatch():
    line = hypersurface(P("x + y + 0"))
    assert not vanishes_on_complex(Polynomial.zero(2), line)  # vanishes nowhere on R^n
    with pytest.raises(ValueError, match="ambient mismatch: 1 vs 2"):
        vanishes_on_complex(P("x + 0"), line)


def test_witness_prime_needs_a_non_empty_complex_over_r_n():
    empty = hypersurface(P("x"))
    assert empty.cells == ()
    with pytest.raises(EmptyVarietyError):
        witness_prime(empty, [P("x")])
    stratified = affine_prevariety([P("x + y + 0", mode=POLY)])
    with pytest.raises(ValueError, match="witness construction expects an R\\^n complex"):
        witness_prime(stratified, [P("x + y + 0", mode=POLY)])


# -- a missing JSON key is named, with the object it is missing from -------------

TRACE_FILES = sorted((Path(__file__).parent.parent / "traces").glob("*.json"))
# the circuit JSON of the README: nvars, degree, mode (optional) and circuits
CIRCUIT_FILE = {"nvars": 2, "degree": 1, "mode": "poly", "circuits": [[[0, 0], [1, 0], [0, 1]]]}


def _deletions(trace):
    """(trace without one key, the key, the object it is missing from), for every key but mode."""
    for key in trace:
        if key != "mode":
            yield {k: v for k, v in trace.items() if k != key}, key, "trace JSON"
    for index, step in enumerate(trace["steps"]):
        for key in step:
            steps = list(trace["steps"])
            steps[index] = {k: v for k, v in step.items() if k != key}
            yield {**trace, "steps": steps}, key, f"trace JSON: steps[{index}]"


@pytest.mark.parametrize("path", TRACE_FILES, ids=lambda p: p.stem)
def test_trace_missing_key_is_named(capsys, tmp_path, path):
    # the message was only the quoted key, e.g. "'nvars'"
    keys = set()
    for data, key, where in _deletions(json.loads(path.read_text())):
        trace = tmp_path / "trace.json"
        trace.write_text(json.dumps(data))
        code, out, err = run_cli(["trace-verify", "--trace", str(trace)], capsys)
        assert (code, out) == (1, ""), (key, where)
        assert json.loads(err) == {"error": "domain", "message": f'{where} has no "{key}"'}
        keys.add(key)
    assert {"nvars", "generators", "steps", "goal", "rule", "conclusion"} <= keys, keys


@pytest.mark.parametrize("key", ["nvars", "degree", "circuits"])
def test_circuit_missing_key_is_named(capsys, key):
    assert run_cli(["tideal-check", "--circuits", json.dumps(CIRCUIT_FILE)], capsys)[0] == 0
    data = {k: v for k, v in CIRCUIT_FILE.items() if k != key}
    code, out, err = run_cli(["tideal-check", "--circuits", json.dumps(data)], capsys)
    assert (code, out) == (1, "")
    message = json.loads(err)["message"]
    assert json.loads(err)["error"] == "domain" and f'"{key}"' in message
    if key != "circuits":
        assert message == f'circuit JSON has no "{key}"'
