"""Every JSON format the command line writes, it reads back.

Matrix, circuit, complex and trace JSON each have one writer and one reader,
side by side in the module that owns the type: `AdmissibleMatrix.to_json`
and `primes.matrix_from_json`, `tropical_linear.circuits_to_json` and
`circuits_from_json`, `varieties.complex_to_json` and `complex_from_json`,
`traces.trace_to_json` and `trace_from_json`.  On seeded outputs, reading
what a writer wrote gives the object back, and writing it again gives the
same bytes.  The command line reads what it prints.  On the README example
of each format, a deleted key is named with its object, and a field of
another JSON type ends in a JSON error, never a traceback, and so does JSON
nested too deeply to decode.  An over-long argument is echoed in an error
cut to 80 characters, naming its option where the reader knows it.  A
monomial field takes no coefficient.  The one writer of the command line's
stdout, `cli.json_text`, writes the bytes of
`json.dumps(data, indent=2, sort_keys=True)` on seeded payloads.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from tropica import traces
from tropica.cli import json_text
from tropica.krull import EmptyVarietyError, coordinate_dimension
from tropica.parsing import format_polynomial
from tropica.polyhedra import _fractions
from tropica.polynomials import LAURENT, POLY
from tropica.primes import matrix_from_json
from tropica.traces import trace_from_json, trace_to_json
from tropica.tropical_linear import circuits_from_json, circuits_to_json, truncated_tropicalization
from tropica.varieties import (
    affine_prevariety,
    complex_dim,
    complex_from_json,
    complex_to_json,
    hypersurface,
    prevariety,
)

from oracles.cli import MATRIX_READERS, readme_json, run_cli
from oracles.tropical_linear import random_ideal
from oracles.varieties import collinear_or_random_polynomial

REPO = Path(__file__).resolve().parent.parent
CIRCUIT_PINS = sorted((REPO / "tests" / "pins").glob("tideal_trop_*.json"))
TRACE_FILES = sorted((REPO / "traces").glob("*.json"))
PASSED = '{\n  "passed": true\n}\n'


def _bytes(data) -> str:
    """The bytes the command line prints for ``data``."""
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _decoded(data):
    """``data`` after a trip through JSON text, as a reader receives it."""
    return json.loads(json.dumps(data))


# -- read(write(x)) == x, and the same bytes again ---------------------------------


def _complexes(rng, count):
    """Seeded hypersurfaces and prevarieties in both modes, and affine prevarieties."""
    for i in range(count):
        n = rng.randint(1, 3)
        mode = rng.choice((POLY, LAURENT))
        if i % 3 == 0:
            yield "hypersurface", hypersurface(collinear_or_random_polynomial(rng, n, mode))
        elif i % 3 == 1:
            gens = [collinear_or_random_polynomial(rng, n, mode) for _ in range(2)]
            yield "prevariety", prevariety(gens)
        else:
            gens = [collinear_or_random_polynomial(rng, n, POLY) for _ in range(rng.randint(1, 2))]
            yield "affine", affine_prevariety(gens)


def test_complex_json_round_trips():
    seen = {"hypersurface": 0, "prevariety": 0, "affine": 0, "laurent": 0, "poly": 0, "stratum": 0}
    for kind, x in _complexes(random.Random(2901), 240):
        data = complex_to_json(x)
        assert complex_from_json(_decoded(data)) == x, kind
        assert _bytes(complex_to_json(complex_from_json(_decoded(data)))) == _bytes(data)
        if x.cells:
            seen[kind] += 1
            seen[x.mode] += 1
            seen["stratum"] += any(cell.stratum for cell in x.cells)
    assert min(seen.values()) >= 20, seen


@pytest.mark.parametrize("path", CIRCUIT_PINS, ids=lambda p: p.stem)
def test_circuit_pins_round_trip_and_pass(capsys, path):
    text = path.read_text()
    circuits = circuits_from_json(json.loads(text))
    assert _bytes(circuits_to_json(circuits)) == text
    assert circuits_from_json(_decoded(circuits_to_json(circuits))) == circuits
    # a saved tideal-trop output is a --circuits input; the circuits of a linear
    # slice satisfy strong circuit elimination (Oxley, Matroid Theory, 1.4.12)
    assert run_cli(["tideal-check", "--circuits", str(path)], capsys) == (0, PASSED, "")


def test_seeded_circuits_round_trip_in_both_monomial_forms():
    rng = random.Random(2902)
    seen = {"trivial": 0, "constant": 0, "several": 0}
    for _ in range(200):
        gens, n, degree = random_ideal(rng)
        circuits = truncated_tropicalization(gens, n, degree)
        data = circuits_to_json(circuits)
        assert circuits_from_json(_decoded(data)) == circuits
        assert _bytes(circuits_to_json(circuits_from_json(_decoded(data)))) == _bytes(data)
        vectors = {**data, "circuits": [[list(e) for e in c] for c in circuits.circuits]}
        assert circuits_from_json(_decoded(vectors)) == circuits  # the exponent-vector form
        seen["trivial"] += data["trivial"]
        seen["constant"] += any("1" in c for c in data["circuits"])
        seen["several"] += len(data["circuits"]) > 1
    assert min(seen.values()) >= 10, seen


@pytest.mark.parametrize(
    "gens",
    [
        ["--gens", "x + y - 2", "--degree", "1"],
        ["--gens", "x + y - 2", "--degree", "3"],
        ["--gens", "x - y", "--degree", "3"],
        ["--gens", "x*y - 1", "--degree", "3"],
        ["--gens", "x - y + z - w", "--nvars", "4", "--degree", "1"],
        ["--gens", "x - 1", "--gens", "y - 2", "--degree", "2"],
        ["--gens", "2", "--degree", "2"],
    ],
)
def test_cli_reads_back_tideal_trop(capsys, tmp_path, gens):
    # "a circuit must be an array of exponent vectors" on the first input
    code, out, err = run_cli(["tideal-trop", *gens], capsys)
    assert (code, err) == (0, "")
    path = tmp_path / "circuits.json"
    path.write_text(out)
    assert run_cli(["tideal-check", "--circuits", str(path)], capsys) == (0, PASSED, "")
    assert run_cli(["tideal-check", "--circuits", out], capsys) == (0, PASSED, "")


@pytest.mark.parametrize("path", TRACE_FILES, ids=lambda p: p.stem)
def test_shipped_traces_round_trip(capsys, tmp_path, path):
    text = path.read_text()
    trace = trace_from_json(json.loads(text))
    assert _bytes(trace_to_json(trace)) == text
    assert trace_from_json(_decoded(trace_to_json(trace))) == trace
    written = tmp_path / "trace.json"
    written.write_text(json.dumps(trace_to_json(trace)))
    assert run_cli(["trace-verify", "--trace", str(written)], capsys) == (0, '{\n  "accepted": true\n}\n', "")


def test_dim_witness_round_trips_and_prime_variety_reads_it(capsys):
    rng = random.Random(2903)
    checked = 0
    for _ in range(120):
        n, mode = rng.randint(1, 3), rng.choice((POLY, LAURENT))
        gens = [collinear_or_random_polynomial(rng, n, mode) for _ in range(rng.randint(1, 2))]
        try:
            report = coordinate_dimension(gens)
        except EmptyVarietyError:
            continue
        witness = report.to_json()["witness"]
        assert matrix_from_json(_decoded(witness)) == report.witness
        assert matrix_from_json(_decoded(witness)).to_json() == witness
        # the CLI's dim witness, read by prime-variety: by the paper's first result
        # its prime's variety is one point, the interior point of the first
        # top-dimensional cell, which the witness was built on
        argv = ["dim", *(f"--poly={format_polynomial(g)}" for g in gens), f"--nvars={n}", f"--mode={mode}"]
        code, out, err = run_cli(argv, capsys)
        assert (code, err) == (0, "") and json.loads(out)["witness"] == witness
        x = prevariety(gens)
        cell = next(c for c in x.cells if c.dim == complex_dim(x))
        code, out, err = run_cli(["prime-variety", "--matrix", json.dumps(witness)], capsys)
        assert (code, err) == (0, "")
        assert json.loads(out) == {"point": [str(v) for v in _fractions(cell.interior_point)]}
        checked += 1
    assert checked >= 40, checked


def test_dim_witness_of_the_tropical_line(capsys, tmp_path):
    code, out, _ = run_cli(["dim", "--poly", "x + y + 0"], capsys)
    path = tmp_path / "witness.json"
    path.write_text(json.dumps(json.loads(out)["witness"]))
    code, out, err = run_cli(["prime-variety", "--matrix", str(path)], capsys)
    assert (code, err) == (0, "") and json.loads(out) == {"point": ["-1", "0"]}


@pytest.mark.parametrize(
    "poly", ["x + y + 0", "1/2*x + 1/3*y + 0", "x^2 + 1*x*y + y^2 + x + -1*y + 0", "2*x + -1/2*y^2 + 0"]
)
@pytest.mark.parametrize("mode", [LAURENT, POLY])
def test_cli_plots_a_complex_it_wrote(capsys, poly, mode):
    code, out, _ = run_cli(["hypersurface", "--poly", poly, "--mode", mode], capsys)
    assert code == 0
    drawn = run_cli(["plot", "--complex", out], capsys)
    assert drawn == run_cli(["plot", "--poly", poly, "--mode", mode], capsys)
    assert drawn[0] == 0 and drawn[1].startswith("<svg")


# -- the README examples: missing keys and retyped fields --------------------------


def _examples():
    """(format, the argv before its input, the README example, its optional keys).

    The matrix is that of the README's prime-variety example, given to
    each of the five commands that read a matrix.
    """
    blocks = readme_json()
    matrices = [("matrix", [*argv, "--matrix"], [[1, 1, 2]], set()) for argv in MATRIX_READERS]
    return matrices + [
        ("circuit", ["tideal-check", "--circuits"], blocks["circuits"], {"mode", "trivial"}),
        ("complex", ["plot", "--complex"], blocks["cells"], {"stratum"}),
        ("trace", ["trace-verify", "--trace"], blocks["steps"], {"mode"}),
    ]


def _run(capsys, tmp_path, argv, data):
    """The CLI on ``data``, which follows ``argv``: a file for --trace, inline JSON otherwise."""
    if argv[-1] == "--trace":
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(data))
        return run_cli([*argv, str(path)], capsys)
    return run_cli([*argv, json.dumps(data)], capsys)


def test_readme_examples_are_read(capsys, tmp_path):
    for name, argv, data, _ in _examples():
        code, out, err = _run(capsys, tmp_path, argv, data)
        assert (code, err) == (0, ""), name
        if name == "circuit" or argv[0] == "tideal-check":
            assert out == PASSED


def _objects(data, where):
    """(object, its name in messages) for every object of a complex, circuit or trace."""
    yield data, where
    for key, items in (("cells", data.get("cells")), ("steps", data.get("steps"))):
        for index, item in enumerate(items or []):
            yield item, f"{where}: {key}[{index}]"


@pytest.mark.parametrize("name", ["circuit", "complex", "trace"])
def test_a_deleted_key_is_named_with_its_object(capsys, tmp_path, name):
    _, argv, example, optional = next(e for e in _examples() if e[0] == name)
    deleted = 0
    for obj, where in list(_objects(example, f"{name} JSON")):
        for key in list(obj):
            if key in optional:
                continue
            value = obj.pop(key)
            code, out, err = _run(capsys, tmp_path, argv, example)
            obj[key] = value
            assert (code, out) == (1, ""), (where, key)
            assert json.loads(err) == {"error": "domain", "message": f'{where} has no "{key}"'}
            deleted += 1
    assert deleted >= {"circuit": 3, "complex": 8, "trace": 25}[name], deleted


def _paths(data, path=()):
    """The path of every value inside ``data``, the whole of it included."""
    yield path
    items = data.items() if isinstance(data, dict) else enumerate(data) if isinstance(data, list) else ()
    for key, value in items:
        yield from _paths(value, (*path, key))


def _retyped(data, path, value):
    if not path:
        return value
    copy = json.loads(json.dumps(data))
    target = copy
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return copy


RETYPES = [None, True, 1.5, "x", [], {}]


def test_a_retyped_field_ends_in_an_answer_or_a_json_error(capsys, tmp_path):
    cases, errors = 0, {"parse": 0, "domain": 0}
    for name, argv, example, _ in _examples():
        for path in _paths(example):
            for value in RETYPES:
                code, out, err = _run(capsys, tmp_path, argv, _retyped(example, path, value))
                cases += 1
                if code == 0:
                    assert err == "", (name, path, value)
                    continue
                assert code in (1, 2) and out == "", (name, path, value)
                error = json.loads(err)
                assert error["error"] == {1: "domain", 2: "parse"}[code], (name, path, value, err)
                errors[error["error"]] += 1
    assert cases >= 700 and min(errors.values()) >= 50, (cases, errors)


# -- a monomial field takes no coefficient ---------------------------------------------


def _monomial_fields(trace):
    """(step index, rule, field) of every monomial field of a trace."""
    for index, step in enumerate(trace["steps"]):
        for field, kind in traces._RULES[step["rule"]][0]:
            if kind == traces._MONOMIAL:
                yield index, step["rule"], field


@pytest.mark.parametrize("path", TRACE_FILES, ids=lambda p: p.stem)
def test_a_coefficient_on_a_trace_monomial_is_named(capsys, tmp_path, path):
    # "2*z" and "-3/2*z" in a GEN delete field were read as z and accepted
    trace = json.loads(path.read_text())
    fields = list(_monomial_fields(trace))
    assert fields
    for index, rule, field in fields:
        text = trace["steps"][index][field]
        for coeff in ("2", "-3/2", "1"):
            if text == "1" and coeff == "1":
                continue  # "1" is the constant monomial
            value = coeff if text == "1" else f"{coeff}*{text}"
            trace["steps"][index][field] = value
            code, out, err = _run(capsys, tmp_path, ["trace-verify", "--trace"], trace)
            message = f"{rule} {field} field {value!r} carries the coefficient {coeff}"
            assert (code, out) == (1, "") and json.loads(err) == {"error": "domain", "message": message}
        # the unit coefficient, written out, is the monomial itself
        trace["steps"][index][field] = text if text == "1" else f"0*{text}"
        assert _run(capsys, tmp_path, ["trace-verify", "--trace"], trace)[0] == 0
        trace["steps"][index][field] = text
    assert _run(capsys, tmp_path, ["trace-verify", "--trace"], trace) == (0, '{\n  "accepted": true\n}\n', "")


@pytest.mark.parametrize(
    "circuits, message",
    [
        ([["1", "x"], ["2*x", "y"]], "circuit JSON: circuits[1] monomial '2*x' carries the coefficient 2"),
        ([["-1/2", "x"]], "circuit JSON: circuits[0] monomial '-1/2' carries the coefficient -1/2"),
        ([["x + y"]], "circuit JSON: circuits[0] monomial 'x + y' is not a single term"),
        ([["x", 3]], "circuit JSON: circuits[0] monomial 3 is neither monomial text nor an exponent vector"),
        ([["x^2"]], "monomial (2, 0) is outside the window"),
        ([["x^-1"]], "monomial (-1, 0) is outside the window"),
        ([["x", "x", "y"]], "circuit JSON: circuits[0] repeats a monomial"),
        ([["y"], ["x", [1, 0], "y"]], "circuit JSON: circuits[1] repeats a monomial"),
        ([[[1, 0], [1, 0], [0, 1]]], "circuit JSON: circuits[0] repeats a monomial"),
    ],
)
def test_circuit_monomial_errors_are_named(capsys, circuits, message):
    data = {"nvars": 2, "degree": 1, "circuits": circuits}
    code, out, err = run_cli(["tideal-check", "--circuits", json.dumps(data)], capsys)
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "domain", "message": message}


# -- JSON nested too deeply to decode ------------------------------------------------

# every command line that reads JSON, with the option that takes it
JSON_READERS = [[*argv, "--matrix"] for argv in MATRIX_READERS] + [
    ["tideal-check", "--circuits"],
    ["plot", "--complex"],
    ["trace-verify", "--trace"],
]
DEEP = {"array": "[" * 100_000, "object": '{"a": ' * 100_000 + "1" + "}" * 100_000}
# --trace reads a file only
DEEP_LINES = [
    (argv, form) for argv in JSON_READERS for form in ("inline", "file") if argv[-1] != "--trace" or form == "file"
]


@pytest.mark.parametrize("body", DEEP)
@pytest.mark.parametrize("argv, form", DEEP_LINES, ids=[f"{' '.join(argv)} {form}" for argv, form in DEEP_LINES])
def test_deeply_nested_json_is_a_domain_error(capsys, tmp_path, argv, form, body):
    # json.loads raised RecursionError, which ended in a traceback
    text = DEEP[body]
    if form == "file":
        path = tmp_path / "deep.json"
        path.write_text(text)
        text = str(path)
    code, out, err = run_cli([*argv, text], capsys)
    assert (code, out) == (1, "")
    what = "trace JSON" if argv[-1] == "--trace" else "JSON"
    assert err.count("\n") == 1
    assert json.loads(err) == {"error": "domain", "message": f"{what} is nested too deeply to read"}


# -- an over-long argument in an error ---------------------------------------------------

LONG = "x" * 100_000
# (argv, the option the error names, or None where cli.main clips the OSError's file name)
LONG_LINES = [([*argv, LONG], argv[-1]) for argv in JSON_READERS if argv[-1] != "--trace"] + [
    (["trace-verify", "--trace", "[" * 100_000], "--trace"),
    (["trace-verify", "--trace", "a/" * 50_000], "--trace"),  # no such directory
    (["hypersurface", "--file", LONG], None),
    (["plot", "--poly", "x + y + 0", "--output", LONG], None),
]


@pytest.mark.parametrize("argv, option", LONG_LINES, ids=[" ".join(a[:-1]) for a, _ in LONG_LINES])
def test_an_over_long_argument_is_clipped_in_the_error(capsys, argv, option):
    # the OSError of Path.is_file or Path.read_text echoed all 100,000 characters
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and len(err.encode()) < 300, err[:300]
    message = json.loads(err)["message"]
    assert json.loads(err)["error"] == "domain"
    assert argv[-1][:77] + "..." in message and argv[-1][:78] not in message
    if option is not None:
        assert message.startswith(f"{option}: cannot read "), message


# -- the stdout writer ------------------------------------------------------------------

# quotes, backslashes, control characters, non-ASCII text, and characters
# beyond the BMP, which json.dumps writes as surrogate pairs
CHARACTERS = ['"', "\\", "\x00", "\n", "\t", "\x1f", "\x7f", "/", "a", "Z", " ", "\u00e9", "\u2028", "\u4e2d",
              "\U0001f600", "\U0010ffff"]
INTS = [0, 1, -1, 2**63 - 1, 2**64, -(2**64) - 1, 10**40, -(10**40)]


def _text(rng) -> str:
    return "".join(rng.choice(CHARACTERS) for _ in range(rng.randint(0, 6)))


def _payload(rng, depth: int, seen: set):
    """A random payload of the CLI's types, nested below ``depth`` <= 5, empty containers noted in ``seen``."""
    kind = rng.randrange(7 if depth < 5 else 4)
    if kind == 0:
        return _text(rng)
    if kind == 1:
        return rng.choice([*INTS, rng.randint(-(10**30), 10**30)])
    if kind == 2:
        return rng.choice([True, False])
    if kind == 3:
        return None
    size = rng.choice([0, 0, 1, 2, 3, 4])
    if size == 0:
        seen.add(depth)
    items = [_payload(rng, depth + 1, seen) for _ in range(size)]
    if kind == 4:
        return {_text(rng): item for item in items} if items else {}
    return items if kind == 5 else tuple(items)


def test_json_text_is_the_bytes_of_json_dumps():
    rng = random.Random(3701)
    seen: set = set()
    for _ in range(3000):
        payload = _payload(rng, 0, seen)
        assert json_text(payload) == json.dumps(payload, indent=2, sort_keys=True), payload
    assert seen == set(range(5)), seen  # an empty container at every depth


@pytest.mark.parametrize(
    "value", [1.5, Fraction(1, 2), {1: "a"}, [{"a": [0.0]}], {"a": Fraction(3)}], ids=repr
)
def test_json_text_refuses_what_stdout_never_holds(value):
    with pytest.raises(TypeError):
        json_text(value)
