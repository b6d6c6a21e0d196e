"""Command line front end.

Exit codes: 0 on success, 1 on domain errors, 2 on parse/syntax errors
(argument errors included).  Errors are emitted as JSON objects on stderr.
Each subcommand accepts only the options its handler reads.  The
argument parser is built once per process and reused by every ``main``
call; each call parses into a fresh namespace.

``parse_args`` hands the arguments after a subcommand's name straight to
that subcommand's parser, which is all the top-level parser would do with
them: its subcommand argument takes every remaining argument, so the
namespace and any usage error are the same.  Any other command line (an
empty one, ``-h`` or an unknown name) goes through the top-level parser.

Every JSON reply on stdout, and every trace of ``traces/``, is written by
one writer, ``json_text``, whose bytes are those of ``json.dumps(data,
indent=2, sort_keys=True)``.  Errors on stderr stay on ``json.dump``.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import re
import sys
from json.encoder import encode_basestring_ascii as _escape
from pathlib import Path

from .krull import EmptyVarietyError, coordinate_dimension
from .parsing import (
    ParseError,
    clip,
    format_polynomial,
    monomial_text,
    parse_classical,
    parse_point,
    parse_polynomials,
    parse_term,
)
from .polynomials import LAURENT, POLY, Polynomial
from .primes import (
    GEOMETRIC,
    AdmissibilityError,
    bend_ideal_member,
    classify_prime,
    compare_terms,
    geometric_prime_of_point,
    matrix_from_json,
    variety_of_prime,
)
from .rendering import render_svg
from .sampling import prime_members, require_member_degree, require_member_window
from .scalars import scalar_str
from .traces import load_trace, verify_trace
from .tropical_linear import (
    AxiomResult,
    check_tropical_axiom,
    circuits_from_json,
    circuits_to_json,
    monomial_window,
    truncated_tropicalization,
)
from .varieties import (
    affine_prevariety,
    complex_from_json,
    complex_to_json,
    hypersurface,
    prevariety,
)

MAX_TRIALS = 1_000  # tideal-check members; sampling stops after 200 draws per trial


def _emit(data, args) -> None:
    print(_as_text(data) if args.format == "text" else json_text(data))


def json_text(data) -> str:
    """``data`` as the text of ``json.dumps(data, indent=2, sort_keys=True)``, byte for byte.

    CPython writes indented JSON with its pure-Python encoder; this writer
    does the same work in one pass.  Keys are sorted, strings go through
    ``encode_basestring_ascii`` (the C escaper ``json.dumps`` uses), ints
    through ``int.__repr__``, and an empty list or dict is ``[]`` or ``{}``.
    It takes dicts with str keys, lists, tuples, str, int, bool and None;
    any other value, floats and Fractions included, is a TypeError.
    """
    parts: list[str] = []
    _write_json(data, parts, "\n")
    return "".join(parts)


def _write_json(value, parts: list[str], newline: str) -> None:
    """Append ``value``'s JSON text to ``parts``; ``newline`` ends a line at its depth."""
    if isinstance(value, str):
        parts.append(_escape(value))
    elif value is None:
        parts.append("null")
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    elif isinstance(value, int):
        parts.append(int.__repr__(value))
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            parts.append(separator)
            parts.append(_escape(key))
            parts.append(": ")
            _write_json(value[key], parts, inner)
            separator = "," + inner
        parts.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        inner = newline + "  "
        separator = "[" + inner
        for item in value:
            parts.append(separator)
            _write_json(item, parts, inner)
            separator = "," + inner
        parts.append(newline + "]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _as_text(data, indent: str = "") -> str:
    """One ``key: value`` or ``- item`` line per scalar, sorted by key.

    A non-empty inner list or dict sits indented under its own key or
    marker; an empty one prints as ``[]`` or ``{}``.
    """
    if isinstance(data, dict):
        items = [(f"{key}:", data[key]) for key in sorted(data)]
    else:
        items = [("-", value) for value in data]
    lines = []
    for label, value in items:
        if isinstance(value, (dict, list)) and value:
            lines.append(f"{indent}{label}")
            lines.append(_as_text(value, indent + "  "))
        else:
            lines.append(f"{indent}{label} {value}")
    return "\n".join(lines)


def _load_json_arg(text: str, option: str):
    """JSON text, or the JSON of the file it names; nesting too deep to decode is a domain error.

    Text that is no JSON and no readable file name is a domain error naming
    the option, with the text cut to 80 characters.
    """
    if not text.lstrip().startswith(("[", "{")):
        try:
            if Path(text).is_file():
                text = Path(text).read_text()
        except OSError as exc:
            raise ValueError(f"{option}: cannot read {clip(text)!r} as a file: {exc.strerror}") from None
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON is nested too deeply to read") from None


def _file_name(value: str | None, option: str) -> str | None:
    """An option's file name; an empty one is a domain error, not the directory '.'."""
    if value == "":
        raise ValueError(f"{option} is empty: it needs a file name")
    return value


def _unread(args, source: str, names) -> None:
    """A domain error naming the options in ``names`` given beside ``source``, which reads none."""
    given = [f"--{name}" for name in names if getattr(args, name) is not None]
    if given:
        raise ValueError(f"{args.command} {source} does not read {', '.join(given)}")


def _polynomials(args, mode: str, nvars: int | None) -> list[Polynomial]:
    """The --poly and --file texts, read in ``mode`` over ``nvars`` variables (None: inferred)."""
    texts = list(args.poly or [])
    file = _file_name(args.file, "--file")
    if file is not None:
        texts.extend(
            line.strip()
            for line in Path(file).read_text().splitlines()
            if line.strip() and not line.strip().startswith("#")
        )
    if not texts:
        raise ValueError("no polynomials given (use --poly or --file)")
    return parse_polynomials(texts, mode, nvars)


def _polynomial(args, mode: str, nvars: int | None) -> Polynomial:
    """The polynomial of a command that takes exactly one."""
    polys = _polynomials(args, mode, nvars)
    if len(polys) != 1:
        raise ValueError(f"{args.command} takes one polynomial, got {len(polys)}")
    return polys[0]


# -- subcommand implementations ----------------------------------------------


def _cmd_eval(args):
    f = _polynomial(args, args.mode, args.nvars)
    value, vanishes = f.value_and_vanishing(parse_point(args.point))
    _emit({"value": scalar_str(value), "vanishes": vanishes}, args)


def _cmd_bend(args):
    f = _polynomial(args, args.mode, args.nvars)
    pairs = [[format_polynomial(p.left), format_polynomial(p.right)] for p in f.bend_pairs()]
    _emit({"pairs": pairs}, args)


def _cmd_hypersurface(args):
    f = _polynomial(args, args.mode, args.nvars)
    _emit(complex_to_json(hypersurface(f)), args)


def _cmd_prevariety(args):
    _emit(complex_to_json(prevariety(_polynomials(args, args.mode, args.nvars))), args)


def _cmd_affine_prevariety(args):
    _emit(complex_to_json(affine_prevariety(_polynomials(args, POLY, args.nvars))), args)


def _cmd_dim(args):
    report = coordinate_dimension(_polynomials(args, args.mode, args.nvars))
    _emit(report.to_json(), args)


def _cmd_prime_check(args):
    try:
        matrix = matrix_from_json(_load_json_arg(args.matrix, "--matrix"))
    except AdmissibilityError as exc:
        _emit({"admissible": False, "violations": exc.violations}, args)
        return
    kind, r = classify_prime(matrix)
    _emit({"admissible": True, "rank": r, "kind": kind}, args)


def _cmd_prime_compare(args):
    matrix = matrix_from_json(_load_json_arg(args.matrix, "--matrix"))
    t1 = parse_term(args.term1, args.mode, matrix.n)
    t2 = parse_term(args.term2, args.mode, matrix.n)
    _emit({"order": compare_terms(matrix, t1, t2)}, args)


def _cmd_prime_variety(args):
    matrix = matrix_from_json(_load_json_arg(args.matrix, "--matrix"))
    point = variety_of_prime(matrix)
    _emit({"point": None if point is None else [str(x) for x in point]}, args)


def _cmd_prime_member(args):
    matrix = matrix_from_json(_load_json_arg(args.matrix, "--matrix"))
    f = _polynomial(args, args.mode, matrix.n)
    _emit({"member": bend_ideal_member(matrix, f)}, args)


def _cmd_trace_verify(args):
    result = verify_trace(load_trace(args.trace, "--trace"))
    payload = {"accepted": result.accepted}
    if not result.accepted:
        payload["failed_step"] = result.failed_step
        payload["reason"] = result.reason
    _emit(payload, args)


def _cmd_tideal_check(args):
    """The monomial elimination axiom on circuits, or on members of a prime's bend ideal.

    A geometric prime (rank 1, non-zero (1,1) entry, such as the prime of a
    point) is decided without a sample check, by lemma (a): on a geometric
    prime the axiom holds for every triple (f, g, u) of members.

    Proof, with F, T, M and the cases of ``_witness_exists``.  Let K be the
    larger top key of f and g, and S the positions v != u where max(f_v,
    g_v) has key K.  Every key is at most K, and the polynomial with top key
    K has two top terms, so S is not empty.  If F is empty, case 1 holds.
    If M < K, S lies in T, and a tie above M gives case 4.  If M = K and S
    is one position v, then v is in F; two terms with one exponent and one
    key have one coefficient (column 0 is not zero), so exactly one of f_v,
    g_v has key K, say h_v.  h's second top term is u, so the other
    polynomial, equal to h at u, has key K at u and a top term w != u at K;
    w != v, which contradicts S = {v}.  So M = K is attained twice in F and
    T, case 2.

    So ``--point p``, which is the geometric prime [[1, p]], and a geometric
    ``--matrix`` pass with no draw once the window and degree are valid,
    even where draws would find no member.  A non-geometric ``--matrix``
    checks the full sample of ``prime_members``.
    """
    given = [f"--{k}" for k in ("circuits", "point", "matrix") if getattr(args, k) is not None]
    if given == ["--circuits"]:  # it reads none of the four options below
        _unread(args, "--circuits", ("mode", "seed", "degree", "trials"))
    # their defaults, for --point and --matrix
    mode, seed = args.mode or LAURENT, args.seed or 0
    degree = 2 if args.degree is None else args.degree
    trials = 15 if args.trials is None else args.trials
    if trials < 1:
        raise ValueError(f"--trials must be at least 1, got {trials}")
    if trials > MAX_TRIALS:
        raise ValueError(f"--trials must be at most {MAX_TRIALS}, got {trials}")
    if len(given) > 1:
        got = " and ".join(given)
        raise ValueError(f"tideal-check takes one of --circuits, --point or --matrix, got {got}")
    if args.circuits is not None:
        circuits = circuits_from_json(_load_json_arg(args.circuits, "--circuits"))
        result = check_tropical_axiom(circuits)
    else:
        if args.point is not None:
            prime = geometric_prime_of_point(parse_point(args.point))
        elif args.matrix is not None:
            prime = matrix_from_json(_load_json_arg(args.matrix, "--matrix"))
        else:
            raise ValueError("one of --circuits, --point or --matrix is required")
        window = monomial_window(prime.n, mode, degree)  # the window cap
        if classify_prime(prime)[0] == GEOMETRIC:
            require_member_degree(degree)
            require_member_window(window)
            result = AxiomResult(True)  # lemma (a)
        else:
            result = check_tropical_axiom(prime_members(random.Random(seed), prime, window, trials))
    payload = {"passed": result.passed}
    if result.counterexample:
        f, g, u = result.counterexample
        payload["counterexample"] = {
            "f": format_polynomial(f),
            "g": format_polynomial(g),
            "monomial": monomial_text(u, f.n),
        }
    _emit(payload, args)


def _cmd_tideal_trop(args):
    parsed = [parse_classical(text, args.nvars) for text in args.gens]
    n = max(gn for _, gn in parsed)
    gens = [{e + (0,) * (n - len(e)): c for e, c in coeffs.items()} for coeffs, _ in parsed]
    _emit(circuits_to_json(truncated_tropicalization(gens, n, args.degree)), args)


def _cmd_plot(args):
    output = _file_name(args.output, "--output")
    if args.complex is not None:
        if args.poly or args.file is not None:
            raise ValueError("plot takes --complex or --poly/--file, not both")
        _unread(args, "--complex", ("mode", "nvars"))
        x = complex_from_json(_load_json_arg(args.complex, "--complex"))
    else:
        x = hypersurface(_polynomial(args, args.mode or LAURENT, args.nvars))
    bbox = parse_point(args.bbox)
    if len(bbox) != 4:
        raise ValueError("--bbox expects xmin,ymin,xmax,ymax")
    svg = render_svg(x, bbox)
    if output is not None:
        Path(output).write_text(svg)
    else:
        sys.stdout.write(svg)


class UsageError(Exception):
    """A command line that argparse rejects: missing, unknown or ill-typed arguments."""


class _Parser(argparse.ArgumentParser):
    """argparse reports errors by raising UsageError instead of printing usage and exiting."""

    def error(self, message):
        raise UsageError(message)


_INTEGER = re.compile(r"[+-]?[0-9]+")  # the integer form of a rational literal


def _integer(text: str, non_negative: bool = False) -> int:
    """An integer option: ASCII digits with an optional sign, at least 0 if ``non_negative``."""
    try:
        value = int(text) if _INTEGER.fullmatch(text) else None
    except ValueError:  # more digits than int() converts
        value = None
    if value is None or (non_negative and value < 0):
        kind = "non-negative int" if non_negative else "int"
        raise argparse.ArgumentTypeError(f"invalid {kind} value: {text!r}")
    return value


def _add_polys(sub, nvars: bool = True):
    sub.add_argument("--poly", action="append", help="polynomial text (repeatable)")
    sub.add_argument("--file", help="file with one polynomial per line")
    if nvars:
        sub.add_argument("--nvars", type=functools.partial(_integer, non_negative=True))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later call.

    ``parse_args`` keeps no state between calls, so sharing it is safe as
    long as no caller adds to it.  Each subcommand declares only the options
    its handler reads; any other is an argument error.
    """
    parser = _Parser(
        prog="tropica",
        description="Exact tropical commutative algebra workbench.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # the subparser of each name, for parse_args

    def command(name, func, summary, mode: bool = True, emits_json: bool = True):
        """A subparser with --mode unless ``mode`` is false, and --format if it prints JSON."""
        p = sub.add_parser(name, help=summary)
        if mode:
            p.add_argument("--mode", choices=[LAURENT, POLY], default=LAURENT)
        if emits_json:
            p.add_argument("--format", choices=["json", "text"], default="json")
        p.set_defaults(func=func)
        return p

    p = command("eval", _cmd_eval, "evaluate a polynomial at a rational point")
    _add_polys(p)
    p.add_argument("--point", required=True)

    _add_polys(command("bend", _cmd_bend, "bend pairs of a polynomial"))
    _add_polys(command("hypersurface", _cmd_hypersurface, "tropical hypersurface as a cell complex"))
    _add_polys(command("prevariety", _cmd_prevariety, "intersection of hypersurfaces over R^n"))
    _add_polys(
        command("affine-prevariety", _cmd_affine_prevariety, "stratified prevariety over T^n", mode=False)
    )
    _add_polys(command("dim", _cmd_dim, "dimension report for the coordinate semiring"))

    p = command("prime-check", _cmd_prime_check, "validate an admissible matrix", mode=False)
    p.add_argument("--matrix", required=True, help="JSON array of rows (or a file path)")

    p = command("prime-compare", _cmd_prime_compare, "order two terms under a prime")
    p.add_argument("--matrix", required=True)
    p.add_argument("--term1", required=True)
    p.add_argument("--term2", required=True)

    p = command("prime-variety", _cmd_prime_variety, "the at-most-one point of a prime", mode=False)
    p.add_argument("--matrix", required=True)

    p = command("prime-member", _cmd_prime_member, "do all bend pairs of f lie in the prime?")
    _add_polys(p, nvars=False)  # the matrix fixes the variable count
    p.add_argument("--matrix", required=True)

    p = command("trace-verify", _cmd_trace_verify, "verify a derivation trace file", mode=False)
    p.add_argument("--trace", required=True)

    p = command("tideal-check", _cmd_tideal_check, "monomial elimination axiom check")
    p.set_defaults(mode=None)  # unset, like --seed, --degree and --trials: --circuits reads none
    p.add_argument("--seed", type=_integer)
    p.add_argument("--circuits", help="circuit JSON (or file path)")
    p.add_argument("--point", help="geometric point, e.g. 0,0")
    p.add_argument("--matrix", help="admissible matrix JSON")
    p.add_argument("--degree", type=_integer)
    p.add_argument("--trials", type=_integer)

    p = command("tideal-trop", _cmd_tideal_trop, "circuits of a tropicalized rational ideal", mode=False)
    p.add_argument("--gens", action="append", required=True, help="classical polynomial, e.g. 'x - y'")
    p.add_argument("--degree", type=_integer, required=True)
    p.add_argument("--nvars", type=functools.partial(_integer, non_negative=True))

    p = command("plot", _cmd_plot, "render a planar complex to SVG", emits_json=False)
    p.set_defaults(mode=None)  # --complex reads no --mode
    _add_polys(p)
    p.add_argument("--complex", help="complex JSON (or file path)")
    p.add_argument("--bbox", default="-5,-5,5,5")
    p.add_argument("--output", help="output file (default: stdout)")

    return parser


def parse_args(argv) -> argparse.Namespace:
    """The namespace of ``argv`` (no program name), as ``build_parser().parse_args(argv)``."""
    parser = build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args = command.parse_args(argv[1:])
    args.command = argv[0]
    return args


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else list(argv))
        args.func(args)
    except (ParseError, UsageError) as exc:
        json.dump({"error": "parse", "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 2
    except (
        ValueError, KeyError, AdmissibilityError, EmptyVarietyError, ZeroDivisionError, OSError
    ) as exc:
        if isinstance(exc, OSError) and exc.filename is not None:  # from --file or --output, say
            exc = OSError(exc.errno, exc.strerror, clip(str(exc.filename)))
        json.dump({"error": "domain", "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
