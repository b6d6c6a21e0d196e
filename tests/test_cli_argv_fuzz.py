"""Seeded argv mutations for every subcommand end in the README's error contract.

Each subcommand starts from a valid command line.  A mutation drops,
duplicates or swaps the values of options, adds an unknown option, puts a
non-integer into an integer option, empties a value, writes a float into a
rational slot, or passes the matrix `[[]]`.  Whatever the mutation, `main`
returns 0, 1 or 2; on 1 or 2, stderr is one JSON object whose `error` is
`domain` or `parse` respectively; and no exception, `SystemExit` included,
escapes `main`.

The same mutations, the README command lines and the top-level lines
(none, `-h`, an unknown name) check `cli.parse_args`, which hands a
subcommand's arguments straight to its parser: it gives the namespace, the
usage error or the help text and exit of `build_parser().parse_args`.
"""

import json
import random
import re

import pytest

from tropica import cli
from tropica.cli import UsageError, build_parser, main

from oracles.cli import BASES, readme_commands

INT_OPTIONS = {"--nvars", "--seed", "--degree", "--trials"}
MATRIX_OPTIONS = {"--matrix"}
ERRORS = {1: "domain", 2: "parse"}

# the matrix form of tideal-check takes its own path through the samplers
EXTRA = [("tideal-check", ["--matrix", "[[0,1,1]]", "--degree", "1", "--trials", "3"])]


def _options(rest):
    """(option, value) pairs; `--opt=value` counts as one pair with value None."""
    pairs, i = [], 0
    while i < len(rest):
        if "=" in rest[i] or i + 1 == len(rest):
            pairs.append((rest[i], None))
            i += 1
        else:
            pairs.append((rest[i], rest[i + 1]))
            i += 2
    return pairs


def _flatten(pairs):
    return [token for pair in pairs for token in pair if token is not None]


def _float_in(value: str) -> str:
    """The value with its first integer written as a decimal."""
    return re.sub(r"\d+", lambda m: m.group() + ".5", value, count=1)


def _mutate(rng, command, rest):
    pairs = _options(rest)
    at = rng.randrange(len(pairs))
    option, value = pairs[at]
    kind = rng.choice(["drop", "duplicate", "swap", "unknown", "int", "empty", "float", "matrix"])
    if kind == "drop":
        del pairs[at]
    elif kind == "duplicate":
        pairs.insert(at, pairs[at])
    elif kind == "swap":
        valued = [i for i, (_, v) in enumerate(pairs) if v is not None]
        if len(valued) > 1:
            i, j = rng.sample(valued, 2)
            (oi, vi), (oj, vj) = pairs[i], pairs[j]
            pairs[i], pairs[j] = (oi, vj), (oj, vi)
    elif kind == "unknown":
        pairs.insert(at, rng.choice([("--bogus", "1"), ("--Poly", "x"), ("-q", None), ("--nvar=2", None)]))
    elif kind == "int":
        ints = [i for i, (o, _) in enumerate(pairs) if o in INT_OPTIONS] or [at]
        i = rng.choice(ints)
        pairs[i] = (pairs[i][0], rng.choice(["abc", "1.5", "2/1", "", "-1", "0", "1e1"]))
    elif kind == "empty" and value is not None:
        pairs[at] = (option, "")
    elif kind == "float" and value is not None:
        pairs[at] = (option, _float_in(value))
    elif kind == "matrix":
        matrices = [i for i, (o, _) in enumerate(pairs) if o in MATRIX_OPTIONS]
        if matrices:
            pairs[matrices[0]] = ("--matrix", rng.choice(["[[]]", "[[1],[]]", "[[0.5,1]]", "[[1,2],[3]]"]))
        else:
            pairs.append(("--matrix", "[[]]"))
    return [command, *_flatten(pairs)]


def _cases(seed, per_command):
    rng = random.Random(seed)
    bases = list(BASES.items()) + EXTRA
    return [_mutate(rng, command, rest) for command, rest in bases for _ in range(per_command)]


def _assert_contract(argv, capsys):
    try:
        code = main(argv)
    except (Exception, SystemExit) as exc:
        pytest.fail(f"{argv!r} raised {exc!r}")
    out, err = capsys.readouterr()
    assert code in (0, 1, 2), argv
    if code:
        assert out == "", argv
        error = json.loads(err)
        assert set(error) == {"error", "message"} and error["error"] == ERRORS[code], argv
    else:
        assert err == "", argv
    return code


def test_base_command_lines_succeed(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for command, rest in list(BASES.items()) + EXTRA:
        assert _assert_contract([command, *rest], capsys) == 0


def test_mutated_argv_keeps_the_error_contract(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # plot writes line.svg (or a swapped name) here
    codes = [_assert_contract(argv, capsys) for argv in _cases(20261018, 25)]
    # the mutations reach all three outcomes
    assert {0, 1, 2} <= set(codes)


# the top-level parser's own lines: no subcommand, its help, an unknown name, a subcommand's help
TOP_LEVEL = [[], ["-h"], ["--help"], ["frobnicate"], ["eval", "--help"], ["--poly", "x", "eval"]]


def _parsed(parse, argv, capsys):
    """The namespace, the usage error or the exit code of ``parse(argv)``, and what it printed."""
    try:
        got = "ok", vars(parse(argv))
    except UsageError as exc:
        got = "usage", str(exc)
    except SystemExit as exc:
        got = "exit", exc.code
    return got, capsys.readouterr()


def test_dispatch_matches_the_full_parser(capsys):
    lines = _cases(20261018, 25) + _cases(20261020, 200) + readme_commands() + TOP_LEVEL
    seen = set()
    for argv in lines:
        got = _parsed(cli.parse_args, argv, capsys)
        assert got == _parsed(build_parser().parse_args, argv, capsys), argv
        seen.add(got[0][0])
    assert seen == {"ok", "usage", "exit"}
