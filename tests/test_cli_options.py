"""Each subcommand accepts exactly the options its handler reads.

The README's option table must equal the parser's option set, subcommand by
subcommand.  An option that a subcommand once accepted and ignored (`--seed`
outside `tideal-check`, `--mode` where no polynomial is read in a chosen
mode, `--format` on `plot`, `--nvars` on `prime-member`) is an argument
error: exit 2, a JSON parse error on stderr, nothing on stdout.  A negative
variable count is rejected as such, on the command line and in trace JSON.
An option that one input of a subcommand does not read (`--mode`, `--seed`,
`--degree` and `--trials` beside `tideal-check --circuits`, `--mode` and
`--nvars` beside `plot --complex`) is a domain error that names it.
"""

import argparse
import json
import re
from pathlib import Path

import pytest

from tropica.cli import build_parser
from tropica.parsing import parse_polynomial
from tropica.varieties import complex_to_json, hypersurface

from oracles.cli import BASES, run_cli

REPO = Path(__file__).resolve().parent.parent
HELP = {"-h", "--help"}

# (subcommand, option, a value the option would take where it is read)
REMOVED = (
    [
        (command, "--seed", "0")
        for command in (
            "eval", "bend", "hypersurface", "prevariety", "affine-prevariety", "dim",
            "prime-check", "prime-compare", "prime-variety", "prime-member", "trace-verify",
            "tideal-trop", "plot",
        )
    ]
    + [
        (command, "--mode", "laurent")
        for command in ("affine-prevariety", "prime-check", "prime-variety", "trace-verify", "tideal-trop")
    ]
    + [("plot", "--format", "json"), ("prime-member", "--nvars", "2")]
)

# an input of a subcommand, the options given beside it that it does not read, and their names
CIRCUITS = ["tideal-check", "--circuits", '{"nvars": 1, "degree": 1, "circuits": [[[0], [1]]]}']
COMPLEX = ["plot", "--complex", json.dumps(complex_to_json(hypersurface(parse_polynomial("x + y + 0"))))]
UNREAD = [
    (CIRCUITS, ["--degree", "7"], "--degree"),
    (CIRCUITS, ["--trials", "0"], "--trials"),
    (CIRCUITS, ["--trials", "1001"], "--trials"),
    (CIRCUITS, ["--seed", "9"], "--seed"),
    (CIRCUITS, ["--mode", "laurent"], "--mode"),
    (CIRCUITS, ["--trials", "15", "--degree", "2", "--seed", "0", "--mode", "laurent"],
     "--mode, --seed, --degree, --trials"),
    (COMPLEX, ["--mode", "poly"], "--mode"),
    (COMPLEX, ["--nvars", "5"], "--nvars"),
    (COMPLEX, ["--nvars", "2", "--mode", "laurent"], "--mode, --nvars"),
]


def _parser_options() -> dict[str, set[str]]:
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: {option for action in sub._actions for option in action.option_strings} - HELP
        for name, sub in subparsers.choices.items()
    }


def _readme_options() -> dict[str, set[str]]:
    readme = (REPO / "README.md").read_text()
    section = re.search(r"## Command line\n(.*?)\n## ", readme, re.DOTALL).group(1)
    rows = re.findall(r"^\| `([a-z-]+)` \| (.*) \|$", section, re.MULTILINE)
    return {command: set(re.findall(r"`(--[a-z0-9]+)`", options)) for command, options in rows}


def test_readme_table_is_the_parser_option_set():
    table = _readme_options()
    assert table == _parser_options()
    assert sum(map(len, table.values())) == 65
    assert len(REMOVED) == 20 and not any(option in table[c] for c, option, _ in REMOVED)


@pytest.mark.parametrize("command, option, value", REMOVED, ids=lambda x: str(x))
def test_removed_options_are_argument_errors(capsys, tmp_path, monkeypatch, command, option, value):
    monkeypatch.chdir(tmp_path)  # the plot base line writes line.svg here
    assert run_cli([command, *BASES[command]], capsys)[0] == 0
    code, out, err = run_cli([command, *BASES[command], option, value], capsys)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "parse", "message": f"unrecognized arguments: {option} {value}"}


@pytest.mark.parametrize("command", sorted(c for c, opts in _parser_options().items() if "--nvars" in opts))
def test_negative_nvars_is_an_argument_error(capsys, tmp_path, monkeypatch, command):
    # this was a parse error of the polynomial text: "expression uses 1 variables but nvars=-1"
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli([command, *BASES[command], "--nvars", "-1"], capsys)
    assert (code, out) == (2, "")
    message = "argument --nvars: invalid non-negative int value: '-1'"
    assert json.loads(err) == {"error": "parse", "message": message}


@pytest.mark.parametrize(
    "argv, message",
    [
        # int() read these: Unicode digits, padding and digit-group underscores
        (["tideal-trop", "--gens", "x - y", "--degree=\u0663"], "--degree: invalid int value: '\u0663'"),
        (["eval", "--poly", "x + 0", "--nvars", "\u0661", "--point", "1"],
         "--nvars: invalid non-negative int value: '\u0661'"),
        (["tideal-check", "--point", "0", "--trials", "\uff13"], "--trials: invalid int value: '\uff13'"),
        (["tideal-check", "--point", "0", "--seed", "\u0663"], "--seed: invalid int value: '\u0663'"),
        (["eval", "--poly", "x + 0", "--nvars", " 1", "--point", "1"],
         "--nvars: invalid non-negative int value: ' 1'"),
        (["tideal-check", "--point", "0", "--degree", "1 "], "--degree: invalid int value: '1 '"),
        (["tideal-trop", "--gens", "x - y", "--degree=1_0"], "--degree: invalid int value: '1_0'"),
        # rejected before, with these messages
        (["tideal-trop", "--gens", "x - y", "--degree", "1.0"], "--degree: invalid int value: '1.0'"),
        (["tideal-check", "--point", "0", "--seed", "x"], "--seed: invalid int value: 'x'"),
        (["tideal-check", "--point", "0", "--trials", "1/1"], "--trials: invalid int value: '1/1'"),
        (["tideal-trop", "--gens", "x - y", "--degree", "1", "--nvars", "-2"],
         "--nvars: invalid non-negative int value: '-2'"),
    ],
)
def test_integer_options_are_ascii_digits(capsys, argv, message):
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "parse", "message": f"argument {message}"}


@pytest.mark.parametrize(
    "argv",
    [
        ["tideal-trop", "--gens", "x - y", "--degree=+1"],
        ["eval", "--poly", "x + 0", "--nvars=+1", "--point", "1"],
        ["tideal-check", "--point", "0", "--degree", "1", "--trials", "+3", "--seed", "-7"],
    ],
)
def test_signed_integer_options_are_read(capsys, argv):
    code, _, err = run_cli(argv, capsys)
    assert (code, err) == (0, "")


def test_negative_nvars_in_trace_json_is_a_domain_error(capsys, tmp_path):
    # this was a parse error (exit 2): "expression uses 0 variables but nvars=-1"
    data = json.loads((REPO / "traces" / "factor_swap.json").read_text())
    data["nvars"] = -1
    trace = tmp_path / "trace.json"
    trace.write_text(json.dumps(data))
    code, out, err = run_cli(["trace-verify", "--trace", str(trace)], capsys)
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "domain", "message": "nvars must be non-negative, got -1"}


@pytest.mark.parametrize("base, extra, named", UNREAD, ids=[" ".join([b[1], *x]) for b, x, _ in UNREAD])
def test_options_an_input_does_not_read_are_domain_errors(capsys, base, extra, named):
    # these exited 0 and dropped the options; only --trials 0 failed, on its value
    assert run_cli(base, capsys)[0] == 0
    code, out, err = run_cli([*base, *extra], capsys)
    assert (code, out) == (1, "")
    message = f"{base[0]} {base[1]} does not read {named}"
    assert json.loads(err) == {"error": "domain", "message": message}


SAMPLING_DEFAULTS = ["--mode", "laurent", "--seed", "0", "--degree", "2", "--trials", "15"]


@pytest.mark.parametrize(
    "argv, defaults",
    [
        (["tideal-check", "--point", "0,0"], SAMPLING_DEFAULTS),
        (["tideal-check", "--matrix", "[[0,1,1]]"], SAMPLING_DEFAULTS),
        (["plot", "--poly", "x + y + 0"], ["--mode", "laurent"]),
    ],
    ids=["point", "matrix", "poly"],
)
def test_defaults_apply_where_the_options_are_read(capsys, argv, defaults):
    # the options default to None so that --circuits and --complex can reject them
    first = run_cli(argv, capsys)
    assert first[0] == 0
    assert run_cli([*argv, *defaults], capsys) == first
