"""CLI fixtures the test modules share, and the former `tideal-check` handler as an oracle.

`run_cli` runs `cli.main` in process and returns (exit code, stdout,
stderr).  `BASES` holds one argv per subcommand that exits 0,
`MATRIX_READERS` the five subcommands that read `--matrix`, each with the
rest of a line that runs on a 1-variable prime, and `SEED_5_ARGV` a
`tideal-check` whose counterexample depends on the seed, with its stdout
`SEED_5_STDOUT`.  `readme_commands` reads the argv of each `tropica ...`
line of the README's command block, and `readme_json` its JSON examples.

`ref_cmd_tideal_check` is the former handler of `tideal-check`: it draws
the full sample of `oracles.sampling.ref_point_members` (the geometric
draw loop) or `prime_members` and runs
`check_tropical_axiom` on it, for every prime.  `ref_run_cli` runs it
through `cli.main`'s error handling, so that its stdout, stderr and exit
code compare byte for byte with the handler that decides geometric primes
by lemma (a).
"""

import json
import random
import re
import shlex
from pathlib import Path

from tropica import cli
from tropica.cli import main
from tropica.parsing import format_polynomial, monomial_text, parse_point
from tropica.polynomials import LAURENT
from tropica.primes import matrix_from_json
from tropica.sampling import prime_members
from tropica.tropical_linear import check_tropical_axiom, circuits_from_json, monomial_window

from oracles.sampling import ref_point_members

REPO = Path(__file__).resolve().parents[2]
TRACE = str(REPO / "traces" / "factor_swap.json")


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def readme_commands() -> list[list[str]]:
    """The argv of each `tropica ...` line of the README's command block."""
    readme = (REPO / "README.md").read_text()
    block = re.search(r"## Command line.*?```sh\n(.*?)```", readme, re.DOTALL).group(1)
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("tropica ")]


def readme_json():
    """The JSON blocks of the README, by the key that marks each format."""
    readme = (REPO / "README.md").read_text()
    blocks = [json.loads(b) for b in re.findall(r"```json\n(.*?)\n```", readme, re.DOTALL)]
    return {key: next(b for b in blocks if key in b) for key in ("steps", "circuits", "cells")}


BASES = {
    "eval": ["--poly", "x + y + 0", "--point", "1,2", "--nvars", "2"],
    "bend": ["--poly", "x + 1/2*y", "--mode", "poly"],
    "hypersurface": ["--poly", "x + y + 0", "--mode", "poly"],
    "prevariety": ["--poly", "x + 1", "--poly", "y + 2", "--nvars", "2"],
    "affine-prevariety": ["--poly", "x + y", "--format", "text"],
    "dim": ["--poly", "x + y + 0", "--nvars", "2"],
    "prime-check": ["--matrix", "[[1,0],[2,0]]"],
    "prime-compare": ["--matrix", "[[1,2]]", "--term1", "3*x", "--term2", "0*x^2"],
    "prime-variety": ["--matrix", "[[1,1,2]]", "--format", "text"],
    "prime-member": ["--matrix", "[[1,0,0]]", "--poly", "x + y"],
    "trace-verify": ["--trace", TRACE],
    "tideal-check": ["--point", "0,0", "--degree", "1", "--trials", "4", "--seed", "0"],
    "tideal-trop": ["--gens", "x - 2/3*y", "--nvars", "2", "--degree", "2"],
    "plot": ["--poly", "x + y + 0", "--bbox=-5,-5,5,5", "--output", "line.svg"],
}

# the commands that read --matrix, each with the rest of a line that runs on a 1-variable prime
MATRIX_READERS = [
    ["prime-check"],
    ["prime-variety"],
    ["prime-compare", "--term1", "x", "--term2", "1"],
    ["prime-member", "--poly", "x + 1"],
    ["tideal-check", "--degree", "1"],
]

# the degree prime fails the axiom, and the counterexample depends on the seed
SEED_5_ARGV = ["tideal-check", "--matrix", "[[0,1,1]]", "--degree", "2", "--trials", "8", "--seed", "5"]
SEED_5_STDOUT = json.dumps(
    {
        "counterexample": {
            "f": "2*x^2*y^-1 + x^-1*y^2 + x^-2*y^-2",
            "g": "2*x^2*y^-1 + x^-1*y^2 + x^2*y^-2",
            "monomial": "x^-1*y^2",
        },
        "passed": False,
    },
    indent=2,
    sort_keys=True,
) + "\n"


def ref_cmd_tideal_check(args):
    """The former handler: the full sample and its check, for every prime."""
    given = [f"--{k}" for k in ("circuits", "point", "matrix") if getattr(args, k) is not None]
    if given == ["--circuits"]:
        cli._unread(args, "--circuits", ("mode", "seed", "degree", "trials"))
    mode, seed = args.mode or LAURENT, args.seed or 0
    degree = 2 if args.degree is None else args.degree
    trials = 15 if args.trials is None else args.trials
    if trials < 1:
        raise ValueError(f"--trials must be at least 1, got {trials}")
    if trials > cli.MAX_TRIALS:
        raise ValueError(f"--trials must be at most {cli.MAX_TRIALS}, got {trials}")
    if len(given) > 1:
        got = " and ".join(given)
        raise ValueError(f"tideal-check takes one of --circuits, --point or --matrix, got {got}")
    if args.circuits is not None:
        description = circuits_from_json(cli._load_json_arg(args.circuits, "--circuits"))
    elif args.point is not None:
        point = parse_point(args.point)
        window = monomial_window(len(point), mode, degree)
        description = ref_point_members(random.Random(seed), point, window, trials)
    elif args.matrix is not None:
        matrix = matrix_from_json(cli._load_json_arg(args.matrix, "--matrix"))
        window = monomial_window(matrix.n, mode, degree)
        description = prime_members(random.Random(seed), matrix, window, trials)
    else:
        raise ValueError("one of --circuits, --point or --matrix is required")
    result = check_tropical_axiom(description)
    payload = {"passed": result.passed}
    if result.counterexample:
        f, g, u = result.counterexample
        payload["counterexample"] = {
            "f": format_polynomial(f),
            "g": format_polynomial(g),
            "monomial": monomial_text(u, f.n),
        }
    cli._emit(payload, args)


def _ref_parse_args(argv, parse_args=cli.parse_args):
    """The CLI's namespace, with the former handler in place of the tideal-check one."""
    args = parse_args(argv)
    if args.func is cli._cmd_tideal_check:
        args.func = ref_cmd_tideal_check
    return args


def ref_run_cli(argv, capsys, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(cli, "parse_args", _ref_parse_args)
        return run_cli(argv, capsys)
