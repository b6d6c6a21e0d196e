"""`cli.main` reuses one argument parser per process; no call may see another's state.

Every `tropica ...` line of the README command block runs through `main` in
one process, and each stdout (or written SVG) must be byte-identical to a
fresh `python -m tropica.cli` subprocess.  Then come sequences that would
show state leaking from one call into the next: a repeated option, lines
read with `--file`, and a subcommand that reads its polynomials in poly
mode, or over its matrix's variable count, before one that must read them
in Laurent mode over the count they use.
Last, `TROPICA_SEED` set in the environment changes no output.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from tropica.cli import build_parser

from oracles.cli import SEED_5_ARGV, SEED_5_STDOUT, readme_commands, run_cli

REPO = Path(__file__).resolve().parent.parent


def _with_output(argv, directory: Path) -> list[str]:
    """The argv with its --output file moved into ``directory``."""
    argv = list(argv)
    if "--output" in argv:
        at = argv.index("--output") + 1
        argv[at] = str(directory / Path(argv[at]).name)
    return argv


def _fresh(argv, env_seed=None):
    """(exit code, stdout, stderr) of a new `python -m tropica.cli` process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    if env_seed is not None:
        env["TROPICA_SEED"] = env_seed
    proc = subprocess.run(
        [sys.executable, "-m", "tropica.cli", *argv], cwd=REPO, env=env, capture_output=True, text=True
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture
def repo_cwd(monkeypatch):
    monkeypatch.chdir(REPO)  # the README names traces/ relative to the repository


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_readme_commands_match_fresh_processes(repo_cwd, capsys, tmp_path):
    commands = readme_commands()
    assert len(commands) == 15 and len({argv[0] for argv in commands}) == 14  # every subcommand
    (tmp_path / "fresh").mkdir()
    (tmp_path / "reused").mkdir()
    for argv in commands:
        reused = run_cli(_with_output(argv, tmp_path / "reused"), capsys)
        fresh = _fresh(_with_output(argv, tmp_path / "fresh"))
        assert reused == fresh and reused[0] == 0, argv
    svg = (tmp_path / "reused" / "line.svg").read_text()
    assert svg.startswith("<svg") and svg == (tmp_path / "fresh" / "line.svg").read_text()


# (earlier call, probe): the probe's output must not depend on the earlier call
SEQUENCES = [
    (
        ["eval", "--poly", "x + 1", "--poly", "y", "--point", "1,2"],  # two --poly: a domain error
        ["eval", "--poly", "x + 1", "--point", "3"],
    ),
    (
        ["prevariety", "--poly", "x + 1", "--poly", "y + 2", "--nvars", "2"],
        ["hypersurface", "--poly", "x + 0"],
    ),
    (
        ["affine-prevariety", "--poly", "x + y"],  # reads in poly mode
        ["hypersurface", "--poly", "x^-1 + y + 0"],  # a parse error in poly mode
    ),
    (
        ["prime-member", "--matrix", "[[1,0,0]]", "--poly", "x + y"],  # reads over 2 variables
        ["eval", "--poly", "x + 1", "--point", "3"],  # a domain error with two variables
    ),
    (
        ["eval", "--poly", "x", "--bogus"],  # an argument error
        ["eval", "--poly", "x", "--point", "2"],
    ),
]


@pytest.mark.parametrize("first, probe", SEQUENCES, ids=["poly-twice", "poly-list", "mode", "nvars", "usage"])
def test_no_state_leaks_between_calls(repo_cwd, capsys, first, probe):
    run_cli(first, capsys)
    reused = run_cli(probe, capsys)
    assert reused == _fresh(probe)
    assert reused[0] == 0


def test_file_lines_do_not_leak_into_later_calls(repo_cwd, capsys, tmp_path):
    # --file lines join the --poly list; they must not stay in it for the next call
    (tmp_path / "f.txt").write_text("x + 1\n")
    run_cli(["eval", "--file", str(tmp_path / "f.txt"), "--point", "1"], capsys)
    probe = ["eval", "--poly", "x + 2", "--point", "3"]
    reused = run_cli(probe, capsys)
    assert reused == _fresh(probe) and reused[0] == 0


def test_seed_environment_changes_nothing(repo_cwd, capsys, monkeypatch):
    # TROPICA_SEED once overrode --seed; --seed 5 alone now picks the counterexample
    monkeypatch.setenv("TROPICA_SEED", "0")
    assert run_cli(SEED_5_ARGV, capsys) == (0, SEED_5_STDOUT, "")
    assert _fresh(SEED_5_ARGV, env_seed="0") == (0, SEED_5_STDOUT, "")
