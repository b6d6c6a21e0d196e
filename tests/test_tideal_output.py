"""Byte-for-byte stdout of `tideal-check` and `tideal-trop` on a fixed corpus.

Geometric primes (a point, or the matrix [[1,1,-1]] of the point (1,-1))
pass the monomial elimination axiom; the degree prime [[0,1,1]] fails it,
and the first counterexample found is pinned for every mode, degree and seed.
Circuit sets are pinned too, one that passes and six that fail.
"""

import json
from pathlib import Path

import pytest

from oracles.cli import run_cli


GRID = [(mode, degree, seed) for mode in ("poly", "laurent") for degree in (1, 2) for seed in range(4)]


def _options(mode, degree, seed):
    return ["--mode", mode, "--degree", str(degree), "--trials", "15", "--seed", str(seed)]


# (mode, degree, seed) -> (f, g, eliminated monomial) for --matrix [[0,1,1]]
DEGREE_PRIME = {
    ("poly", 1, 0): ("2*x + y + 1", "2*x + -2*y + -2", "x"),
    ("poly", 1, 1): ("1*x + 1*y + -2", "-1*x + 1*y + 1", "y"),
    ("poly", 1, 2): ("-1*x + y + 0", "1*x + y + 1", "y"),
    ("poly", 1, 3): ("1*x + 2*y + 2", "x + 2*y + 2", "y"),
    ("poly", 2, 0): ("2*x^2 + y^2 + 1", "2*x^2 + y^2 + 1*x", "y^2"),
    ("poly", 2, 1): ("1*x*y + -2*y^2 + 2", "1*x*y + 2*y^2 + 2*x", "x*y"),
    ("poly", 2, 2): ("-1*x^2 + x*y + 0", "-1*x^2 + 2*x*y + 0", "x^2"),
    ("poly", 2, 3): ("2*x^2 + 2*y^2 + 1*x", "2*x^2 + -2*y^2 + 2", "x^2"),
    ("laurent", 1, 0): ("2*x + y + 2*x^-1", "2*x + y + 2*x^-1*y", "y"),
    ("laurent", 1, 1): ("2*x*y^-1 + 2 + 2*x^-1*y^-1", "2*x*y^-1 + 2 + 2*y^-1", "1"),
    ("laurent", 1, 2): ("x + -2*y + 1*y^-1", "x + -2*y + 1*x^-1*y", "y"),
    ("laurent", 1, 3): ("-1*x + -1*y + -1*x*y^-1", "-1*x + -1*y + -1*x^-1*y^-1", "y"),
    ("laurent", 2, 0): ("-2*x^2*y + 1*x*y^2 + 2", "-2*x^2*y + 1*x*y^2 + 2*x^-1", "x*y^2"),
    ("laurent", 2, 1): ("-2*x^2 + x*y + -1*x*y^-1", "-2*x^2 + x*y + -1*x^-2*y^-1", "x*y"),
    ("laurent", 2, 2): ("1*y + x^-1*y^2 + 2*y^-1", "1*y + x^-1*y^2 + 2*x^-1*y", "x^-1*y^2"),
    ("laurent", 2, 3): ("x^2*y^-1 + 2*x + -1*x^-1", "2*x^2*y^-1 + 2*x + 1*x^-1*y", "x"),
}

PASSED = {"passed": True}


def _failed(f, g, monomial):
    return {"counterexample": {"f": f, "g": g, "monomial": monomial}, "passed": False}


# circuit sets that fail the axiom, with the first counterexample: subsets
# of the 82 circuits of x + y - 2 and of the 10 circuits of x - y (d = 3),
# and two Laurent-mode sets
FAILING_CIRCUITS = [
    (
        '{"nvars":2,"degree":3,"mode":"poly","circuits":[[[3,0],[2,1],[1,2],[0,1],[0,0]],'
        '[[3,0],[0,3],[1,1],[0,0]],[[3,0],[0,3],[2,0],[0,2],[0,1]]]}',
        ("x^3 + x^2*y + x*y^2 + y + 0", "x^3 + y^3 + x*y + 0", "1"),
    ),
    (
        '{"nvars":2,"degree":3,"mode":"poly","circuits":[[[1,2],[0,3],[1,1],[1,0],[0,0]],'
        '[[3,0],[2,1],[1,1],[0,2],[0,0]],[[3,0],[1,2],[2,0],[0,2],[0,0]],'
        '[[3,0],[1,2],[2,0],[0,2],[0,1]],[[3,0],[0,3],[2,0],[1,1],[0,1]]]}',
        ("x*y^2 + y^3 + x*y + x + 0", "x^3 + x^2*y + x*y + y^2 + 0", "1"),
    ),
    (
        '{"nvars":2,"degree":3,"mode":"poly","circuits":[[[1,1],[0,2]],[[1,2],[0,3]],[[2,1],[0,3]]]}',
        ("x*y^2 + y^3", "x^2*y + y^3", "y^3"),
    ),
    (
        '{"nvars":2,"degree":3,"mode":"poly","circuits":[[[1,1],[0,2]],[[2,0],[0,2]],[[2,0],[1,1]],'
        '[[3,0],[0,3]],[[2,1],[1,2]],[[3,0],[2,1]]]}',
        ("x^3 + y^3", "x^3 + x^2*y", "x^3"),
    ),
    (
        '{"nvars":2,"degree":1,"mode":"laurent","circuits":[[[1,0],[0,1]],[[0,1],[-1,0]],[[1,0],[0,-1]]]}',
        ("x + y", "y + x^-1", "y"),
    ),
    ('{"nvars":1,"degree":1,"mode":"laurent","circuits":[[[-1],[0]],[[0],[1]]]}', ("0 + x^-1", "x + 0", "1")),
]

CORPUS = (
    [(["tideal-check", "--point", "1/2,-1", *_options(*key)], PASSED) for key in GRID]
    + [(["tideal-check", "--matrix", "[[1,1,-1]]", *_options(*key)], PASSED) for key in GRID]
    + [
        (["tideal-check", "--matrix", "[[0,1,1]]", *_options(*key)], _failed(*DEGREE_PRIME[key]))
        for key in GRID
    ]
    + [
        (["tideal-check", "--matrix", "[[0,1,1]]", "--degree", "2"], _failed(*DEGREE_PRIME["laurent", 2, 0])),
        (
            ["tideal-check", "--circuits", '{"nvars": 2, "degree": 1, "mode": "poly", "circuits": [[[1, 0], [0, 1]]]}'],
            PASSED,
        ),
    ]
    + [(["tideal-check", "--circuits", circuits], _failed(*pin)) for circuits, pin in FAILING_CIRCUITS]
    + [
        (
            ["tideal-trop", "--gens", "x - y", "--degree", "3"],
            {
                "circuits": [
                    ["x", "y"], ["x*y", "y^2"], ["x^2", "y^2"], ["x*y", "x^2"], ["x*y^2", "y^3"],
                    ["x^2*y", "y^3"], ["x^3", "y^3"], ["x*y^2", "x^2*y"], ["x*y^2", "x^3"],
                    ["x^2*y", "x^3"],
                ],
                "degree": 3,
                "mode": "poly",
                "nvars": 2,
                "trivial": False,
            },
        ),
        (
            ["tideal-trop", "--gens", "x^2 - y*z", "--nvars", "3", "--degree", "2"],
            {"circuits": [["x^2", "y*z"]], "degree": 2, "mode": "poly", "nvars": 3, "trivial": False},
        ),
        # a constant with no --nvars: no variables, and the window is {1}
        (
            ["tideal-trop", "--gens", "1", "--degree", "2"],
            {"circuits": [["1"]], "degree": 2, "mode": "poly", "nvars": 0, "trivial": True},
        ),
        (
            ["tideal-trop", "--gens", "2", "--degree", "0"],
            {"circuits": [["1"]], "degree": 0, "mode": "poly", "nvars": 0, "trivial": True},
        ),
    ]
)


@pytest.mark.parametrize("argv, expected", CORPUS, ids=[" ".join(argv) for argv, _ in CORPUS])
def test_tideal_stdout_pinned(capsys, argv, expected):
    code, out, err = run_cli(argv, capsys)
    assert (code, err) == (0, "")
    assert out == json.dumps(expected, indent=2, sort_keys=True) + "\n"


PINS = Path(__file__).resolve().parent / "pins"

# 20-monomial windows (the cap): the pinned text was written once by the
# subset scan that enumerated circuits before the hyperplane walk, and is
# compared byte for byte.
CAP_PINS = [
    (["tideal-trop", "--gens", "x - y", "--nvars", "3", "--degree", "3"], "tideal_trop_x-y_n3_d3.json", 15),
    (["tideal-trop", "--gens", "x^2 - y*z", "--nvars", "3", "--degree", "3"], "tideal_trop_x2-yz_n3_d3.json", 4),
]


@pytest.mark.parametrize("argv, pin, count", CAP_PINS, ids=[" ".join(argv) for argv, _, _ in CAP_PINS])
def test_tideal_trop_at_the_window_cap_pinned(capsys, argv, pin, count):
    """Stdout of the two cap inputs equals the subset scan's output, kept in tests/pins."""
    code, out, err = run_cli(argv, capsys)
    assert (code, err) == (0, "")
    expected = (PINS / pin).read_text()
    assert out == expected
    assert len(json.loads(expected)["circuits"]) == count


# The 82 circuits of x + y - 2 at degree 3 (a 10-monomial window, 252
# subsets for the hyperplane walk), written before the walk indexed its
# flats by column, before the circuit texts were written once per monomial
# and before stdout had its own JSON writer: all three act on this output.
WALK_PIN = "tideal_trop_x+y-2_d3.json"


def test_tideal_trop_of_x_plus_y_minus_2_pinned(capsys):
    code, out, err = run_cli(["tideal-trop", "--gens", "x + y - 2", "--degree", "3"], capsys)
    assert (code, err) == (0, "")
    assert out == (PINS / WALK_PIN).read_text()
    assert len(json.loads(out)["circuits"]) == 82


# The README's two tideal-check examples; CI diffs the installed console
# script's stdout against the same files.
README_PINS = [
    (["tideal-check", "--point", "0,0", "--degree", "2", "--trials", "15", "--seed", "0"],
     "tideal_check_point_0_0_d2.json"),
    (["tideal-check", "--matrix", "[[0,1,1]]", "--degree", "2"], "tideal_check_matrix_0_1_1_d2.json"),
]


@pytest.mark.parametrize("argv, pin", README_PINS, ids=[pin for _, pin in README_PINS])
def test_readme_tideal_check_examples_pinned(capsys, argv, pin):
    code, out, err = run_cli(argv, capsys)
    assert (code, err) == (0, "")
    assert out == (PINS / pin).read_text()
