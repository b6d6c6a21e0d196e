"""Cells ordered by the head of their key, with the full key read only on ties.

`Cell.head` is the key cut off after its first constraint, and by the head
lemma of `tropica.varieties` it reads the text of the EQ rows only.
`key_order` sorts by head and each run of equal heads by full key; the
oracle is `sorted(cells, key=Cell.key)`, and `ref_maximal_cells` of
`oracles.varieties`, which sorts by full key.  The seeded inputs are fans
(all coefficients 0 half the time), whose cells often share the text of an
EQ row, so the full-key path runs; a spy on `Cell.key` counts it.  A
generic hypersurface, whose heads all differ, reads no full key.
`krull.witness_prime` picks the same cell on a complex read back from JSON
with its cells reversed.
"""

import json
import random

import pytest

from tropica import varieties
from tropica.krull import witness_prime
from tropica.parsing import parse_polynomial
from tropica.polynomials import LAURENT, POLY
from tropica.varieties import Cell, complex_from_json, complex_to_json, hypersurface, key_order, prevariety

from oracles.varieties import fan_polynomial, ref_maximal_cells


@pytest.fixture
def cell_keys(monkeypatch):
    """Counts `Cell.key` calls."""
    count = [0]
    key = Cell.key

    def counted(cell):
        count[0] += 1
        return key(cell)

    monkeypatch.setattr(Cell, "key", counted)
    return count


@pytest.fixture
def made(monkeypatch):
    """Records the (signature, cell) pairs each `_maximal_cells` call is given."""
    calls = []
    maximal = varieties._maximal_cells

    def recorded(pairs):
        calls.append(list(pairs))
        return maximal(calls[-1])

    monkeypatch.setattr(varieties, "_maximal_cells", recorded)
    return calls


def _gens(rng):
    n, mode = rng.randint(2, 3), rng.choice([POLY, LAURENT])
    return [fan_polynomial(rng, n, mode) for _ in range(rng.randint(1, 3))]


def test_equal_text_eq_rows_take_the_full_key(cell_keys):
    # x = 0 is the EQ row of the ties 1 ~ x and y ~ x*y, and y = 0 of 1 ~ y and x ~ x*y
    x = hypersurface(parse_polynomial("0 + x + y + x*y", POLY, 2))
    heads = [cell.head() for cell in x.cells]
    assert len(x.cells) == 4 and len(set(heads)) == 2
    assert cell_keys[0] == 4
    assert list(x.cells) == sorted(x.cells, key=Cell.key)


def test_distinct_heads_read_no_full_key(cell_keys):
    x = hypersurface(parse_polynomial("1 + 2*x + 3*y + 4*z + 5*w", POLY, 4))
    assert len(x.cells) == 10 and len({cell.head() for cell in x.cells}) == 10
    assert cell_keys[0] == 0


def test_key_order_is_the_full_key_sort(cell_keys, made):
    rng = random.Random(3801)
    took_full_keys = 0
    for _ in range(300):
        gens = _gens(rng)
        before = cell_keys[0]
        made.clear()
        x = prevariety(gens)
        took_full_keys += cell_keys[0] > before
        if not made or not made[0]:
            continue  # a monomial generator, or no candidate cell
        (pairs,) = made
        assert x.cells == ref_maximal_cells(pairs), gens
        cells = [cell for _, cell in pairs]
        rng.shuffle(cells)
        expected = sorted(range(len(cells)), key=lambda i: cells[i].key())
        assert key_order(cells) == expected, gens
    assert took_full_keys >= 100, took_full_keys  # 144 of the 300 inputs


def test_head_of_a_cell_with_no_eq_row_reads_every_row():
    # a cell read from JSON may have LE rows only; the head is then its least LE row
    data = {
        "ambient": 2,
        "mode": LAURENT,
        "cells": [
            {
                "normals": [["1", "0"], ["0", "-1"], ["-1", "1"]],
                "rhs": ["1", "1", "1"],
                "relations": ["le", "le", "le"],
                "dim": 2,
                "interior_point": ["0", "0"],
            }
        ],
    }
    (cell,) = complex_from_json(data).cells
    key = cell.key()
    assert cell.head() == (key[0], key[1], key[2][:1]) == ((), -2, (("le", ("-1", "1"), "1"),))
    # a bottom stratum cut out by nothing has no constraint in its head
    bottom = Cell((), 1, 1, ((0,), 1), (0,))
    assert bottom.head() == bottom.key() == ((0,), -1, ())


def test_witness_prime_ignores_the_cell_order_of_the_complex():
    rng = random.Random(3802)
    several = 0
    for _ in range(120):
        n = rng.randint(2, 3)
        gens = [fan_polynomial(rng, n, LAURENT) for _ in range(rng.randint(1, 2))]
        x = prevariety(gens)
        if not x.cells:
            continue
        data = complex_to_json(x)
        data["cells"].reverse()
        reversed_x = complex_from_json(json.loads(json.dumps(data)))
        top = max(cell.dim for cell in x.cells)
        several += sum(cell.dim == top for cell in x.cells) >= 2
        assert witness_prime(reversed_x, gens) == witness_prime(x, gens), gens
    assert several >= 60, several  # 86 of the 120 inputs
