"""`affine_prevariety` in key order with no key computed outside `_maximal_cells`.

A cell's key begins with its stratum, and `prevariety` returns each
stratum's cells in key order, so taking the strata in sorted order (`()`,
`(0,)`, `(0, 1)`, `(1,)`, ...) puts the whole complex in key order.  The
oracle is `ref_affine_prevariety` of `oracles.varieties`, which takes the
strata by size, builds each stratum's cells with the `Fraction` cell layer
and sorts all cells by `Cell.key` at the end.  A spy on `Cell.key` shows
that every key is computed inside `_maximal_cells`.
"""

import random
import sys

from tropica.polynomials import POLY
from tropica.varieties import Cell, affine_prevariety, complex_to_json

from oracles.varieties import collinear_or_random_polynomial, ref_affine_prevariety


def _generators(rng):
    n = rng.randint(1, 4)
    return [collinear_or_random_polynomial(rng, n, POLY) for _ in range(rng.randint(1, 2))]


def test_affine_prevariety_matches_the_sorted_oracle():
    rng = random.Random(2904)
    seen = {"strata": 0, "several strata": 0, "n = 4": 0}
    for _ in range(600):
        gens = _generators(rng)
        x = affine_prevariety(gens)
        assert complex_to_json(x) == complex_to_json(ref_affine_prevariety(gens)), gens
        strata = {cell.stratum for cell in x.cells}
        seen["strata"] += bool(strata - {()})
        seen["several strata"] += len(strata) >= 3
        seen["n = 4"] += gens[0].n == 4 and len(strata) >= 2
    assert min(seen.values()) >= 30, seen


def test_cell_keys_are_computed_only_in_maximal_cells(monkeypatch):
    callers = []
    key = Cell.key

    def spy(cell):
        callers.append(sys._getframe(1).f_code.co_name)
        return key(cell)

    monkeypatch.setattr(Cell, "key", spy)
    rng = random.Random(2905)
    cells = 0
    for _ in range(150):
        cells += len(affine_prevariety(_generators(rng)).cells)
    assert cells >= 300 and callers, (cells, len(callers))
    assert set(callers) == {"_maximal_cells"}, set(callers)
