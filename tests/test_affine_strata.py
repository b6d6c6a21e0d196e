"""`affine_prevariety` in key order with no key computed outside `_maximal_cells`.

A cell's key begins with its stratum, and `prevariety` returns each
stratum's cells in key order, so taking the strata in sorted order (`()`,
`(0,)`, `(0, 1)`, `(1,)`, ...) puts the whole complex in key order.  The
oracle is `ref_affine_prevariety` of `oracles.varieties`, which takes the
strata by size, builds each stratum's cells with the `Fraction` cell layer
and sorts all cells by `Cell.key` at the end.  Spies on `Cell.head`,
`Cell.key` and `varieties.key_order` show that every head and key is
computed inside `key_order`, and that `key_order` runs only in
`_maximal_cells`.
"""

import random
import sys

from tropica import varieties
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


def _caller():
    """The function that called the spy, past comprehension and lambda frames."""
    frame = sys._getframe(2)
    while frame.f_code.co_name.startswith("<"):
        frame = frame.f_back
    return frame.f_code.co_name


def test_cell_keys_are_computed_only_in_maximal_cells(monkeypatch):
    callers = {"head": [], "key": [], "key_order": []}

    def spy(name, function):
        def counted(*args):
            callers[name].append(_caller())
            return function(*args)

        return counted

    monkeypatch.setattr(Cell, "head", spy("head", Cell.head))
    monkeypatch.setattr(Cell, "key", spy("key", Cell.key))
    monkeypatch.setattr(varieties, "key_order", spy("key_order", varieties.key_order))
    rng = random.Random(2905)
    cells = 0
    for _ in range(150):
        cells += len(affine_prevariety(_generators(rng)).cells)
    counts = {name: len(names) for name, names in callers.items()}
    assert cells >= 300 and min(counts.values()) >= 1, (cells, counts)
    assert set(callers["head"]) == set(callers["key"]) == {"key_order"}, callers
    assert set(callers["key_order"]) == {"_maximal_cells"}, set(callers["key_order"])
