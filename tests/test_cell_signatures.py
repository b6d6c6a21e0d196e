"""Cell signatures read off tie pairs, integer key text, one difference table.

`varieties._make_cell` reads the argmax signature of a candidate with no LE
row tight at its found point off the candidate's tie pairs (the
untight-signature lemma of `varieties`), and gives a hypersurface cell the
dimension n - 1 with no rank.  The oracle is `ref_make_cell` of
`oracles.varieties`, on the candidate's rows as a `Fraction` polyhedron: it
finds the interior point, evaluates every term there and ranks the ties.
On seeded hypersurfaces and prevarieties with mostly zero coefficients (so
that many terms tie), in poly and Laurent mode, every candidate must give
the same signature and cell both ways, and the complex must have the JSON
of `ref_prevariety`.  `_text` must equal `str(Fraction)`, which it
replaced, and the table `_differences` builds in one comprehension, and the
tie rows and strict-dominance rows read off it, must be the rows
`ref_difference` writes: the former per-entry `varieties._difference`.
"""

import itertools
import json
import random
from fractions import Fraction
from math import lcm

import pytest

from tropica import varieties
from tropica.polyhedra import EQ, LE, LT, _tight_rows
from tropica.polynomials import LAURENT, POLY
from tropica.varieties import complex_to_json, prevariety

from oracles.polyhedra import make_polyhedron
from oracles.varieties import random_polynomial, ref_difference, ref_make_cell, ref_prevariety


def candidate_cell(candidate, scale, n, gens):
    """`ref_make_cell` of a candidate's rows, each divided by the scale: a Fraction polyhedron."""
    rows, _, _ = candidate
    poly = make_polyhedron(
        [(tuple(Fraction(x, scale) for x in a), Fraction(b, scale), rel) for a, b, rel in rows], n
    )
    return ref_make_cell(poly, gens)


def random_generators(rng):
    n = rng.randint(1, 3)
    mode = rng.choice([POLY, LAURENT])
    gens = [random_polynomial(rng, n, mode) for _ in range(rng.choice([1, 1, 2, 3]))]
    if len(gens) > 1 and rng.random() < 0.3:
        gens[-1] = gens[0]  # equal tie pairs, so the ties of a signature are dependent
    return gens


def made_candidates(monkeypatch, gens):
    """The (candidate, scaled, scale, n) arguments of every `_make_cell` call of ``gens``."""
    calls = []
    make_cell = varieties._make_cell

    def recorded(candidate, scaled, scale, n):
        calls.append((candidate, scaled, scale, n))
        return make_cell(candidate, scaled, scale, n)

    with monkeypatch.context() as m:
        m.setattr(varieties, "_make_cell", recorded)
        prevariety(gens)
    return calls


def test_signatures_read_off_tie_pairs_match_the_fraction_cells(monkeypatch):
    rng = random.Random(24)
    untight = tight = untight_prevariety = dependent = 0
    for _ in range(150):
        gens = random_generators(rng)
        for candidate, scaled, scale, n in made_candidates(monkeypatch, gens):
            rows, found, pairs = candidate
            assert len(pairs) == len(gens)
            expected = candidate_cell(candidate, scale, n, gens)
            assert varieties._make_cell(candidate, scaled, scale, n) == expected
            if _tight_rows(rows, found):
                tight += 1
                continue
            untight += 1
            signature, cell = expected
            assert signature == tuple(
                frozenset((terms[i][0], terms[j][0])) for terms, (i, j) in zip(scaled, pairs)
            )
            assert cell.interior_point == found
            if len(gens) == 1:
                assert cell.dim == n - 1
            else:
                untight_prevariety += 1
                dependent += cell.dim > n - len(gens)
    # both paths ran, and the prevariety shortcut met dependent ties
    assert untight > tight > 0
    assert untight_prevariety > dependent > 0


def test_complexes_of_tied_generators_match_the_fraction_oracle():
    rng = random.Random(2024)
    nonempty = 0
    for _ in range(100):
        gens = random_generators(rng)
        got = json.dumps(complex_to_json(prevariety(gens)))
        assert json.dumps(complex_to_json(ref_prevariety(gens))) == got
        nonempty += got.count('"dim"') > 0
    assert nonempty > 50


# -- integer key text --------------------------------------------------------------------


def test_text_equals_fraction_text():
    rng = random.Random(7)
    cases = [(0, 1), (0, 6), (5, 1), (-5, 1), (-3, 6), (4, 6), (6, 3), (-6, 3), (7, 12)]
    for _ in range(2000):
        scale = rng.choice([1, 2, 3, 4, 6, 12, 35, rng.randint(1, 10**6)])
        factor = rng.choice([1, 2, 3, scale])
        cases.append((factor * rng.randint(-10**6, 10**6), scale))
    for x, scale in cases:
        assert varieties._text(x, scale) == str(Fraction(x, scale))


# -- the difference table ----------------------------------------------------------------


@pytest.mark.parametrize("seed", range(20))
def test_rows_read_off_the_table_are_the_written_rows(seed):
    rng = random.Random(seed)
    f = random_polynomial(rng, rng.randint(1, 3), rng.choice([POLY, LAURENT]))
    terms = varieties._scaled_terms(f, 2)
    table = varieties._differences(terms)
    m = len(terms)
    for i, k in itertools.product(range(m), repeat=2):
        assert table[i][k] == ref_difference(terms, k, i, LE)
    for i, j in itertools.combinations(range(m), 2):
        others = [ref_difference(terms, k, i, LE) for k in range(m) if k not in (i, j)]
        expected = [ref_difference(terms, i, j, EQ), *others]
        assert varieties._tie_rows(table, i, j) == expected
    own = varieties._scaled_terms(f, lcm(*(c.denominator for _, c in f.terms())))
    strict = [[ref_difference(own, k, i, LT) for k in range(m) if k != i] for i in range(m)]
    assert varieties._strict_rows(f) == strict
