"""Coordinate semiring dimension: worked examples, witness validity, bounds."""

import random
from fractions import Fraction

import pytest

from tropica import krull, primes
from tropica.krull import (
    DimensionReport,
    EmptyVarietyError,
    contains_bends,
    coordinate_dimension,
    witness_prime,
)
from tropica.primes import admissibility_violations, check_admissible
from tropica.sampling import random_admissible, random_polynomial
from tropica.varieties import complex_dim, hypersurface, prevariety

from oracles.parsing import P


def test_contains_bends_examples():
    origin = check_admissible([[1, 0, 0]], 2)
    assert contains_bends(origin, [P("x + y + 0")])
    assert not contains_bends(check_admissible([[1, 1, 2]], 2), [P("x + y + 0")])


def test_full_rank_never_contains_bends():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randint(1, 3)
        matrix = random_admissible(rng, n, n + 1)
        gens = [random_polynomial(rng, n, max_terms=3) for _ in range(2)]
        if all(g.is_zero() for g in gens):
            continue
        assert not contains_bends(matrix, [g for g in gens if not g.is_zero()])


def _assert_witness_valid(report: DimensionReport, gens):
    assert report.coordinate_dim == report.variety_dim + 1
    assert report.witness_checks.admissible
    assert report.witness_checks.rank == report.coordinate_dim
    assert report.witness_checks.contains_bends
    assert not admissibility_violations(report.witness.rows, report.witness.n)
    assert contains_bends(report.witness, gens)


def test_point_variety():
    gens = [P("x + 1", 2), P("y + 2", 2)]
    report = coordinate_dimension(gens)
    assert (report.variety_dim, report.coordinate_dim) == (0, 1)
    assert report.witness.rows == ((Fraction(1), Fraction(1), Fraction(2)),)
    _assert_witness_valid(report, gens)


def test_line_variety():
    gens = [P("x + y + 0")]
    report = coordinate_dimension(gens)
    assert (report.variety_dim, report.coordinate_dim) == (1, 2)
    _assert_witness_valid(report, gens)


def test_plane_variety():
    gens = [P("x + y + z + 0")]
    report = coordinate_dimension(gens)
    assert (report.variety_dim, report.coordinate_dim) == (2, 3)
    _assert_witness_valid(report, gens)


def test_empty_prevariety_raises():
    with pytest.raises(EmptyVarietyError):
        coordinate_dimension([P("x + 0", 1), P("x + 1", 1)])


def test_witness_prime_point_example():
    x = prevariety([P("x + 1", 2), P("y + 2", 2)])
    witness = witness_prime(x, [P("x + 1", 2), P("y + 2", 2)])
    assert witness.rows == ((Fraction(1), Fraction(1), Fraction(2)),)


def test_witness_on_chosen_line_cell():
    gens = [P("x + y + 0")]
    x = prevariety(gens)
    witness = witness_prime(x, gens)
    assert witness.rank == 2
    # both witness rows evaluate terms at points of one cell of the line
    for row in witness.rows:
        assert row[0] == 1
        point = row[1:]
        assert gens[0].vanishes_at(point)


def test_witness_validity_randomized():
    rng = random.Random(7)
    done = 0
    while done < 50:
        n = rng.randint(2, 3)
        f = random_polynomial(rng, n, max_terms=4, max_deg=2)
        if len(f) < 2:
            continue
        x = hypersurface(f)
        if not x.cells:
            continue
        done += 1
        report = coordinate_dimension([f])
        _assert_witness_valid(report, [f])
        assert report.variety_dim == complex_dim(x)


@pytest.mark.parametrize(
    "texts, n", [(["x + y + 0"], 2), (["x + 1", "y + 2"], 2), (["x + y + z + 0"], 3)]
)
def test_coordinate_dimension_checks_its_witness_once(monkeypatch, texts, n):
    # the report read admissibility off a second check_admissible run
    calls = []
    check = primes.check_admissible

    def counted(*args, **kwargs):
        calls.append(args)
        return check(*args, **kwargs)

    monkeypatch.setattr(primes, "check_admissible", counted)
    monkeypatch.setattr(krull, "check_admissible", counted)
    report = coordinate_dimension([P(text, n) for text in texts])
    assert len(calls) == 1
    assert report.witness_checks.admissible
    assert admissibility_violations(report.witness.rows, report.witness.n) == []


def test_higher_rank_falsification_small():
    # randomized admissible matrices of rank above d+1 never contain the bends
    rng = random.Random(11)
    examples = [
        ([P("x + 1", 2), P("y + 2", 2)], 0),
        ([P("x + y + 0")], 1),
        ([P("x + y + z + 0")], 2),
    ]
    for gens, d in examples:
        n = gens[0].n
        for _ in range(500):
            r = rng.randint(d + 2, n + 1)
            matrix = random_admissible(rng, n, r)
            assert not contains_bends(matrix, gens)
