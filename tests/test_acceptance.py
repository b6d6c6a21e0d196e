"""Acceptance suite: one test per shipped guarantee, with time budgets.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Every tolerance is exact (rational arithmetic); the budgets are
wall-clock seconds.
"""

import itertools
import json
import random
import time
from fractions import Fraction
from pathlib import Path

from tropica.krull import contains_bends, coordinate_dimension
from tropica.polyhedra import EQ, LE
from tropica.polynomials import POLY, Pair, Polynomial, twisted_mul
from tropica.primes import (
    bend_ideal_member,
    check_admissible,
    pair_in_prime,
    variety_of_prime,
)
from tropica.sampling import random_admissible, random_nonzero_polynomial, random_point
from tropica.scalars import is_bottom
from tropica.traces import load_trace, verify_trace
from tropica.tropical_linear import (
    MembershipSample,
    check_tropical_axiom,
    monomial_window,
    span_membership,
    truncated_tropicalization,
)

from oracles.parsing import P
from oracles.polyhedra import contains_point, fm_eliminate, make_polyhedron, ref_lift_exists
from oracles.tropical_linear import combine, grid_scalars
from oracles.cli import run_cli
from oracles.sampling import ref_point_members

TRACE_DIR = Path(__file__).resolve().parent.parent / "traces"


class budget:
    """Context manager asserting the wall-clock budget and printing a verdict."""

    def __init__(self, number: int, limit: float, label: str):
        self.number, self.limit, self.label = number, limit, label

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number:2d} {verdict} {elapsed:7.2f}s  {self.label}")
        if exc_type is None:
            assert elapsed < self.limit, (
                f"criterion {self.number} exceeded its {self.limit}s budget ({elapsed:.2f}s)"
            )
        return False


def test_criterion_01_geometric_prime_variety():
    rng = random.Random(101)
    with budget(1, 1.0, "geometric-prime variety read-off"):
        for _ in range(100):
            n = rng.randint(1, 4)
            a = random_point(rng, n, -6, 6, 5)
            matrix = check_admissible([[Fraction(1), *a]], n)
            assert variety_of_prime(matrix) == tuple(a)


def test_criterion_02_prime_varieties_at_most_one_point():
    rng = random.Random(103)
    with budget(2, 10.0, "varieties of random primes: at most one point"):
        for trial in range(500):
            n = rng.randint(1, 3)
            first = "zero" if trial % 2 else "any"
            matrix = random_admissible(rng, n, rng.randint(1, n + 1), first_entry=first)
            point = variety_of_prime(matrix)
            assert point is None or len(point) == n
            if matrix.rows[0][0] == 0:
                assert point is None


DIMENSION_EXAMPLES = [
    ([("x + 1", 2), ("y + 2", 2)], 0),
    ([("x + y + 0", 2)], 1),
    ([("x + y + z + 0", 3)], 2),
]


def test_criterion_03_coordinate_dimension_examples():
    with budget(3, 5.0, "coordinate semiring dimension = variety dim + 1"):
        for texts, d in DIMENSION_EXAMPLES:
            gens = [P(t, n) for t, n in texts]
            report = coordinate_dimension(gens)
            assert report.variety_dim == d
            assert report.coordinate_dim == d + 1
            assert report.witness_checks.admissible
            assert report.witness_checks.rank == d + 1
            assert report.witness_checks.contains_bends


def test_criterion_04_upper_bound_falsification():
    rng = random.Random(107)
    with budget(4, 60.0, "no higher-rank prime contains the generator bends"):
        for texts, d in DIMENSION_EXAMPLES:
            gens = [P(t, n) for t, n in texts]
            n = gens[0].n
            hits = []
            for _ in range(10_000):
                r = rng.randint(d + 2, n + 1)
                matrix = random_admissible(rng, n, r)
                if contains_bends(matrix, gens):
                    hits.append(matrix)
            assert not hits, f"flagged finding: rank>{d + 1} primes containing bends: {hits[:3]}"


def test_criterion_05_minimal_primes_have_zero_bend_ideal():
    rng = random.Random(109)
    with budget(5, 5.0, "full-rank primes contain no non-zero bend-ideal member"):
        matrices = []
        for _ in range(100):
            n = rng.randint(1, 3)
            matrices.append(random_admissible(rng, n, n + 1))
        for matrix in matrices:
            for _ in range(100):
                f = random_nonzero_polynomial(rng, matrix.n, max_terms=4)
                assert not bend_ideal_member(matrix, f)


def test_criterion_06_formal_identities():
    with budget(6, 1.0, "formal product identities and diagonal twisted square"):
        a, b, c = (Polynomial.variable(i, 3) for i in range(3))
        assert (a + b + c) * (a * b + b * c + a * c) == (a + b) * (a + c) * (b + c)
        lhs = P("x + y + 0") * P("x + y + x*y")
        rhs = P("x + y", 2) * P("x + y + x*y + 0")
        assert lhs == rhs
        x, y = Polynomial.variable(0, 2), Polynomial.variable(1, 2)
        square = twisted_mul(Pair(x + y, x), Pair(x + y, y))
        assert square.is_diagonal()


def _corrupted(trace, index):
    from tropica.traces import DerivationStep, DerivationTrace

    step = trace.steps[index]
    bump = Polynomial.variable(0, step.conclusion.left.n, step.conclusion.left.mode)
    steps = list(trace.steps)
    steps[index] = DerivationStep(step.rule, step.args, Pair(step.conclusion.left * bump, step.conclusion.right))
    return DerivationTrace(trace.generators, tuple(steps), trace.goal)


def test_criterion_07_trace_corpus():
    rng = random.Random(113)
    with budget(7, 2.0, "shipped traces accepted; corrupted traces rejected in place"):
        goals = {}
        for path in sorted(TRACE_DIR.glob("*.json")):
            trace = load_trace(path)
            assert verify_trace(trace).accepted, path.name
            goals[path.stem] = trace
        # the documented goals are all present
        assert goals["monomial_bridge"].goal == Pair(P("x", 2), P("x*y", 2))
        y_plus_z = P("y + z", 3)
        assert goals["sum_bend_left"].goal == Pair(y_plus_z, P("y", 3))
        assert goals["sum_bend_right"].goal == Pair(y_plus_z, P("z", 3))
        assert goals["variable_identification"].goal == Pair(P("x", 2), P("y", 2))
        assert goals["unit_identification"].goal == Pair(P("y", 2), P("0", 2))
        factor = P("y + x*y + x^2*y", 3)
        assert goals["factor_swap"].goal == Pair(factor, P("z + x*z + x^2*z", 3))
        # ten corrupted variants, each rejected at the corrupted step
        names = sorted(goals)
        for k in range(10):
            trace = goals[names[k % len(names)]]
            index = rng.randrange(len(trace.steps))
            result = verify_trace(_corrupted(trace, index))
            assert not result.accepted
            assert result.failed_step == index


def test_criterion_08_closed_ideal_gap():
    with budget(8, 1.0, "y+z outside the degree-1 span yet inside the congruence"):
        gens = [P("x + y", 3, POLY), P("x + z", 3, POLY)]
        target = P("y + z", 3, POLY)
        assert span_membership(target, gens) is None
        for name in ("sum_bend_left", "sum_bend_right"):
            assert verify_trace(load_trace(TRACE_DIR / f"{name}.json")).accepted


def test_criterion_09_tropical_ideal_dichotomy():
    rng = random.Random(127)
    with budget(9, 30.0, "elimination axiom: geometric primes pass, degree prime fails"):
        window = monomial_window(2, POLY, 2)
        for _ in range(20):
            point = random_point(rng, 2, -3, 3, 3)
            sample = ref_point_members(rng, point, window, 14)
            npairs = len(sample.samples) * (len(sample.samples) + 1) // 2
            assert npairs >= 100
            result = check_tropical_axiom(sample)
            assert result.passed, result.counterexample
        matrix = check_admissible([[0, 1, 1]], 2)
        f = P("x + y + x^-1", 2)
        g = P("x + y + x^-2", 2)
        result = check_tropical_axiom(MembershipSample((f, g), matrix))
        assert not result.passed
        cf, cg, cu = result.counterexample
        assert cf.coefficient(cu) == cg.coefficient(cu) and not is_bottom(cf.coefficient(cu))


def test_criterion_10_realizable_non_primeness():
    with budget(10, 5.0, "product support in the tropicalized ideal, factors outside"):
        circuits = truncated_tropicalization([{(1, 0): 1, (0, 1): -1}], 2, 3)
        product = P("x + y + 0", 2, POLY) * P("x + y + x*y", 2, POLY)
        assert circuits.member(product.collapse_coefficients())
        assert not circuits.member(P("x + y + 0", 2, POLY).collapse_coefficients())
        assert not circuits.member(P("x + y + x*y", 2, POLY).collapse_coefficients())


def test_criterion_11_oracle_equivalences():
    rng = random.Random(131)
    with budget(11, 60.0, "residuation, projection and membership against oracles"):
        # span membership vs grid brute force (complete at these entry sizes)
        window = monomial_window(5, POLY, 1)
        coords = window.monomials[:5]
        for _ in range(200):
            k = rng.randint(1, 3)
            gens = [
                Polynomial(
                    {c: Fraction(rng.randint(-2, 2)) for c in coords if rng.random() < 0.7},
                    5,
                    POLY,
                )
                for _ in range(k)
            ]
            if rng.random() < 0.5:
                entries = {c: Fraction(rng.randint(-2, 2)) for c in coords if rng.random() < 0.7}
            else:
                entries = combine([rng.choice(grid_scalars()) for _ in range(k)], gens)
            v = Polynomial(entries, 5, POLY)
            fast = span_membership(v, gens)
            slow = any(
                combine(lams, gens) == v.coeffs
                for lams in itertools.product(grid_scalars(), repeat=k)
            )
            assert (fast is not None) == slow

        # projection membership vs exact fiber-lift search
        for _ in range(500):
            n = rng.randint(2, 3)
            rows = []
            for _ in range(rng.randint(2, 5)):
                normal = tuple(Fraction(rng.randint(-3, 3)) for _ in range(n))
                if all(v == 0 for v in normal):
                    continue
                rows.append(
                    (normal, Fraction(rng.randint(-4, 4)), EQ if rng.random() < 0.2 else LE)
                )
            if not rows:
                continue
            p = make_polyhedron(rows, n)
            index = rng.randrange(n)
            proj = fm_eliminate(p, index)
            base = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 2)) for _ in range(n - 1))
            assert contains_point(proj, base) == ref_lift_exists(p, index, base)

        # bend-ideal membership vs pairwise congruence membership of the bends
        for _ in range(500):
            n = rng.randint(1, 3)
            matrix = random_admissible(rng, n, rng.randint(1, n + 1))
            f = random_nonzero_polynomial(rng, n, max_terms=4)
            pairwise = all(pair_in_prime(matrix, q.left, q.right) for q in f.bend_pairs())
            assert bend_ideal_member(matrix, f) == pairwise


def test_criterion_12_circuits_at_the_window_cap():
    """The two 20-monomial inputs (n = 3, d = 3) within 1 s each; the subset scan took 1.9 s and 5.0 s."""
    cases = [
        ("x - y", [{(1, 0, 0): 1, (0, 1, 0): -1}], 15),
        ("x^2 - y*z", [{(2, 0, 0): 1, (0, 1, 1): -1}], 4),
    ]
    for text, gens, count in cases:
        with budget(12, 1.0, f"circuits of {text} on the 20-monomial window"):
            circuits = truncated_tropicalization(gens, 3, 3)
            assert len(circuits.window) == 20
            assert len(circuits.circuits) == count and not circuits.trivial
            assert all(len(c) == 2 for c in circuits.circuits)


def test_criterion_13_axiom_on_many_circuits(capsys):
    """`tideal-check --circuits` on the 82 circuits of x + y - 2 (d = 3) within 1 s; it took 3.2 s."""
    circuits = truncated_tropicalization([{(1, 0): 1, (0, 1): 1, (0, 0): -2}], 2, 3)
    assert len(circuits.circuits) == 82
    data = {
        "nvars": 2,
        "degree": 3,
        "mode": "poly",
        "circuits": [sorted(map(list, c)) for c in circuits.circuits],
    }
    with budget(13, 1.0, "elimination axiom over the 82 circuits of x + y - 2"):
        code, out, err = run_cli(["tideal-check", "--circuits", json.dumps(data)], capsys)
    assert (code, out, err) == (0, '{\n  "passed": true\n}\n', "")


def test_criterion_14_rare_member_window(capsys):
    """`tideal-check --matrix '[[1,"1/3","2/3"]]' --mode poly --degree 3 --trials 1000` within 0.5 s; it took 3.75 s.

    The prime is geometric, so lemma (a) decides it with no draw; before,
    the full sample of 1000 members took up to 200,000 draws.
    """
    argv = ["tideal-check", "--matrix", '[[1,"1/3","2/3"]]', "--mode", "poly", "--degree", "3"]
    with budget(14, 0.5, "geometric tideal-check on a rare-member window, --trials 1000"):
        code, out, err = run_cli([*argv, "--trials", "1000"], capsys)
    assert (code, out, err) == (0, '{\n  "passed": true\n}\n', "")
