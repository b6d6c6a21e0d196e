"""Derivation trace verification: corpus, mutations, soundness."""

import json
import random
from pathlib import Path

import pytest

from tropica.corpus import SHIPPED_TRACES
from tropica.parsing import parse_polynomial
from tropica.polynomials import Pair, Polynomial
from tropica.primes import bend_ideal_member, pair_in_prime
from tropica.sampling import random_admissible, random_fraction
from tropica.traces import (
    ADD,
    GEN,
    MUL,
    REFL,
    SYM,
    TRANS,
    TWIST,
    DerivationStep,
    DerivationTrace,
    TraceResult,
    build_trace,
    instantiate_bend_generators,
    load_trace,
    pair_recovery_trace,
    trace_from_json,
    trace_to_json,
    verify_trace,
)

from oracles.cli import readme_json
from oracles.parsing import P

TRACE_DIR = Path(__file__).resolve().parent.parent / "traces"


# -- bend generator instantiation ------------------------------------------------


def test_instantiate_two_binomials():
    gens = [P("x + y", 3), P("x + z", 3)]
    pairs = instantiate_bend_generators(gens)
    assert len(pairs) == 4
    assert all(pairs[i][0] == i // 2 for i in range(4))


def test_instantiate_unit_constants():
    gens = [P("x + 0", 2), P("x*y + 0", 2)]
    pairs = {(idx, pair) for idx, _, pair in instantiate_bend_generators(gens)}
    assert pairs == {
        (0, Pair(gens[0], P("0", 2))),
        (0, Pair(gens[0], P("x", 2))),
        (1, Pair(gens[1], P("0", 2))),
        (1, Pair(gens[1], P("x*y", 2))),
    }


def test_instantiate_empty():
    assert instantiate_bend_generators([]) == []


# -- the shipped corpus -------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(SHIPPED_TRACES))
def test_corpus_builds_and_verifies(name):
    trace = SHIPPED_TRACES[name]()
    result = verify_trace(trace)
    assert result.accepted, result.reason


@pytest.mark.parametrize("name", sorted(SHIPPED_TRACES))
def test_shipped_files_match_builders(name):
    path = TRACE_DIR / f"{name}.json"
    trace = load_trace(path)
    assert trace == SHIPPED_TRACES[name]()
    assert verify_trace(trace).accepted


def test_corpus_covers_the_expected_goals():
    bend_left = SHIPPED_TRACES["sum_bend_left"]()
    bend_right = SHIPPED_TRACES["sum_bend_right"]()
    y_plus_z = P("y + z", 3)
    goals = {bend_left.goal, bend_right.goal}
    assert goals == {Pair(y_plus_z, P("y", 3)), Pair(y_plus_z, P("z", 3))}
    swap = SHIPPED_TRACES["factor_swap"]()
    assert swap.goal == Pair(P("y + x*y + x^2*y", 3), P("z + x*z + x^2*z", 3))


def test_trace_json_round_trip():
    for build in SHIPPED_TRACES.values():
        trace = build()
        data = json.loads(json.dumps(trace_to_json(trace)))
        assert trace_from_json(data) == trace


# -- negative cases -------------------------------------------------------------------


def test_non_chaining_trans_rejected():
    g = P("x + y")
    steps = (
        DerivationStep(GEN, (0, (1, 0)), Pair(g, P("y", 2))),
        DerivationStep(GEN, (0, (0, 1)), Pair(g, P("x", 2))),
        DerivationStep(TRANS, (0, 1), Pair(g, P("x", 2))),
    )
    result = verify_trace(DerivationTrace((g,), steps, Pair(g, P("x", 2))))
    assert not result.accepted
    assert result.failed_step == 2
    assert "chain" in result.reason


def test_forward_reference_rejected():
    g = P("x + y")
    steps = (
        DerivationStep(SYM, (1,), Pair(P("y", 2), g)),
        DerivationStep(GEN, (0, (1, 0)), Pair(g, P("y", 2))),
    )
    result = verify_trace(DerivationTrace((g,), steps, Pair(P("y", 2), g)))
    assert not result.accepted and result.failed_step == 0


def test_gen_with_foreign_pair_rejected():
    g = P("x + y")
    steps = (DerivationStep(GEN, (0, (1, 0)), Pair(g, P("x", 2))),)
    result = verify_trace(DerivationTrace((g,), steps, Pair(g, P("x", 2))))
    assert not result.accepted and result.failed_step == 0
    assert "mismatch" in result.reason


def test_goal_mismatch_rejected():
    g = P("x + y")
    steps = (DerivationStep(GEN, (0, (1, 0)), Pair(g, P("y", 2))),)
    result = verify_trace(DerivationTrace((g,), steps, Pair(g, P("x", 2))))
    assert not result.accepted
    assert "goal" in result.reason


def test_empty_trace_rejected():
    g = P("x + y")
    assert not verify_trace(DerivationTrace((g,), (), Pair(g, g))).accepted


# -- the rule table ---------------------------------------------------------------------

# the reason for a step of each rule with the wrong number of arguments
ARITY = {
    GEN: "GEN expects (generator index, deleted monomial)",
    REFL: "REFL expects (polynomial)",
    SYM: "SYM expects (premise step)",
    TRANS: "TRANS expects (premise step, premise step)",
    ADD: "ADD expects (premise step, premise step)",
    MUL: "MUL expects (premise step, premise step)",
    TWIST: "TWIST expects (premise step, pair)",
}


def _readme_trace() -> DerivationTrace:
    """The README's trace JSON, which uses each of the seven rules once."""
    return trace_from_json(readme_json()["steps"])


def _replaced(trace: DerivationTrace, index: int, rule, args) -> DerivationTrace:
    """``trace`` with step ``index`` given ``rule`` and ``args``, its conclusion kept."""
    steps = list(trace.steps)
    steps[index] = DerivationStep(rule, args, steps[index].conclusion)
    return DerivationTrace(trace.generators, tuple(steps), trace.goal)


def test_readme_trace_uses_every_rule_once():
    assert sorted(step.rule for step in _readme_trace().steps) == sorted(ARITY)


@pytest.mark.parametrize("count", ["fewer", "more"])
@pytest.mark.parametrize("rule", sorted(ARITY))
def test_wrong_argument_count_rejected_at_its_index(rule, count):
    # these raised ValueError while unpacking the arguments, GEN's excepted
    trace = _readme_trace()
    index = next(i for i, step in enumerate(trace.steps) if step.rule == rule)
    args = trace.steps[index].args
    args = args[:-1] if count == "fewer" else args + (0,)
    result = verify_trace(_replaced(trace, index, rule, args))
    assert result == TraceResult(False, index, ARITY[rule])


@pytest.mark.parametrize("monomial", [5, None, "y", ([1], 0, 0), (0, True, 0), (0, 1.0, 0)], ids=repr)
def test_gen_monomial_that_is_no_integer_sequence_rejected(monomial):
    # 5 and None raised TypeError, and so did a list entry, as an unhashable key;
    # True and 1.0 hash as 1, so (0, True, 0) and (0, 1.0, 0) deleted y
    trace = _readme_trace()
    result = verify_trace(_replaced(trace, 0, GEN, (0, monomial)))
    assert result == TraceResult(False, 0, "GEN expects a deleted monomial argument")


@pytest.mark.parametrize("rule", [["GEN"], None, 0])
def test_rule_that_is_no_rule_name_rejected(rule):
    # a list raised TypeError as an unhashable set member
    trace = _readme_trace()
    result = verify_trace(_replaced(trace, 3, rule, trace.steps[3].args))
    assert result == TraceResult(False, 3, f"unknown rule {rule!r}")
    data = readme_json()["steps"]
    data["steps"][3]["rule"] = rule
    with pytest.raises(ValueError, match="unknown rule"):
        trace_from_json(data)


def test_readme_trace_round_trips_both_ways():
    data = readme_json()["steps"]
    trace = trace_from_json(data)
    assert trace_to_json(trace) == data
    assert trace_from_json(trace_to_json(trace)) == trace


def _moves(trace: DerivationTrace) -> list[tuple]:
    return [(step.rule, *step.args) for step in trace.steps]


@pytest.mark.parametrize("name", ["README", *sorted(SHIPPED_TRACES)])
def test_build_trace_forces_the_stated_conclusions(name):
    # the README conclusions are written by hand; build_trace computes them
    trace = _readme_trace() if name == "README" else load_trace(TRACE_DIR / f"{name}.json")
    assert build_trace(trace.generators, _moves(trace)) == trace


@pytest.mark.parametrize(
    "index, move, reason",
    [
        (0, ("BEND", 0), "unknown rule 'BEND'"),
        (1, (SYM,), "SYM expects (premise step)"),
        (2, (SYM, 2), "premise index 2 must reference an earlier step"),
        (3, (GEN, 2, (1, 0, 0)), "generator index 2 out of range"),
        (4, (GEN, 0, (0, 0, 1)), "monomial (0, 0, 1) is not in the support of generator 0"),
        (5, (TRANS, 0, 0), "TRANS premises do not chain: 'x' != 'x + y'"),
        (6, (TWIST, 0, "x"), "TWIST expects a pair argument"),
    ],
)
def test_build_trace_names_the_step_of_a_bad_move(index, move, reason):
    moves = _moves(_readme_trace())[:index] + [move]
    with pytest.raises(ValueError) as info:
        build_trace(_readme_trace().generators, moves)
    assert str(info.value) == f"step {index}: {reason}"


# an argument of another variable count or mode raised "dimension/mode mismatch"
# in the ADD step that combined it with the trace's polynomials
Z3 = P("z", 3)
POLY_PAIR = Pair(parse_polynomial("x", "poly", 2), parse_polynomial("y", "poly", 2))
OTHER_RING = {
    REFL: ((Z3,), Pair(Z3, Z3), "REFL polynomial has 3 variables in laurent mode"),
    TWIST: ((0, POLY_PAIR), POLY_PAIR, "TWIST pair has 2 variables in poly mode"),
}


@pytest.mark.parametrize("rule", sorted(OTHER_RING))
def test_argument_of_another_ring_rejected_at_its_index(rule):
    args, conclusion, reason = OTHER_RING[rule]
    reason += ", the trace 2 in laurent mode"
    g = P("x + y")
    with pytest.raises(ValueError) as info:
        build_trace([g], [(GEN, 0, (1, 0)), (rule, *args), (ADD, 0, 1)])
    assert str(info.value) == f"step 1: {reason}"
    bend = Pair(g, P("y", 2))
    steps = (
        DerivationStep(GEN, (0, (1, 0)), bend),
        DerivationStep(rule, args, conclusion),
        DerivationStep(ADD, (0, 1), bend),
    )
    assert verify_trace(DerivationTrace((g,), steps, bend)) == TraceResult(False, 1, reason)


def test_generator_of_another_ring_rejected_at_its_index():
    gens = (P("x + y"), P("x + y + z"))
    moves = [(GEN, 0, (1, 0)), (GEN, 1, (1, 0, 0)), (ADD, 0, 1)]
    with pytest.raises(ValueError, match="step 1: GEN generator 1 has 3 variables in laurent mode, the trace 2 in laurent mode"):
        build_trace(gens, moves)


def test_trace_without_generators_takes_the_ring_of_its_first_step():
    x, z = P("x", 2), P("z", 3)
    with pytest.raises(ValueError, match="step 1: REFL polynomial has 3 variables"):
        build_trace([], [(REFL, x), (REFL, z), (ADD, 0, 1)])
    assert verify_trace(build_trace([], [(REFL, z), (REFL, z), (ADD, 0, 1)])).accepted


def test_build_trace_needs_a_move():
    with pytest.raises(ValueError, match="trace has no steps"):
        build_trace([P("x + y")], [])


# -- systematic mutations ---------------------------------------------------------------


def corrupt(trace: DerivationTrace, index: int) -> DerivationTrace:
    """Tamper with the conclusion of one step (multiply one side by x)."""
    step = trace.steps[index]
    n = step.conclusion.left.n
    bump = Polynomial.variable(0, n, step.conclusion.left.mode)
    bad = Pair(step.conclusion.left * bump, step.conclusion.right)
    steps = list(trace.steps)
    steps[index] = DerivationStep(step.rule, step.args, bad)
    return DerivationTrace(trace.generators, tuple(steps), trace.goal)


def test_mutated_traces_fail_at_the_corrupted_step():
    rng = random.Random(79)
    names = sorted(SHIPPED_TRACES)
    done = 0
    while done < 10:
        name = names[done % len(names)]
        trace = SHIPPED_TRACES[name]()
        index = rng.randrange(len(trace.steps))
        result = verify_trace(corrupt(trace, index))
        assert not result.accepted
        assert result.failed_step == index
        done += 1


# -- twist rule --------------------------------------------------------------------------


def test_twist_step_accepted():
    g = P("x + y")
    alpha = Pair(g, P("x", 2))
    beta = Pair(P("x + 0", 2), P("y^2", 2))
    steps = (
        DerivationStep(GEN, (0, (0, 1)), alpha),
        DerivationStep(TWIST, (0, beta), alpha.twisted(beta)),
    )
    trace = DerivationTrace((g,), steps, alpha.twisted(beta))
    assert verify_trace(trace).accepted


# -- soundness against primes --------------------------------------------------------------


def _trace_sound_for_prime(trace, matrix) -> bool:
    gens_ok = all(
        pair_in_prime(matrix, pair.left, pair.right)
        for _, _, pair in instantiate_bend_generators(list(trace.generators))
    )
    if not gens_ok:
        return True  # vacuous
    return pair_in_prime(matrix, trace.goal.left, trace.goal.right)


def test_accepted_traces_sound_against_random_primes():
    rng = random.Random(83)
    checked = 0
    for name, build in sorted(SHIPPED_TRACES.items()):
        trace = build()
        n = trace.generators[0].n
        for _ in range(200):
            matrix = random_admissible(rng, n, rng.randint(1, n + 1))
            if all(
                pair_in_prime(matrix, p.left, p.right)
                for _, _, p in instantiate_bend_generators(list(trace.generators))
            ):
                checked += 1
            assert _trace_sound_for_prime(trace, matrix)
    assert checked > 0, "soundness property never exercised non-vacuously"


def test_soundness_with_constructed_primes():
    # the variable-chain generators vanish together only at the origin
    trace = SHIPPED_TRACES["sum_bend_right"]()
    from tropica.primes import geometric_prime_of_point

    matrix = geometric_prime_of_point((0, 0, 0))
    assert all(
        pair_in_prime(matrix, p.left, p.right)
        for _, _, p in instantiate_bend_generators(list(trace.generators))
    )
    assert pair_in_prime(matrix, trace.goal.left, trace.goal.right)


# -- the mechanical recovery schema -----------------------------------------------------------


def _random_term(rng, n):
    expo = tuple(rng.randint(-2, 2) for _ in range(n))
    return Polynomial.term(random_fraction(rng), expo, n)


def test_recovery_schema_randomized():
    rng = random.Random(89)
    built = 0
    while built < 50:
        n = rng.randint(1, 3)
        nrows = rng.randint(1, n)  # non-minimal: rank <= n
        matrix = random_admissible(rng, n, nrows)
        m1, m2, a, b = (_random_term(rng, n) for _ in range(4))
        # need distinct exponents for the witness pair and a genuine order pair
        if a.support() == b.support():
            continue
        if not pair_in_prime(matrix, a, b):
            continue
        if not pair_in_prime(matrix, m1 + m2, m1):
            continue
        try:
            trace = pair_recovery_trace(m1, m2, a, b)
        except ValueError:
            continue  # merged products; resample
        built += 1
        result = verify_trace(trace)
        assert result.accepted, result.reason
        assert trace.goal == Pair(m1 + m2, m1)
        # both membership witnesses really lie in the bend ideal of the prime
        for gen in trace.generators:
            assert bend_ideal_member(matrix, gen)
