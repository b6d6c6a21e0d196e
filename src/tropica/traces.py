"""Checkable derivation traces for congruence membership.

Membership of a pair in the congruence generated by the bend relations of a
finite polynomial list is not known to be decidable, so the library never
searches: callers supply an explicit derivation and the verifier replays it.
Each step names a rule, its premises and its claimed conclusion; a step is
accepted only when the conclusion is forced by the rule (formal polynomial
equality, after the idempotent normalization built into Polynomial).

Rules:

* ``GEN(g, m)``      -- a bend pair of generator ``g``: (g, g minus term m).
* ``REFL(p)``        -- the diagonal pair (p, p).
* ``SYM(s)``         -- swap of an earlier step's conclusion.
* ``TRANS(s, t)``    -- (a, c) from (a, b) and (b, c); the middles must match.
* ``ADD(s, t)``      -- component-wise sum of two earlier conclusions.
* ``MUL(s, t)``      -- component-wise product of two earlier conclusions.
* ``TWIST(s, beta)`` -- twisted product of an earlier conclusion with an
  arbitrary pair (congruences absorb twisted products).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .parsing import _json_int, format_polynomial, parse_polynomial
from .polynomials import Exponents, LAURENT, Pair, Polynomial

GEN, REFL, SYM, TRANS, ADD, MUL, TWIST = "GEN", "REFL", "SYM", "TRANS", "ADD", "MUL", "TWIST"

_RULES = {GEN, REFL, SYM, TRANS, ADD, MUL, TWIST}


@dataclass(frozen=True)
class DerivationStep:
    rule: str
    args: tuple
    conclusion: Pair


@dataclass(frozen=True)
class DerivationTrace:
    generators: tuple[Polynomial, ...]
    steps: tuple[DerivationStep, ...]
    goal: Pair


@dataclass(frozen=True)
class TraceResult:
    accepted: bool
    failed_step: int | None = None
    reason: str | None = None


def instantiate_bend_generators(gens: list[Polynomial]) -> list[tuple[int, Exponents, Pair]]:
    """All bend pairs of the generators, with provenance (index, deleted term)."""
    out = []
    for g_index, g in enumerate(gens):
        for expo in g.support():
            out.append((g_index, expo, Pair(g, g.delete_term(expo))))
    return out


def _check_step(step: DerivationStep, trace: DerivationTrace, index: int) -> str | None:
    """None when the step is forced by its rule; otherwise the reason."""

    # indices are exact ints: a JSON boolean is an int in Python, not an index
    def premise(arg) -> DerivationStep | str:
        if type(arg) is not int or not 0 <= arg < index:
            return f"premise index {arg!r} must reference an earlier step"
        return trace.steps[arg]

    rule = step.rule
    if rule not in _RULES:
        return f"unknown rule {rule!r}"
    if rule == GEN:
        if len(step.args) != 2:
            return "GEN expects (generator index, deleted monomial)"
        g_index, expo = step.args
        if type(g_index) is not int or not 0 <= g_index < len(trace.generators):
            return f"generator index {g_index!r} out of range"
        g = trace.generators[g_index]
        if tuple(expo) not in g.coeffs:
            return f"monomial {tuple(expo)} is not in the support of generator {g_index}"
        expected = Pair(g, g.delete_term(tuple(expo)))
    elif rule == REFL:
        (poly,) = step.args
        if not isinstance(poly, Polynomial):
            return "REFL expects a polynomial argument"
        expected = Pair(poly, poly)
    elif rule == SYM:
        (arg,) = step.args
        prem = premise(arg)
        if isinstance(prem, str):
            return prem
        expected = prem.conclusion.swap()
    elif rule == TRANS:
        left, right = (premise(a) for a in step.args)
        if isinstance(left, str):
            return left
        if isinstance(right, str):
            return right
        if left.conclusion.right != right.conclusion.left:
            return (
                "TRANS premises do not chain: "
                f"{format_polynomial(left.conclusion.right)!r} != "
                f"{format_polynomial(right.conclusion.left)!r}"
            )
        expected = Pair(left.conclusion.left, right.conclusion.right)
    elif rule in (ADD, MUL):
        left, right = (premise(a) for a in step.args)
        if isinstance(left, str):
            return left
        if isinstance(right, str):
            return right
        if rule == ADD:
            expected = left.conclusion.add(right.conclusion)
        else:
            expected = left.conclusion.mul(right.conclusion)
    else:  # TWIST
        arg, pair = step.args
        prem = premise(arg)
        if isinstance(prem, str):
            return prem
        if not isinstance(pair, Pair):
            return "TWIST expects a pair argument"
        expected = prem.conclusion.twisted(pair)
    if expected != step.conclusion:
        return (
            f"conclusion mismatch: rule {rule} forces "
            f"({format_polynomial(expected.left)!r}, {format_polynomial(expected.right)!r})"
        )
    return None


def verify_trace(trace: DerivationTrace) -> TraceResult:
    """Replay every step; report the first failure with its index."""
    if not trace.steps:
        return TraceResult(False, None, "trace has no steps")
    for index, step in enumerate(trace.steps):
        reason = _check_step(step, trace, index)
        if reason is not None:
            return TraceResult(False, index, reason)
    if trace.steps[-1].conclusion != trace.goal:
        return TraceResult(
            False,
            len(trace.steps) - 1,
            "last conclusion does not match the goal",
        )
    return TraceResult(True)


# -- mechanical construction of the recovery schema --------------------------


def pair_recovery_trace(m1: Polynomial, m2: Polynomial, a: Polynomial, b: Polynomial) -> DerivationTrace:
    """Derive (m1 + m2, m1) from bends of {a*m1 + a*m2 + b*m1, a*m1 + b*m1}.

    ``m1``, ``m2``, ``a``, ``b`` are Laurent terms, with ``a`` and ``b``
    having distinct exponent vectors; the two generators are the standard
    membership witnesses when the ambient prime identifies a with b and
    ranks m1 above m2.  The trace divides out the invertible term ``a``.
    """
    for t in (m1, m2, a, b):
        if not t.is_monomial():
            raise ValueError("the recovery schema expects single terms")
        if t.mode != LAURENT:
            raise ValueError("the recovery schema requires Laurent mode")
    if a.support() == b.support():
        raise ValueError("witness terms must have distinct exponent vectors")
    am1, am2, bm1 = a * m1, a * m2, b * m1
    if len(am1 + am2 + bm1) != 3 or len(am1 + bm1) != 2:
        raise ValueError("recovery schema requires the three products to stay distinct")
    g1 = am1 + am2 + bm1
    g2 = am1 + bm1
    (am2_expo,) = am2.support()
    (bm1_expo,) = bm1.support()
    a_expo = a.support()[0]
    a_coeff = a.coefficient(a_expo)
    a_inv = Polynomial.term(-a_coeff, tuple(-e for e in a_expo), a.n, a.mode)
    steps = (
        DerivationStep(GEN, (0, bm1_expo), Pair(g1, am1 + am2)),
        DerivationStep(GEN, (0, am2_expo), Pair(g1, am1 + bm1)),
        DerivationStep(SYM, (0,), Pair(am1 + am2, g1)),
        DerivationStep(TRANS, (2, 1), Pair(am1 + am2, am1 + bm1)),
        DerivationStep(GEN, (1, bm1_expo), Pair(g2, am1)),
        DerivationStep(TRANS, (3, 4), Pair(am1 + am2, am1)),
        DerivationStep(REFL, (a_inv,), Pair(a_inv, a_inv)),
        DerivationStep(MUL, (5, 6), Pair((am1 + am2) * a_inv, am1 * a_inv)),
    )
    return DerivationTrace((g1, g2), steps, Pair(m1 + m2, m1))


# -- JSON serialization -------------------------------------------------------


def _pair_to_json(pair: Pair) -> list[str]:
    return [format_polynomial(pair.left), format_polynomial(pair.right)]


def trace_to_json(trace: DerivationTrace) -> dict:
    n = trace.generators[0].n if trace.generators else trace.goal.left.n
    mode = trace.generators[0].mode if trace.generators else trace.goal.left.mode
    steps = []
    for step in trace.steps:
        entry: dict = {"rule": step.rule, "conclusion": _pair_to_json(step.conclusion)}
        if step.rule == GEN:
            from .parsing import format_monomial

            entry["generator"] = step.args[0]
            expo = step.args[1]
            entry["delete"] = format_monomial(expo, n) or "1"
        elif step.rule == REFL:
            entry["poly"] = format_polynomial(step.args[0])
        elif step.rule == SYM:
            entry["step"] = step.args[0]
        elif step.rule in (TRANS, ADD, MUL):
            entry["left"], entry["right"] = step.args
        else:
            entry["step"] = step.args[0]
            entry["pair"] = _pair_to_json(step.args[1])
        steps.append(entry)
    return {
        "mode": mode,
        "nvars": n,
        "generators": [format_polynomial(g) for g in trace.generators],
        "steps": steps,
        "goal": _pair_to_json(trace.goal),
    }


def _parse_pair(data, parse) -> Pair:
    if not isinstance(data, list) or len(data) != 2:
        raise ValueError(f"a pair must be an array of two polynomials, got {data!r}")
    left, right = data
    return Pair(parse(left), parse(right))


def trace_from_json(data: dict) -> DerivationTrace:
    """The trace of README JSON, each distinct polynomial text parsed once.

    A trace repeats its texts (a conclusion is usually a later premise), so
    the parsed polynomials are kept in a dict local to this call and shared:
    polynomials are immutable.  An entry that is not a string goes straight
    to ``parse_polynomial``, which rejects it.
    """
    if not isinstance(data, dict):
        raise ValueError("trace JSON must be an object")
    mode = data.get("mode", LAURENT)
    n = _json_int(data["nvars"], "nvars")
    if n < 0:
        raise ValueError(f"nvars must be non-negative, got {n}")
    parsed: dict[str, Polynomial] = {}

    def parse(text) -> Polynomial:
        if not isinstance(text, str):
            return parse_polynomial(text, mode, n)
        if text not in parsed:
            parsed[text] = parse_polynomial(text, mode, n)
        return parsed[text]

    if not isinstance(data["generators"], list):
        raise ValueError("generators must be an array of polynomials")
    gens = tuple(parse(text) for text in data["generators"])
    if not isinstance(data["steps"], list) or not all(isinstance(e, dict) for e in data["steps"]):
        raise ValueError("steps must be an array of objects")
    steps = []
    for entry in data["steps"]:
        rule = entry["rule"]
        conclusion = _parse_pair(entry["conclusion"], parse)
        if rule == GEN:
            mono = parse(entry["delete"])
            if not mono.is_monomial():
                raise ValueError(f"GEN delete field {entry['delete']!r} is not a monomial")
            args = (entry["generator"], mono.support()[0])
        elif rule == REFL:
            args = (parse(entry["poly"]),)
        elif rule == SYM:
            args = (entry["step"],)
        elif rule in (TRANS, ADD, MUL):
            args = (entry["left"], entry["right"])
        elif rule == TWIST:
            args = (entry["step"], _parse_pair(entry["pair"], parse))
        else:
            raise ValueError(f"unknown rule {rule!r}")
        steps.append(DerivationStep(rule, args, conclusion))
    return DerivationTrace(gens, tuple(steps), _parse_pair(data["goal"], parse))


def load_trace(path) -> DerivationTrace:
    return trace_from_json(json.loads(Path(path).read_text()))
