"""Checkable derivation traces for congruence membership.

Membership of a pair in the congruence generated by the bend relations of a
finite polynomial list is not known to be decidable, so the library never
searches: callers supply an explicit derivation and the verifier replays it.
Each step names a rule, its arguments and its claimed conclusion; a step is
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

``_RULES`` describes each rule once: its arguments in order, each as a JSON
field and a kind (premise step, generator index, deleted monomial,
polynomial, pair), and the function that computes the conclusion the rule
forces.  The verifier resolves and checks arguments through it, the JSON
reader and writer loop over its fields, and ``build_trace`` applies
``(rule, *args)`` moves through the same functions, so a trace built in code
states no conclusion by hand.  A step with the wrong number or kind of
arguments, or with a generator, polynomial or pair of another variable
count or mode than the trace (``_shape``), is rejected at its index like
any other failed step.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .matrices import to_int
from .parsing import (
    clip,
    format_polynomial,
    json_field,
    monomial_text,
    parse_monomial,
    parse_polynomial,
)
from .polynomials import Exponents, LAURENT, Pair, Polynomial

GEN, REFL, SYM, TRANS, ADD, MUL, TWIST = "GEN", "REFL", "SYM", "TRANS", "ADD", "MUL", "TWIST"

# argument kinds, named as the rejection reasons name them
_STEP, _GENERATOR, _MONOMIAL, _POLYNOMIAL, _PAIR = (
    "premise step", "generator index", "deleted monomial", "polynomial", "pair"
)


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


class _Rejected(ValueError):
    """A step that its rule does not force; the message is the reason."""


def _gen(generator: tuple[int, Polynomial], expo: Exponents) -> Pair:
    g_index, g = generator
    if expo not in g.coeffs:
        raise _Rejected(f"monomial {expo} is not in the support of generator {g_index}")
    return Pair(g, g.delete_term(expo))


def _trans(left: Pair, right: Pair) -> Pair:
    if left.right != right.left:
        raise _Rejected(
            "TRANS premises do not chain: "
            f"{format_polynomial(left.right)!r} != {format_polynomial(right.left)!r}"
        )
    return Pair(left.left, right.right)


# rule -> ((JSON field, kind) per argument, conclusion from the resolved arguments);
# Pair methods are looked up at each call, so that wrapping them on the class takes effect
_RULES = {
    GEN: ((("generator", _GENERATOR), ("delete", _MONOMIAL)), _gen),
    REFL: ((("poly", _POLYNOMIAL),), lambda poly: Pair(poly, poly)),
    SYM: ((("step", _STEP),), lambda pair: pair.swap()),
    TRANS: ((("left", _STEP), ("right", _STEP)), _trans),
    ADD: ((("left", _STEP), ("right", _STEP)), lambda left, right: left.add(right)),
    MUL: ((("left", _STEP), ("right", _STEP)), lambda left, right: left.mul(right)),
    TWIST: ((("step", _STEP), ("pair", _PAIR)), lambda pair, beta: pair.twisted(beta)),
}


def _rule(rule):
    """The table entry of ``rule``; a name that is not a rule, of any type, is a rejection."""
    entry = _RULES.get(rule) if isinstance(rule, str) else None
    if entry is None:
        raise _Rejected(f"unknown rule {rule!r}")
    return entry


def _shape(generators, steps, index: int) -> tuple[int, str] | None:
    """The trace's (n, mode): its first generator's, else its first step's; None before either."""
    first = generators[0] if generators else steps[0].conclusion.left if index else None
    return None if first is None else (first.n, first.mode)


def _conclusion(rule, args: tuple, generators, steps, index: int) -> Pair:
    """The conclusion ``rule`` forces from ``args`` at step ``index``; raises _Rejected.

    A generator, polynomial or pair argument must have the trace's variable
    count and mode (``_shape``); the rules would otherwise combine
    polynomials of two rings.
    """
    fields, conclude = _rule(rule)
    if len(args) != len(fields):
        raise _Rejected(f"{rule} expects ({', '.join(kind for _, kind in fields)})")
    shape = _shape(generators, steps, index)
    values = []
    for (_, kind), arg in zip(fields, args):
        # indices are exact ints: a JSON boolean is an int in Python, not an index
        if kind == _STEP:
            if type(arg) is not int or not 0 <= arg < index:
                raise _Rejected(f"premise index {arg!r} must reference an earlier step")
            arg = steps[arg].conclusion
        elif kind == _GENERATOR:
            if type(arg) is not int or not 0 <= arg < len(generators):
                raise _Rejected(f"generator index {arg!r} out of range")
            arg = arg, generators[arg]
        elif kind == _MONOMIAL and isinstance(arg, (tuple, list)) and all(type(e) is int for e in arg):
            arg = tuple(arg)
        elif kind == _MONOMIAL or not isinstance(arg, Polynomial if kind == _POLYNOMIAL else Pair):
            raise _Rejected(f"{rule} expects a {kind} argument")
        if kind in (_GENERATOR, _POLYNOMIAL, _PAIR) and shape is not None:
            poly = arg[1] if kind == _GENERATOR else arg if kind == _POLYNOMIAL else arg.left
            if (poly.n, poly.mode) != shape:
                what = f"generator {arg[0]}" if kind == _GENERATOR else kind
                raise _Rejected(
                    f"{rule} {what} has {poly.n} variables in {poly.mode} mode, "
                    f"the trace {shape[0]} in {shape[1]} mode"
                )
        values.append(arg)
    return conclude(*values)


def _check_step(step: DerivationStep, trace: DerivationTrace, index: int) -> str | None:
    """None when the step is forced by its rule; otherwise the reason."""
    try:
        expected = _conclusion(step.rule, step.args, trace.generators, trace.steps, index)
    except _Rejected as exc:
        return str(exc)
    if expected != step.conclusion:
        return (
            f"conclusion mismatch: rule {step.rule} forces "
            f"({format_polynomial(expected.left)!r}, {format_polynomial(expected.right)!r})"
        )
    return None


def build_trace(generators, moves) -> DerivationTrace:
    """The trace of ``moves``, each ``(rule, *args)``, whose goal is its last conclusion.

    Each step's conclusion is the one its rule forces, so the trace verifies
    by construction; a move that the verifier would reject raises ValueError
    naming its step.
    """
    generators = tuple(generators)
    steps: list[DerivationStep] = []
    for index, (rule, *args) in enumerate(moves):
        try:
            conclusion = _conclusion(rule, tuple(args), generators, steps, index)
        except _Rejected as exc:
            raise ValueError(f"step {index}: {exc}") from None
        steps.append(DerivationStep(rule, tuple(args), conclusion))
    if not steps:
        raise ValueError("trace has no steps")
    return DerivationTrace(generators, tuple(steps), steps[-1].conclusion)


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
    moves = (
        (GEN, 0, bm1_expo), (GEN, 0, am2_expo), (SYM, 0), (TRANS, 2, 1),  # (am1 + am2, am1 + bm1)
        (GEN, 1, bm1_expo), (TRANS, 3, 4),  # (am1 + am2, am1)
        (REFL, a_inv), (MUL, 5, 6),  # (m1 + m2, m1)
    )
    return build_trace((g1, g2), moves)


# -- JSON serialization -------------------------------------------------------


def _pair_to_json(pair: Pair) -> list[str]:
    return [format_polynomial(pair.left), format_polynomial(pair.right)]


def _arg_to_json(kind: str, arg, n: int):
    if kind == _MONOMIAL:
        return monomial_text(arg, n)
    if kind == _POLYNOMIAL:
        return format_polynomial(arg)
    if kind == _PAIR:
        return _pair_to_json(arg)
    return arg  # an index


def trace_to_json(trace: DerivationTrace) -> dict:
    n = trace.generators[0].n if trace.generators else trace.goal.left.n
    mode = trace.generators[0].mode if trace.generators else trace.goal.left.mode
    steps = []
    for step in trace.steps:
        entry: dict = {"rule": step.rule, "conclusion": _pair_to_json(step.conclusion)}
        for (field, kind), arg in zip(_rule(step.rule)[0], step.args):
            entry[field] = _arg_to_json(kind, arg, n)
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
    polynomials are immutable.  Monomial fields go through that dict too
    (``parse_monomial``).  An entry that is not a string goes straight to
    ``parse_polynomial``, which rejects it.  A missing key is a ValueError
    that names it and its object (``json_field``).
    """
    if not isinstance(data, dict):
        raise ValueError("trace JSON must be an object")
    mode = data.get("mode", LAURENT)
    n = to_int(json_field(data, "nvars", "trace JSON"), "nvars")
    if n < 0:
        raise ValueError(f"nvars must be non-negative, got {n}")
    parsed: dict[str, Polynomial] = {}

    def parse(text, *_) -> Polynomial:  # *_: the trace's mode and n, from parse_monomial
        if not isinstance(text, str):
            return parse_polynomial(text, mode, n)
        if text not in parsed:
            parsed[text] = parse_polynomial(text, mode, n)
        return parsed[text]

    generators = json_field(data, "generators", "trace JSON")
    if not isinstance(generators, list):
        raise ValueError("generators must be an array of polynomials")
    gens = tuple(parse(text) for text in generators)
    entries = json_field(data, "steps", "trace JSON")
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise ValueError("steps must be an array of objects")
    steps = []
    for index, entry in enumerate(entries):
        where = f"trace JSON: steps[{index}]"
        rule = json_field(entry, "rule", where)
        conclusion = _parse_pair(json_field(entry, "conclusion", where), parse)
        args = []
        for field, kind in _rule(rule)[0]:
            value = json_field(entry, field, where)  # an index stays as it is: the verifier checks it
            if kind == _MONOMIAL:
                value = parse_monomial(value, mode, n, f"{rule} {field} field", parse)
            elif kind == _POLYNOMIAL:
                value = parse(value)
            elif kind == _PAIR:
                value = _parse_pair(value, parse)
            args.append(value)
        steps.append(DerivationStep(rule, tuple(args), conclusion))
    return DerivationTrace(gens, tuple(steps), _parse_pair(json_field(data, "goal", "trace JSON"), parse))


def load_trace(path, where: str = "trace file") -> DerivationTrace:
    """The trace in a JSON file; an unreadable file or nesting too deep to decode is a ValueError.

    The error of an unreadable file names ``where`` (the option that gave the
    path, say) and echoes the path cut to 80 characters.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"{where}: cannot read {clip(str(path))!r}: {exc.strerror}") from None
    try:
        data = json.loads(text)
    except RecursionError:
        raise ValueError("trace JSON is nested too deeply to read") from None
    return trace_from_json(data)
