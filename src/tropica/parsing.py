"""Text grammar for tropical polynomials, plus rational/matrix parsing.

Grammar::

    poly   := term ("+" term)*
    term   := coeff ("*" monom)? | monom
    coeff  := rational | "-inf"
    monom  := var ("^" int)? ("*" var ("^" int)?)*

Coefficients are rational literals ("3", "-1", "7/2"); "+" is the tropical
sum, "*" the tropical product.  A bare monomial carries the unit coefficient
(rational 0).  "-inf" terms are dropped.  Variables are x, y, z, w or
x1..xn; the two styles cannot be mixed in one expression.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .polynomials import LAURENT, POLY, Polynomial
from .matrices import to_fraction

_LETTER_VARS = {"x": 0, "y": 1, "z": 2, "w": 3}

_TOKEN = re.compile(
    r"\s*(?:(?P<inf>-inf\b)|(?P<number>-?[0-9]+(?:/[0-9]+)?)|(?P<name>[A-Za-z]\w*)|(?P<op>[+*^]))"
)


class ParseError(ValueError):
    """Syntax error with a character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _rational(text: str, pos: int) -> Fraction:
    """Strict rational literal; a malformed one (such as "2/0") is a parse error."""
    try:
        return to_fraction(text)
    except ValueError as exc:
        raise ParseError(str(exc), pos) from None


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos:].strip() == "":
            break
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens, text_len: int):
        self.tokens = tokens
        self.i = 0
        self.text_len = text_len

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, self.text_len)

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect_end(self):
        kind, value, pos = self.peek()
        if kind is not None:
            raise ParseError(f"unexpected token {value!r}", pos)


def _var_index(name: str, pos: int, style: dict) -> int:
    if name in _LETTER_VARS:
        idx, kind = _LETTER_VARS[name], "letters"
    elif re.fullmatch(r"x\d+", name):
        sub = int(name[1:])
        if sub < 1:
            raise ParseError(f"variable {name!r} must be numbered from x1", pos)
        idx, kind = sub - 1, "numbered"
    else:
        raise ParseError(f"unknown variable {name!r}", pos)
    if style.setdefault("kind", kind) != kind:
        raise ParseError("mixed variable naming styles", pos)
    return idx


def _parse_monomial(p: _Parser, style: dict) -> dict[int, int]:
    expos: dict[int, int] = {}
    while True:
        kind, value, pos = p.peek()
        if kind != "name":
            raise ParseError("expected a variable name", pos)
        p.take()
        idx = _var_index(value, pos, style)
        power = 1
        kind2, _, _ = p.peek()
        if kind2 == "op" and p.peek()[1] == "^":
            p.take()
            kind3, v3, pos3 = p.take()
            if kind3 != "number" or "/" in v3:
                raise ParseError("expected an integer exponent", pos3)
            power = int(v3)
        expos[idx] = expos.get(idx, 0) + power
        kind4, v4, _ = p.peek()
        if kind4 == "op" and v4 == "*":
            following = p.tokens[p.i + 1][0] if p.i + 1 < len(p.tokens) else None
            if following == "name":
                p.take()
                continue
        break
    return expos


def parse_polynomial(text: str, mode: str = LAURENT, nvars: int | None = None) -> Polynomial:
    """Parse the grammar above into a Polynomial.

    ``nvars`` fixes the ambient variable count; otherwise it is inferred from
    the variables that appear (letters count up to the furthest letter used).
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty polynomial text", 0)
    p = _Parser(tokens, len(text))
    style: dict = {}
    terms: list[tuple[object, dict[int, int]]] = []
    while True:
        kind, value, pos = p.peek()
        coeff: object
        if kind == "inf":
            p.take()
            coeff = "-inf"
            expos: dict[int, int] = {}
            k2, v2, _ = p.peek()
            if k2 == "op" and v2 == "*":
                p.take()
                expos = _parse_monomial(p, style)
        elif kind == "number":
            p.take()
            coeff = _rational(value, pos)
            expos = {}
            k2, v2, _ = p.peek()
            if k2 == "op" and v2 == "*":
                p.take()
                expos = _parse_monomial(p, style)
        elif kind == "name":
            coeff = Fraction(0)
            expos = _parse_monomial(p, style)
        else:
            raise ParseError("expected a term", pos)
        terms.append((coeff, expos))
        k3, v3, pos3 = p.peek()
        if k3 is None:
            break
        if k3 == "op" and v3 == "+":
            p.take()
            continue
        raise ParseError(f"unexpected token {v3!r}", pos3)
    p.expect_end()

    inferred = 0
    for _, expos in terms:
        for idx in expos:
            inferred = max(inferred, idx + 1)
    n = inferred if nvars is None else int(nvars)
    if n < inferred:
        raise ParseError(f"expression uses {inferred} variables but nvars={n}", 0)
    coeffs: dict[tuple[int, ...], object] = {}
    poly = Polynomial.zero(n, mode)
    for coeff, expos in terms:
        if mode == POLY and any(e < 0 for e in expos.values()):
            raise ParseError("negative exponents are not allowed in poly mode", 0)
        key = tuple(expos.get(i, 0) for i in range(n))
        poly = poly + Polynomial({key: coeff}, n, mode)
    return poly


def _var_name(i: int, n: int) -> str:
    if n <= 4:
        return "xyzw"[i]
    return f"x{i + 1}"


def format_monomial(expo, n: int) -> str:
    parts = []
    for i, e in enumerate(expo):
        if e == 0:
            continue
        name = _var_name(i, n)
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts)


def format_polynomial(f: Polynomial) -> str:
    if f.is_zero():
        return "-inf"
    parts = []
    for expo, c in f.terms():
        monom = format_monomial(expo, f.n)
        if not monom:
            parts.append(str(c))
        elif c == 0:
            parts.append(monom)
        else:
            parts.append(f"{c}*{monom}")
    return " + ".join(parts)


def parse_point(text: str) -> tuple[Fraction, ...]:
    """Comma-separated rationals, e.g. "1,-1/2"."""
    items = [s.strip() for s in text.split(",") if s.strip()]
    if not items:
        raise ParseError("empty point", 0)
    return tuple(_rational(s, text.find(s)) for s in items)


def parse_matrix_json(data) -> list[list[Fraction]]:
    """Matrix as a JSON array of arrays of rationals ("p/q" strings or ints)."""
    if isinstance(data, str):
        data = json.loads(data)
    if not isinstance(data, list) or not data or not all(isinstance(r, list) for r in data):
        raise ValueError("matrix JSON must be a non-empty array of arrays")
    return [[to_fraction(x) for x in row] for row in data]
