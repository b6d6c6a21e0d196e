"""Oracles of `tropica.parsing`, and the polynomial shorthand the tests write inputs in.

`ref_read_terms` is the former term reader: a tokenizer that matches one
token at a time and a recursive-descent reader over its tokens, with
numbered variables in ASCII digits only.
`ref_parse_polynomial` is the former term-by-term fold of
`parse_polynomial` (one polynomial per term read by `ref_read_terms`,
summed one at a time), and `ref_cli_polynomials` the former
two-pass reading of `--poly` texts without `--nvars`.  `ref_parse_classical`
is the former classical reader: it splits the text on +/- and reads each
piece with the tropical grammar.  `outcome` turns a call into its result or
the type and message of the error it raised, so that an oracle and the
library can be compared on bad input too.
"""

import re
from fractions import Fraction

from tropica.matrices import to_fraction, to_int
from tropica.parsing import ParseError, parse_polynomial
from tropica.polynomials import LAURENT, POLY, Polynomial
from tropica.scalars import BOTTOM


def P(text, n=None, mode=LAURENT):
    return parse_polynomial(text, mode, n)


def outcome(call, *args):
    """The result of a call, or the type and message of the error it raised."""
    try:
        return "ok", call(*args)
    except (ValueError, TypeError) as exc:
        return type(exc).__name__, str(exc)


_LETTER_VARS = {"x": 0, "y": 1, "z": 2, "w": 3}
_TOKEN = re.compile(
    r"\s*(?:(?P<inf>-inf\b)|(?P<number>-?[0-9]+(?:/[0-9]+)?)|(?P<name>[A-Za-z]\w*)|(?P<op>[+*^]))"
)
_CLASSICAL_TOKEN = re.compile(
    r"\s*(?:(?P<number>[0-9]+(?:/[0-9]+)?)|(?P<name>[A-Za-z]\w*)|(?P<op>[-+*^]))"
)


def _rational(text, pos):
    try:
        return to_fraction(text)
    except ValueError as exc:
        raise ParseError(str(exc), pos) from None


def _tokenize(text, pattern):
    if not isinstance(text, str):
        raise ParseError(f"expected polynomial text, got {type(text).__name__}", 0)
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos:].strip() == "":
            break
        m = pattern.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    return tokens


class _Reader:
    def __init__(self, tokens, text_len):
        self.tokens = tokens
        self.i = 0
        self.text_len = text_len

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, self.text_len)

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok


def _var_index(name, pos, style):
    if name in _LETTER_VARS:
        idx, kind = _LETTER_VARS[name], "letters"
    elif re.fullmatch(r"x[0-9]+", name):  # ASCII subscripts: \d would read "x١" as x1
        sub = int(name[1:])
        if sub < 1:
            raise ParseError(f"variable {name!r} must be numbered from x1", pos)
        idx, kind = sub - 1, "numbered"
    else:
        raise ParseError(f"unknown variable {name!r}", pos)
    if style.setdefault("kind", kind) != kind:
        raise ParseError("mixed variable naming styles", pos)
    return idx


def _read_monomial(p, style):
    expos = {}
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


def ref_read_terms(text, nvars, classical):
    """Terms of ``text`` as (negated, coefficient, exponent tuple), and the variable count."""
    tokens = _tokenize(text, _CLASSICAL_TOKEN if classical else _TOKEN)
    if not tokens:
        raise ParseError("empty polynomial text", 0)
    p = _Reader(tokens, len(text))
    style = {}
    terms = []
    negated = False
    if classical and p.peek()[0] == "op" and p.peek()[1] in "+-":
        negated = p.take()[1] == "-"
    while True:
        kind, value, pos = p.peek()
        if kind in ("inf", "number"):
            p.take()
            coeff = BOTTOM if kind == "inf" else _rational(value, pos)
            expos = {}
            k2, v2, _ = p.peek()
            if k2 == "op" and v2 == "*":
                p.take()
                expos = _read_monomial(p, style)
        elif kind == "name":
            coeff = Fraction(1) if classical else Fraction(0)
            expos = _read_monomial(p, style)
        else:
            raise ParseError("expected a term", pos)
        terms.append((negated, coeff, expos))
        k3, v3, pos3 = p.peek()
        if k3 is None:
            break
        if k3 == "op" and v3 in "+-":
            p.take()
            negated = v3 == "-"
            continue
        raise ParseError(f"unexpected token {v3!r}", pos3)

    inferred = 0
    for _, _, expos in terms:
        for idx in expos:
            inferred = max(inferred, idx + 1)
    n = inferred if nvars is None else to_int(nvars, "nvars")
    if n < inferred:
        raise ParseError(f"expression uses {inferred} variables but nvars={n}", 0)
    return [(neg, c, tuple(e.get(i, 0) for i in range(n))) for neg, c, e in terms], n


def ref_parse_polynomial(text, mode=LAURENT, nvars=None):
    terms, n = ref_read_terms(text, nvars, classical=False)
    poly = Polynomial.zero(n, mode)
    for _, coeff, key in terms:
        if mode == POLY and any(e < 0 for e in key):
            raise ParseError("negative exponents are not allowed in poly mode", 0)
        poly = poly + Polynomial({key: coeff}, n, mode)
    return poly


def ref_cli_polynomials(texts, mode, nvars):
    inferred = nvars
    if inferred is None:
        inferred = 0
        for text in texts:
            inferred = max(inferred, parse_polynomial(text, mode).n)
    return [parse_polynomial(text, mode, inferred) for text in texts]


def ref_parse_classical(text, nvars):
    """The former CLI reader: split on +/-, parse each piece with the tropical grammar."""
    out = {}
    pieces = []
    current = ""
    for ch in text:
        if ch in "+-" and current.strip():
            pieces.append(current)
            current = ch
        else:
            current += ch
    if current.strip():
        pieces.append(current)
    terms = []
    for piece in pieces:
        piece = piece.strip()
        sign = Fraction(1)
        if piece.startswith("-"):
            sign, piece = Fraction(-1), piece[1:].strip()
        elif piece.startswith("+"):
            piece = piece[1:].strip()
        poly = parse_polynomial(piece, POLY, nvars)
        if not poly.is_monomial():
            raise ValueError(f"classical term {piece!r} did not parse to a single term")
        expo = poly.support()[0]
        coeff = poly.coefficient(expo)
        coeff = Fraction(1) if coeff == 0 else coeff  # tropical unit marks "no coefficient"
        terms.append((expo, sign * coeff))
    n = nvars if nvars is not None else max(len(e) for e, _ in terms)
    for expo, value in terms:
        key = tuple(expo) + (0,) * (n - len(expo))
        out[key] = out.get(key, Fraction(0)) + value
    return {k: v for k, v in out.items() if v != 0}, n
