"""Oracles of `tropica.parsing`, and the polynomial shorthand the tests write inputs in.

`ref_parse_polynomial` is the former term-by-term fold of
`parse_polynomial` (one polynomial per term read by the term reader
`_read_terms`, summed one at a time), and `ref_cli_polynomials` the former
two-pass reading of `--poly` texts without `--nvars`.  `ref_parse_classical`
is the former classical reader: it splits the text on +/- and reads each
piece with the tropical grammar.  `outcome` turns a call into its result or
the type and message of the error it raised, so that an oracle and the
library can be compared on bad input too.
"""

from fractions import Fraction

from tropica import parsing
from tropica.parsing import ParseError, parse_polynomial
from tropica.polynomials import LAURENT, POLY, Polynomial


def P(text, n=None, mode=LAURENT):
    return parse_polynomial(text, mode, n)


def outcome(call, *args):
    """The result of a call, or the type and message of the error it raised."""
    try:
        return "ok", call(*args)
    except (ValueError, TypeError) as exc:
        return type(exc).__name__, str(exc)


def ref_parse_polynomial(text, mode=LAURENT, nvars=None):
    terms, n = parsing._read_terms(text, nvars, classical=False)
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
