"""Text grammar for tropical polynomials and monomials, plus rational and JSON field reading.

Grammar::

    poly   := term ("+" term)*
    term   := coeff ("*" monom)? | monom
    coeff  := rational | "-inf"
    monom  := var ("^" int)? ("*" var ("^" int)?)*

Coefficients are rational literals ("3", "-1", "7/2"); "+" is the tropical
sum, "*" the tropical product.  A bare monomial carries the unit coefficient
(rational 0).  "-inf" terms are dropped, and a repeated monomial keeps the
largest coefficient.  Variables are x, y, z, w or x1..xn, numbered in
ASCII digits; the two styles cannot be mixed in one expression.

Text is read in one tokenizer pass (``_tokenize``, one regex match per
token) and one loop over the tokens (``_read_terms``), which both grammars
share; an error names its character position.

``parse_polynomials`` reads each of several texts once and pads their
exponents to a common variable count; ``parse_polynomial`` is its one-text
case.

Classical polynomials over Q (``parse_classical``) share the monomials and
the term grammar, but "-" is an operator (coefficients are unsigned), a bare
monomial has coefficient 1 and like terms add as rationals.

The JSON formats read terms and monomials here (``parse_term``,
``parse_monomial``) and write monomials with ``monomial_text``.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .polynomials import LAURENT, POLY, Exponents, Polynomial, _check_mode
from .matrices import to_fraction, to_int
from .scalars import BOTTOM, TropScalar, trop_add

_LETTER_VARS = {"x": 0, "y": 1, "z": 2, "w": 3}
_NUMBERED_VAR = re.compile(r"x[0-9]+")

# one match per token; "bad" catches the first character no token starts with
_TOKEN = re.compile(
    r"\s*(?:(?P<inf>-inf\b)|(?P<number>-?[0-9]+(?:/[0-9]+)?)|(?P<name>[A-Za-z]\w*)|(?P<op>[+*^])"
    r"|(?P<bad>\S))"
)
_CLASSICAL_TOKEN = re.compile(
    r"\s*(?:(?P<number>[0-9]+(?:/[0-9]+)?)|(?P<name>[A-Za-z]\w*)|(?P<op>[-+*^])|(?P<bad>\S))"
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


def _tokenize(text: str, pattern=_TOKEN) -> list[tuple[str | None, str | None, int]]:
    """(kind, value, position) of each token, in one pass, then the end (None, None, len(text)).

    Each match starts where the previous one ended, so a character no token
    starts with is reported at its match's start, leading whitespace
    included.  Trailing whitespace matches nothing.
    """
    if not isinstance(text, str):
        raise ParseError(f"expected polynomial text, got {type(text).__name__}", 0)
    tokens = []
    for m in pattern.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {text[m.start()]!r}", m.start())
        tokens.append((kind, m.group(kind), m.start(kind)))
    tokens.append((None, None, len(text)))
    return tokens


def _var_index(name: str, pos: int, style: dict) -> int:
    if name in _LETTER_VARS:
        idx, kind = _LETTER_VARS[name], "letters"
    elif _NUMBERED_VAR.fullmatch(name):
        sub = int(name[1:])
        if sub < 1:
            raise ParseError(f"variable {name!r} must be numbered from x1", pos)
        idx, kind = sub - 1, "numbered"
    else:
        raise ParseError(f"unknown variable {name!r}", pos)
    if style.setdefault("kind", kind) != kind:
        raise ParseError("mixed variable naming styles", pos)
    return idx


def _read_terms(text: str, nvars: int | None, classical: bool):
    """Terms of ``text`` as (negated, coefficient, exponent tuple), and the variable count.

    One loop reads one factor per step: a coefficient, which only starts a
    term, or a variable with its power.  A "*" then joins the next variable
    to the term; "+" ("-" in classical text) or the end closes the term.
    """
    tokens = _tokenize(text, _CLASSICAL_TOKEN if classical else _TOKEN)
    if len(tokens) == 1:
        raise ParseError("empty polynomial text", 0)
    unit = Fraction(1) if classical else Fraction(0)
    style: dict = {}
    terms: list[tuple[bool, object, dict[int, int]]] = []
    kind, value, _ = tokens[0]
    signed = classical and kind == "op" and value in "+-"
    negated = signed and value == "-"
    i = int(signed)
    coeff = None  # the open term's coefficient; None before its first factor
    while True:
        kind, value, pos = tokens[i]
        i += 1
        if kind == "name":
            if coeff is None:
                coeff, expos = unit, {}
            idx = _var_index(value, pos, style)
            power = 1
            if tokens[i][1] == "^":
                kind, value, pos = tokens[i + 1]
                i += 2
                if kind != "number" or "/" in value:
                    raise ParseError("expected an integer exponent", pos)
                power = int(value)
            expos[idx] = expos.get(idx, 0) + power
            joined = tokens[i][1] == "*" and tokens[i + 1][0] == "name"
        elif coeff is None and (kind == "number" or kind == "inf"):
            coeff = BOTTOM if kind == "inf" else _rational(value, pos)
            expos = {}
            joined = tokens[i][1] == "*"
        elif coeff is None:
            raise ParseError("expected a term", pos)
        else:  # a coefficient's "*" with no variable after it
            raise ParseError("expected a variable name", pos)
        if joined:
            i += 1
            continue
        terms.append((negated, coeff, expos))
        coeff = None
        kind, value, pos = tokens[i]
        i += 1
        if kind is None:
            break
        if kind != "op" or value not in "+-":
            raise ParseError(f"unexpected token {value!r}", pos)
        negated = value == "-"

    inferred = 1 + max((idx for _, _, expos in terms for idx in expos), default=-1)
    n = inferred if nvars is None else to_int(nvars, "nvars")
    if n < inferred:
        raise ParseError(f"expression uses {inferred} variables but nvars={n}", 0)
    return [(neg, c, tuple([e.get(j, 0) for j in range(n)])) for neg, c, e in terms], n


def parse_polynomial(text: str, mode: str = LAURENT, nvars: int | None = None) -> Polynomial:
    """Parse the grammar above into a Polynomial.

    ``nvars`` fixes the ambient variable count; otherwise it is inferred from
    the variables that appear (letters count up to the furthest letter used).
    """
    return parse_polynomials([text], mode, nvars)[0]


def parse_polynomials(texts, mode: str = LAURENT, nvars: int | None = None) -> list[Polynomial]:
    """Each text parsed once, all over ``nvars`` variables or else the most any text uses.

    The first text that does not parse raises its ``ParseError``.  An
    inferred count pads each text's exponents with zeros, which is what
    parsing the text again with that count would give.  The terms read are
    valid as they stand, so each polynomial is built by ``Polynomial._of``.
    """
    _check_mode(mode)
    folded = []
    for text in texts:
        terms, k = _read_terms(text, nvars, classical=False)
        coeffs: dict[Exponents, TropScalar] = {}
        for _, coeff, key in terms:
            if mode == POLY and key and min(key) < 0:
                raise ParseError("negative exponents are not allowed in poly mode", 0)
            coeffs[key] = trop_add(coeffs.get(key, BOTTOM), coeff)
        folded.append((coeffs, k))
    n = max((k for _, k in folded), default=0)
    return [
        Polynomial._of(
            {key + (0,) * (n - k): c for key, c in coeffs.items() if c is not BOTTOM}, n, mode
        )
        for coeffs, k in folded
    ]


def parse_classical(
    text: str, nvars: int | None = None
) -> tuple[dict[tuple[int, ...], Fraction], int]:
    """Non-zero coefficients of classical text such as "x - 2*y", and n (``nvars`` as above)."""
    terms, n = _read_terms(text, nvars, classical=True)
    coeffs: dict[tuple[int, ...], Fraction] = {}
    for negated, coeff, key in terms:
        coeffs[key] = coeffs.get(key, Fraction(0)) + (-coeff if negated else coeff)
    return {key: c for key, c in coeffs.items() if c != 0}, n


def _var_name(i: int, n: int) -> str:
    if n <= 4:
        return "xyzw"[i]
    return f"x{i + 1}"


def monomial_text(expo, n: int) -> str:
    """The monomial ``expo`` in n variables as text, such as "x^2*y^-1"; the constant is "1"."""
    parts = []
    for i, e in enumerate(expo):
        if e == 0:
            continue
        name = _var_name(i, n)
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts) or "1"


def format_polynomial(f: Polynomial) -> str:
    if f.is_zero():
        return "-inf"
    parts = []
    for expo, c in f.terms():
        if not any(expo):
            parts.append(str(c))
        elif c == 0:
            parts.append(monomial_text(expo, f.n))
        else:
            parts.append(f"{c}*{monomial_text(expo, f.n)}")
    return " + ".join(parts)


def parse_term(text: str, mode: str, n: int, read=parse_polynomial, where: str = ""):
    """(coefficient, exponents) of one term such as "3*x"; more terms: a ValueError led by ``where``."""
    poly = read(text, mode, n)
    if not poly.is_monomial():
        raise ValueError(f"{where}{text!r} is not a single term")
    ((expo, coeff),) = poly.terms()
    return coeff, expo


def parse_monomial(text: str, mode: str, n: int, where: str, read=parse_polynomial) -> Exponents:
    """The exponents of monomial text as ``monomial_text`` writes it: "1", "x", "x^2*y^-1".

    One term with the unit coefficient 0, written or not, or "1"; another
    coefficient is a ValueError that begins with ``where``.
    """
    coeff, expo = parse_term(text, mode, n, read, f"{where} ")
    if coeff != 0 and (coeff != 1 or any(expo)):
        raise ValueError(f"{where} {text!r} carries the coefficient {coeff}")
    return expo


def parse_point(text: str) -> tuple[Fraction, ...]:
    """Comma-separated rationals, e.g. "1,-1/2"; errors give the coordinate's offset."""
    if not text.strip():
        raise ParseError("empty point", 0)
    point = []
    start = 0
    for item in text.split(","):
        coordinate = item.strip()
        pos = start + len(item) - len(item.lstrip())
        if not coordinate:
            raise ParseError("empty coordinate", pos)
        point.append(_rational(coordinate, pos))
        start += len(item) + 1
    return tuple(point)


def json_field(data: dict, key: str, where: str):
    """``data[key]`` of a decoded JSON object; a missing key is a ValueError naming it and ``where``.

    ``where`` names the object, e.g. "circuit JSON" or "trace JSON: steps[0]".
    """
    try:
        return data[key]
    except KeyError:
        raise ValueError(f'{where} has no "{key}"') from None
