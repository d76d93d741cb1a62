"""Textual forms for expressions.

Two formats are supported:

* the structured term format used for round-tripping and the atlas export:
  ``rat(c; p0,p1,...; q0,q1,...)`` and ``log(c; l0,l1,...)`` terms joined
  by `` + ``, with exact coefficient literals like ``-3/4`` or ``1/2+1/3 i``.
  It is also the catalog's source: every closed form there is written in
  it, as :func:`format_expr` prints it, and built by :func:`parse_expr_text`;

* a natural formula notation for CLI convenience, e.g. ``z/(1-z+z^2)`` or
  ``z(2-z)/(2(1-z)^2)``, which parses to a single rational term.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .analytic import AnalyticExpr, LogTerm, Poly, RatFunc, RationalTerm
from .errors import InvalidExpression
from .numkernel import GaussRational

__all__ = [
    "parse_gauss", "format_expr", "parse_expr_text",
    "parse_formula", "parse_any",
]


_REAL_RE = re.compile(r"^([+-]?\d+(?:/\d+)?)$")
_IMAG_RE = re.compile(r"^([+-]?\d+(?:/\d+)?|[+-]?)i$")
_BOTH_RE = re.compile(r"^([+-]?\d+(?:/\d+)?)([+-](?:\d+(?:/\d+)?)?)i$")


def _sign_body(body: str) -> Fraction:
    if body in ("", "+"):
        return Fraction(1)
    if body == "-":
        return Fraction(-1)
    return Fraction(body)


def parse_gauss(text: str) -> GaussRational:
    """Parse literals like ``3``, ``-1/2``, ``i``, ``-i``, ``2/3 i``, ``1/2-1/3 i``."""
    t = "".join(text.split())
    m = _REAL_RE.match(t)
    if m:
        return GaussRational(Fraction(m.group(1)))
    m = _IMAG_RE.match(t)
    if m:
        return GaussRational(0, _sign_body(m.group(1)))
    m = _BOTH_RE.match(t)
    if m:
        return GaussRational(Fraction(m.group(1)), _sign_body(m.group(2)))
    raise ValueError(f"bad exact literal {text!r}")


def _format_poly(p: Poly) -> str:
    if p.is_zero:
        return "0"
    return ",".join(c.literal() for c in p.coeffs)


def _parse_poly(text: str) -> Poly:
    text = text.strip()
    if text == "0":
        return Poly.zero()
    return Poly([parse_gauss(part) for part in text.split(",")])


def format_expr(e: AnalyticExpr) -> str:
    if not e.terms:
        return "rat(0; 0; 1)"
    parts = []
    for t in e.terms:
        if isinstance(t, RationalTerm):
            parts.append(f"rat({t.c.literal()}; {_format_poly(t.num)}; {_format_poly(t.den)})")
        else:
            parts.append(f"log({t.c.literal()}; {_format_poly(t.arg)})")
    return " + ".join(parts)


_TERM_RE = re.compile(r"(rat|log)\(([^()]*)\)")
_TERM = r"(?:rat|log)\([^()]*\)"
_EXPR_RE = re.compile(rf"\s*{_TERM}(?:\s*\+\s*{_TERM})*\s*")  # term ( + term )*


def parse_expr_text(text: str) -> AnalyticExpr:
    """Parse the structured ``rat(...) + log(...)`` format: terms joined
    by ``+``, nothing else."""
    if not _EXPR_RE.fullmatch(text):
        raise ValueError(f"expression text is not terms joined by '+': {text!r}")
    terms = []
    for kind, body in _TERM_RE.findall(text):
        fields = [f.strip() for f in body.split(";")]
        if kind == "rat":
            if len(fields) != 3:
                raise ValueError("rat(...) takes three ;-separated fields")
            terms.append(RationalTerm(parse_gauss(fields[0]),
                                      _parse_poly(fields[1]),
                                      _parse_poly(fields[2])))
        else:
            if len(fields) != 2:
                raise ValueError("log(...) takes two ;-separated fields")
            terms.append(LogTerm(parse_gauss(fields[0]), _parse_poly(fields[1])))
    return AnalyticExpr(terms)


# -- natural formula notation -------------------------------------------------

_MAX_POWER = 256  # the largest exponent times the size of its base in a formula
# The deepest parenthesis nesting of a formula.  Each level is about four
# frames of the recursive parser, so 100 levels stay far below Python's
# default limit of 1000 frames.  The tokens are counted before parsing, so
# a deeper formula is refused without recursing, at any depth of the caller.
_MAX_DEPTH = 100
_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([zi()+\-*/^]))")


def _tokenize(text: str):
    text = text.rstrip()
    tokens, pos = [], 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError(f"bad character in formula at {text[pos:]!r}")
        if m.group(1) is not None:
            tokens.append(("num", int(m.group(1))))
        else:
            tokens.append((m.group(2), None))
        pos = m.end()
    return tokens


def _power(base: RatFunc, k: int) -> RatFunc:
    """base**k by k products, whose cost grows as k**2.  Refused when k
    times the size of base exceeds ``_MAX_POWER``; the size is the largest
    of 1, the degree and the longest coefficient part in 64-bit words, so
    nested powers cannot grow the degree or the coefficients without bound
    either."""
    cs = base.num.coeffs + base.den.coeffs
    words = max(abs(x).bit_length() for c in cs for x in (c._a, c._b, c._d)) // 64
    if max(1, base.num.degree, base.den.degree, words) * k > _MAX_POWER:
        raise InvalidExpression("power too large: exponent times the size of "
                                f"its base exceeds {_MAX_POWER}")
    out = RatFunc(Poly.one())
    for _ in range(k):
        out = out * base
    return out


class _FormulaParser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def take(self):
        if self.pos == len(self.tokens):
            raise InvalidExpression("formula ends too early")
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self) -> RatFunc:
        depth = 0
        for kind, _ in self.tokens:
            depth += (kind == "(") - (kind == ")")
            if depth > _MAX_DEPTH:
                raise InvalidExpression(f"parentheses nested deeper than {_MAX_DEPTH}")
        value = self.expr()
        if self.pos != len(self.tokens):
            raise ValueError("trailing tokens in formula")
        return value

    def expr(self) -> RatFunc:
        if self.peek() == "-":
            self.take()
            value = -self.term()
        else:
            if self.peek() == "+":
                self.take()
            value = self.term()
        while self.peek() in ("+", "-"):
            op, _ = self.take()
            rhs = self.term()
            value = value + (rhs if op == "+" else -rhs)
        return value

    def term(self) -> RatFunc:
        value = self.factor()
        while True:
            nxt = self.peek()
            if nxt in ("*", "/"):
                op, _ = self.take()
                rhs = self.factor()
                value = value * rhs if op == "*" else value / rhs
            elif nxt in ("num", "z", "i", "("):
                value = value * self.factor()  # implicit multiplication
            else:
                return value

    def factor(self) -> RatFunc:
        value = self.atom()
        if self.peek() == "^":
            self.take()
            kind, val = self.take()
            if kind != "num":
                raise ValueError("exponent must be a literal integer")
            value = _power(value, val)
        return value

    def atom(self) -> RatFunc:
        kind, val = self.take()
        if kind == "num":
            return RatFunc(Poly((val,)))
        if kind == "z":
            return RatFunc(Poly.var())
        if kind == "i":
            return RatFunc(Poly((GaussRational(0, 1),)))
        if kind == "(":
            value = self.expr()
            if self.peek() != ")":
                raise ValueError("unbalanced parentheses")
            self.take()
            return value
        raise ValueError(f"unexpected token {kind!r}")


def parse_formula(text: str) -> AnalyticExpr:
    """Parse natural notation like ``z(2-z)/(2(1-z)^2)`` into one rational
    term, numerator and denominator divided by their monic gcd."""
    rf = _FormulaParser(_tokenize(text)).parse().reduced()
    return AnalyticExpr.rational(1, rf.num, rf.den)


def parse_any(text: str) -> AnalyticExpr:
    """Accept either the structured term format or natural formula notation."""
    if "rat(" in text or "log(" in text:
        return parse_expr_text(text)
    return parse_formula(text)
