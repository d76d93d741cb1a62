"""Text formats: exact literals, structured terms, natural formulas."""

import sys
from fractions import Fraction

import pytest

from harmonic_atlas import (
    AnalyticExpr, GaussRational, Poly, format_expr, parse_any,
    parse_expr_text, parse_formula,
)
from harmonic_atlas import InvalidExpression
from harmonic_atlas.exprtext import _MAX_DEPTH, parse_gauss

F = Fraction


@pytest.mark.parametrize("text,expected", [
    ("3", GaussRational(3)),
    ("-1/2", GaussRational(F(-1, 2))),
    ("i", GaussRational(0, 1)),
    ("-i", GaussRational(0, -1)),
    ("2/3 i", GaussRational(0, F(2, 3))),
    ("1/2-1/3 i", GaussRational(F(1, 2), F(-1, 3))),
    ("-5+2 i", GaussRational(-5, 2)),
])
def test_parse_gauss(text, expected):
    assert parse_gauss(text) == expected


def test_gauss_literal_roundtrip():
    values = [GaussRational(F(a, b), F(c, d))
              for a in (-3, 0, 2) for b in (1, 4)
              for c in (-1, 0, 5) for d in (1, 3)]
    for v in values:
        assert parse_gauss(v.literal()) == v


def test_structured_roundtrip():
    e = (AnalyticExpr.rational(F(1, 2), Poly((0, 2, -1)), Poly((1, -2, 1)))
         + AnalyticExpr.log(GaussRational(0, F(-1, 4)), Poly((1, GaussRational(0, 1)))))
    text = format_expr(e)
    back = parse_expr_text(text)
    assert back.series(24) == e.series(24)
    assert format_expr(back) == text


def test_parse_formula_examples():
    assert parse_formula("z/(1-z+z^2)").series(7) == \
        parse_expr_text("rat(1; 0,1; 1,-1,1)").series(7)
    s = parse_formula("z-z^2/2").series(4)
    assert [str(s.coeff(n)) for n in range(3)] == ["0", "1", "-1/2"]
    # implicit multiplication and powers
    e = parse_formula("z(2-z)/(2(1-z)^2)")
    ref = AnalyticExpr.rational(F(1, 2), Poly((0, 2, -1)), Poly((1, -2, 1)))
    assert e.series(12) == ref.series(12)


def test_parse_formula_cancels_common_factors():
    e = parse_formula("(1-z)/(1-z)^2")
    (term,) = e.terms
    assert term.den.degree == 1 and term.num.degree == 0
    assert e.series(8) == parse_formula("1/(1-z)").series(8)


def test_parse_formula_with_i():
    e = parse_formula("z/(1-i z)")
    s = e.series(4)
    i = GaussRational(0, 1)
    assert s.coeff(1) == GaussRational(1)
    assert s.coeff(2) == i
    assert s.coeff(3) == i * i


def test_parse_any_dispatch():
    assert parse_any("rat(1; 0,1; 1,-1)").series(5) == parse_any("z/(1-z)").series(5)


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_formula("z//2")
    with pytest.raises(ValueError):
        parse_formula("q+1")
    with pytest.raises(ValueError):
        parse_expr_text("rat(1; 0,1)")
    with pytest.raises(ZeroDivisionError):
        parse_formula("z/0")


def test_nesting_verdict_does_not_depend_on_the_callers_depth():
    # a formula one level past the cap is refused before the parser
    # recurses, even from a caller with few frames left; one at the cap
    # parses from a caller of ordinary depth
    at_cap = "(" * _MAX_DEPTH + "z" + ")" * _MAX_DEPTH
    assert parse_formula(at_cap).series(3) == parse_formula("z").series(3)
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1

    def refuse(levels_left):
        if levels_left:
            return refuse(levels_left - 1)
        with pytest.raises(InvalidExpression, match="nested deeper"):
            parse_formula("(" + at_cap + ")")
        return True

    assert refuse(sys.getrecursionlimit() - depth - 40)
