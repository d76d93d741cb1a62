"""Closed-form expressions: evaluation, derivative, series, transforms."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from harmonic_atlas import (
    AnalyticExpr, GaussRational, InvalidExpression, NearPole, Poly,
    PoleAtOrigin, Series,
)
from oracles import long_division_series, quotient_rule

F = Fraction


def P(*cs):
    return Poly(cs)


Z = P(0, 1)
KOEBE = AnalyticExpr.rational(1, Z, P(1, -2, 1))
HSLITS = AnalyticExpr.rational(1, Z, P(1, 0, 1))           # z/(1+z^2)
HSLITS_WIDE = AnalyticExpr.rational(1, Z, P(1, -1, 1))     # z/(1-z+z^2)


# -- construction invariants -------------------------------------------------

def test_denominator_root_inside_disk_rejected():
    with pytest.raises(InvalidExpression):
        AnalyticExpr.rational(1, Z, P(1, -2))  # pole at 1/2


def test_pole_at_origin_rejected_unless_cancelled():
    with pytest.raises(PoleAtOrigin):
        AnalyticExpr.rational(1, P(1), Z)
    # z^2 / z normalizes to z
    e = AnalyticExpr.rational(1, P(0, 0, 1), Z)
    assert e.series(4) == Series([0, 1], order=4)


def test_log_argument_must_be_one_at_zero():
    with pytest.raises(InvalidExpression):
        AnalyticExpr.log(1, P(2, 1))


# -- expr_eval ----------------------------------------------------------------

def test_eval_hslits_boundary_limit():
    # z/(1+z^2) at r e^{i pi/3} approaches 1/(2 cos(pi/3)) = 1 within O(1-r)
    theta = math.pi / 3
    for r in (0.99, 0.999):
        w = HSLITS.eval(r * cmath.exp(1j * theta))
        assert abs(w - 1.0) <= 2.0 * (1 - r)


def test_eval_hslits_wide_boundary_limit():
    # z/(1-z+z^2) at r e^{i pi/2} approaches 1/(2 cos(pi/2) - 1) = -1
    w = HSLITS_WIDE.eval(0.999 * 1j)
    assert abs(w - (-1.0)) <= 3e-3


def test_eval_at_zero_matches_series_constant():
    e = AnalyticExpr.rational(F(1, 2), P(3, 1), P(1, 1)) + AnalyticExpr.log(2, P(1, 1))
    assert e.eval(0.0) == complex(e.series(0).coeff(0))
    assert e.value_at_zero() == GaussRational(F(3, 2))


def test_eval_near_pole_raises():
    with pytest.raises(NearPole):
        KOEBE.eval(1.0 - 1e-9)


def test_eval_vectorized_matches_scalar():
    zs = np.array([0.1 + 0.2j, -0.3j, 0.5])
    vals = KOEBE.eval(zs)
    for z, v in zip(zs, vals):
        assert abs(v - KOEBE.eval(complex(z))) < 1e-15


# -- expr_derivative -----------------------------------------------------------

def test_derivative_of_log():
    e = AnalyticExpr.log(1, P(1, 1)).derivative()     # -> 1/(1+z)
    assert e.series(8) == AnalyticExpr.rational(1, P(1), P(1, 1)).series(8)


def test_derivative_halfplane_avg_closed_form():
    # d/dz [z(2-z)/(2(1-z))] = ((1-z)^2 + 1)/(2(1-z)^2)
    e = AnalyticExpr.rational(F(1, 2), P(0, 2, -1), P(1, -1)).derivative()
    ref = AnalyticExpr.rational(F(1, 2), P(2, -2, 1), P(1, -2, 1))
    assert e.series(16) == ref.series(16)


def test_derivative_koebe_quotient_rule_oracle():
    num, den = quotient_rule([F(0), F(1)], [F(1), F(-2), F(1)])
    oracle = Series(long_division_series(num, den, 12))
    assert KOEBE.derivative().series(12) == oracle
    # and it equals (1+z)/(1-z)^3
    ref = AnalyticExpr.rational(1, P(1, 1), P(1, -3, 3, -1))
    assert KOEBE.derivative().series(12) == ref.series(12)


# -- expr_series ----------------------------------------------------------------

def test_series_koebe_coefficients():
    s = KOEBE.series(10)
    assert [s.coeff(n) for n in range(11)] == [GaussRational(n) for n in range(11)]


def test_series_period_six_pattern():
    s = HSLITS_WIDE.series(13)
    pattern = [0, 1, 1, 0, -1, -1]
    for n in range(14):
        assert s.coeff(n) == GaussRational(pattern[n % 6]), n


def test_series_log_plus_rational_closed_form():
    # -(1/2) log(1-z) + 1/(4(1-z)^2) - 1/4 has coefficients 1/(2n) + (n+1)/4
    e = (AnalyticExpr.log(F(-1, 2), P(1, -1))
         + AnalyticExpr.rational(F(1, 4), P(1), P(1, -2, 1))
         + AnalyticExpr.rational(F(-1, 4), P(1)))
    s = e.series(20)
    assert s.coeff(0) == 0
    for n in range(1, 21):
        assert s.coeff(n) == GaussRational(F(1, 2 * n) + F(n + 1, 4)), n


def test_series_matches_numeric_eval():
    # Poly Horner on the series(e, 64) coefficients agrees with closed-form eval
    # for |z| <= 0.5
    rng = np.random.default_rng(7)
    e = (AnalyticExpr.rational(F(1, 2), P(0, 2, -1), P(1, -2, 1))
         + AnalyticExpr.log(F(5, 8), P(1, 1)))
    s = e.series(64)
    for _ in range(40):
        z = complex(*(rng.uniform(-0.35, 0.35, 2)))
        direct = e.eval(z)
        horner = Poly(s.coeffs)(z)
        assert abs(direct - horner) <= 1e-8 * max(1.0, abs(direct))


# -- expr_transform ---------------------------------------------------------------

def test_neg_reflect_koebe():
    flipped = KOEBE.transform("neg_reflect")
    ref = AnalyticExpr.rational(1, Z, P(1, 2, 1))
    assert flipped.series(16) == ref.series(16)


def test_rot_i_conj_hslits():
    rotated = HSLITS.transform("rot_i_conj")
    ref = AnalyticExpr.rational(1, Z, P(1, 0, -1))
    assert rotated.series(16) == ref.series(16)


def test_neg_reflect_involution():
    e = AnalyticExpr.rational(F(1, 2), P(0, 2, -1), P(1, -1)) + AnalyticExpr.log(3, P(1, 1))
    twice = e.transform("neg_reflect").transform("neg_reflect")
    assert twice.series(24) == e.series(24)


def test_transform_matches_series_substitution():
    e = HSLITS_WIDE
    direct = e.transform("neg_reflect").series(20)
    via_series = -(e.series(20).compose_linear(-1))
    assert direct == via_series


# -- derivative/series consistency across a family of expressions ----------------

def test_series_of_derivative_equals_derivative_of_series():
    exprs = [
        KOEBE, HSLITS, HSLITS_WIDE,
        AnalyticExpr.log(F(5, 8), P(1, 1)) + AnalyticExpr.log(F(-1, 8), P(1, -1)),
        AnalyticExpr.rational(F(1, 2), P(0, 2, 1), P(1, 2, 1)),
    ]
    for e in exprs:
        assert e.derivative().series(15) == e.series(16).derivative()
