"""Exact coefficient classes and the |b2| bound."""

import contextlib
import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmonic_atlas import (
    AnalyticExpr, GaussRational, LogTerm, Poly, Series, catalog_lookup,
    classify_harmonic, coeff_class, parse_any,
)
from harmonic_atlas.classify import expr_class
from harmonic_atlas.cli import main

F = Fraction
# the cyclotomic factors 1 - z, 1 + z, 1 - z^2, 1 + z^2, 1 - z + z^2, 1 + z + z^2
_CIRCLE_FACTORS = [Poly(c) for c in ((1, -1), (1, 1), (1, 0, -1), (1, 0, 1),
                                     (1, -1, 1), (1, 1, 1))]


def test_half_integer_class():
    s = Series([F(n + 1, 2) for n in range(20)])
    rep = coeff_class(s)
    assert rep.klass == "half_integer"
    assert rep.first_violation is None
    assert rep.is_half_integer and not rep.is_integer


def test_neither_class_first_violation():
    # h = -2 log(1-z) - z has coefficient 1/n from n >= 2: violation at 3
    h = Series([0, 1] + [F(1, n) for n in range(2, 12)])
    rep = coeff_class(h)
    assert rep.klass == "neither"
    assert rep.first_violation == (3, GaussRational(F(1, 3)))


def test_all_zero_series_is_integer():
    assert coeff_class(Series.zero(10)).klass == "integer"


def test_complex_coefficient_is_violation():
    s = Series([0, 1, GaussRational(0, F(1, 2))], order=4)
    rep = coeff_class(s)
    assert rep.klass == "neither"
    assert rep.first_violation[0] == 2


def test_coeff_class_builds_no_fraction(monkeypatch):
    # the class is read off each coefficient's reduced denominator
    counted = {"n": 0}
    plain = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        counted["n"] += 1
        return plain(cls, *args, **kwargs)

    half = catalog_lookup("f3_cv1").harmonic_map(64)
    neither = catalog_lookup("f1_cv1").harmonic_map(64)
    monkeypatch.setattr(Fraction, "__new__", counting_new)
    assert Fraction(1, 2).denominator == 2 and counted["n"] == 1  # it counts
    counted["n"] = 0
    reports = [*classify_harmonic(half), coeff_class(neither.h_series)]
    assert counted["n"] == 0, counted["n"]
    monkeypatch.undo()
    assert [r.klass for r in reports] == ["half_integer", "half_integer", "neither"]
    assert reports[2].first_violation == (3, GaussRational(F(1, 3)))


def test_classify_harmonic_f3():
    fm = catalog_lookup("f3_cv1").harmonic_map(40)
    rh, rg = classify_harmonic(fm)
    assert rh.klass == "half_integer" and rg.klass == "half_integer"


def test_classify_harmonic_koebe_shear_is_neither():
    fm = catalog_lookup("harmonic_koebe").harmonic_map(16)
    rh, rg = classify_harmonic(fm)
    assert rh.klass == "neither" and rg.klass == "neither"


def test_classify_identity_map():
    fm = catalog_lookup("identity").harmonic_map(8)
    rh, rg = classify_harmonic(fm)
    assert rh.klass == "integer" and rg.klass == "integer"


# -- |b2| bound -----------------------------------------------------------------
# A sense-preserving normalized map has |b2| <= 1/2, with equality exactly
# for a dilatation linear in z: |b2|^2 > 1/4 refutes the class.

def _b2_squared(fm):
    return fm.g_series.coeff(2).abs2()


def test_b2_equality_for_linear_dilatation():
    fm = catalog_lookup("f3_cv1").harmonic_map(8)
    assert _b2_squared(fm) == F(1, 4)
    fm17 = catalog_lookup("t4_conj_sq_plus").harmonic_map(8)
    assert _b2_squared(fm17) == F(1, 4)


def test_b2_zero_for_conformal():
    assert _b2_squared(catalog_lookup("identity").harmonic_map(8)) == 0


def test_b2_bound_all_harmonic_entries(catalog):
    for entry in catalog:
        if entry.omega is None:
            continue
        assert _b2_squared(entry.harmonic_map(8)) <= F(1, 4)


# -- exact classes of closed forms ------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(p=st.lists(st.integers(-6, 6), min_size=1, max_size=9),
       factors=st.lists(st.sampled_from(_CIRCLE_FACTORS), max_size=4),
       k=st.sampled_from((1, 2, 3)), order=st.integers(1, 12))
def test_exact_class_of_a_quotient_is_the_class_of_its_long_series(p, factors, k, order):
    # P/(kQ) over the circle's factors: the class read off P and Q for every
    # n, witness included, is the class of the series to deg P + 64, from
    # a series to any order
    q = Poly((k,))
    for f in factors:
        q = q * f
    expr = AnalyticExpr.rational(1, Poly(p), q)
    deep = max(Poly(p).degree, 0) + 64
    assert expr_class(expr, expr.series(order)) == coeff_class(expr.series(deep))


@pytest.mark.parametrize("text, klass, witness", [
    ("rat(1; 0,1; 1,i)", "neither", (2, GaussRational(0, -1))),          # z - i z^2 + ...
    ("rat(1; 0,1; 1,-i) + rat(1; 0,1; 1,i)", "integer", None),            # 2z/(1 + z^2)
    ("rat(1/4; 0,1; 1,-i) + rat(1/4; 0,1; 1,i)", "half_integer", None),
    ("rat(1; 0,1; 1,-1) + rat(-1; 0,1; 1,-1) + rat(1/5; 0,0,0,0,0,0,0,1; 1)",
     "neither", (7, GaussRational(F(1, 5)))),
    ("log(1; 1,1) + log(-1; 1,1) + rat(1/2; 0,1; 1,-1)", "half_integer", None),
    ("log(1/2; 1,1) + rat(1/2; 0,1; 1)", "neither", (2, GaussRational(F(-1, 4)))),
    ("log(2; 1,-i)", "neither", (1, GaussRational(0, -2))),
])
def test_exact_class_examples(text, klass, witness):
    # complex denominators, a cancelled log part, and witnesses past the
    # series handed in (order 1)
    expr = parse_any(text)
    report = expr_class(expr, expr.series(1))
    assert (report.klass, report.first_violation) == (klass, witness)


def test_exact_classes_are_the_order_64_classes_on_the_catalog(catalog):
    # every report `classify <id>` prints at the default order, witnesses
    # included, is the one the order-64 series gave before the exact rules
    for entry in catalog:
        fm = entry.harmonic_map(64)
        assert classify_harmonic(fm) == (coeff_class(fm.h_series),
                                         coeff_class(fm.g_series)), entry.id


def test_log_part_witness_is_searched_past_the_order():
    # f1_cv1's h = -log(1 - z) is neither for every n; at order 2 its first
    # violation, 1/3 at index 3, lies past the map's series
    fm = catalog_lookup("f1_cv1").harmonic_map(2)
    assert coeff_class(fm.h_series).klass == "half_integer"
    rh, rg = classify_harmonic(fm)
    assert rh.first_violation == rg.first_violation == (3, GaussRational(F(1, 3)))


def test_outside_the_exact_rules_the_series_decides():
    # Q = 1 - z/2 is not over the Gaussian integers, and log(1 + 2z) has
    # its root inside the disk: both read the series they are given
    for expr in (parse_any("z/(1-z/2)"),
                 AnalyticExpr((LogTerm(GaussRational(1), Poly((1, 2))),), validate=False)):
        for order in (1, 3, 8):
            assert expr_class(expr, expr.series(order)) == coeff_class(expr.series(order))


def test_classify_cli_reports_a_violation_past_the_default_order():
    # the coefficient 1/3 of z^65 lies past the default order 64
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["classify", "z + z^65/3", "--json"]) == 0
    report = json.loads(out.getvalue())
    assert report["h"] == {"class": "neither",
                           "first_violation": {"index": 65, "value": "1/3"}}
    assert report["g"] == {"class": "integer"}
