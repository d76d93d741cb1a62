"""Exact coefficient classes and the |b2| bound."""

from fractions import Fraction

from harmonic_atlas import (
    GaussRational, Series, b2_bound_check, catalog_lookup, classify_harmonic,
    coeff_class,
)

F = Fraction


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

def test_b2_equality_for_linear_dilatation():
    fm = catalog_lookup("f3_cv1").harmonic_map(8)
    assert b2_bound_check(fm) == F(1, 4)
    fm17 = catalog_lookup("t4_conj_sq_plus").harmonic_map(8)
    assert b2_bound_check(fm17) == F(1, 4)


def test_b2_zero_for_conformal():
    assert b2_bound_check(catalog_lookup("identity").harmonic_map(8)) == 0


def test_b2_bound_all_harmonic_entries(catalog):
    for entry in catalog:
        if entry.omega is None:
            continue
        assert b2_bound_check(entry.harmonic_map(8)) <= F(1, 4)
