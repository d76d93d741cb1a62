"""Shear construction: exact series identities and on-record coefficients."""

import cmath
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmonic_atlas import (
    AnalyticExpr, DilatationTooLarge, GaussRational, InvalidExpression, NearPole, NoClosedForm,
    NotNormalized, Poly, Series, SeriesMismatch, catalog_lookup, dilatation_check, parse_any,
    parse_expr_text, parse_formula, shear_imag, shear_real,
)
from harmonic_atlas import catalog_ids, numkernel
from harmonic_atlas import shear as shear_mod
from harmonic_atlas.analytic import EPS_POLE, RationalTerm
from harmonic_atlas.realalg import peval
from harmonic_atlas.shear import HarmonicMap
from oracles import compose_linear, pole_mask_bruteforce, shear_series_reference

F = Fraction

Z_EXPR = parse_formula("z")
NEG_Z = parse_formula("-z")


def gr(x):
    return GaussRational(F(x) if not isinstance(x, tuple) else F(*x))


# -- shear_real: the worked coefficient examples ------------------------------

def test_shear_halfplane_with_z():
    fm = shear_real(parse_formula("z/(1-z)"), Z_EXPR, 32)
    for n in range(1, 33):
        assert fm.h_series.coeff(n) == gr((n + 1, 2))
    for n in range(2, 33):
        assert fm.g_series.coeff(n) == gr((n - 1, 2))
    assert fm.g_series.coeff(1) == 0


def test_shear_cardioid_r_with_z_is_translation_fold():
    fm = shear_real(parse_formula("z-z^2/2"), Z_EXPR, 16)
    assert fm.h_series == Series([0, 1], order=16)
    assert fm.g_series == AnalyticExpr.rational(F(1, 2), Poly((0, 0, 1))).series(16)


def test_shear_hslits_wide_a4():
    fm = shear_real(parse_formula("z/(1-z+z^2)"), Z_EXPR, 8)
    assert fm.h_series.coeff(4) == gr((-1, 4))
    fm2 = shear_real(parse_formula("z/(1-z+z^2)"), NEG_Z, 8)
    assert fm2.h_series.coeff(4) == gr((-3, 4))


def test_shear_hslits_avg_a3_both_signs():
    phi = parse_formula("z(2+z^2)/(2(1+z^2))")
    for om in (Z_EXPR, NEG_Z):
        fm = shear_real(phi, om, 8)
        assert fm.h_series.coeff(3) == gr((-1, 6))


def test_shear_parabola_a3():
    fm = shear_real(parse_formula("z(2-z)/(2(1-z)^2)"), Z_EXPR, 8)
    assert fm.h_series.coeff(3) == gr((10, 3))


def test_shear_imag_halfplane_minus_z():
    fm = shear_imag(parse_formula("z/(1-z)"), NEG_Z, 24)
    for n in range(1, 25):
        assert fm.h_series.coeff(n) == gr((n + 1, 2))
    for n in range(2, 25):
        assert fm.g_series.coeff(n) == -gr((n - 1, 2))


def test_shear_imag_vslits_a3_both_signs():
    psi = parse_formula("z/(1-z^2)")
    for om in (Z_EXPR, NEG_Z):
        fm = shear_imag(psi, om, 8)
        assert fm.h_series.coeff(3) == gr((4, 3))


def test_shear_imag_identity_source_gives_log():
    fm = shear_imag(Z_EXPR, Z_EXPR, 12)
    # h = log(1+z)
    ref = AnalyticExpr.log(1, Poly((1, 1))).series(12)
    assert fm.h_series == ref


# -- exact structural identities ----------------------------------------------

def test_real_shear_decomposition_exact():
    phi = parse_formula("z(2-z)/(2(1-z))")
    for om in (Z_EXPR, NEG_Z):
        fm = shear_real(phi, om, 40)
        assert fm.h_series - fm.g_series == phi.series(40)
        assert dilatation_check(fm)


def test_imag_shear_decomposition_exact():
    psi = parse_formula("z(2+z)/(2(1+z))")
    for om in (Z_EXPR, NEG_Z):
        fm = shear_imag(psi, om, 40)
        assert fm.h_series + fm.g_series == psi.series(40)
        assert dilatation_check(fm)


def test_shear_with_dense_dilatation():
    # omega = z/(2 - z) has every coefficient nonzero and |omega| < 1 on the
    # disk, so 1 -/+ omega is a dense series; the shear divides by the
    # polynomial 2 - z -/+ z instead
    phi = catalog_lookup("hslits_wide").h
    omega = parse_formula("z/(2-z)")
    for shear, sign in ((shear_real, -1), (shear_imag, 1)):
        fm = shear(phi, omega, 40)
        assert dilatation_check(fm)
        assert fm.h_series + fm.g_series.scale(sign) == phi.series(40)
        h, g = shear_series_reference(phi.series(40).coeffs, omega.series(39).coeffs, sign)
        assert (list(fm.h_series.coeffs), list(fm.g_series.coeffs)) == (h, g)


_SOURCES = sorted({catalog_lookup(eid).recipe.source_id for eid in catalog_ids()
                   if catalog_lookup(eid).recipe is not None})
_GAUSS_INTS = st.builds(GaussRational, st.integers(-3, 3), st.integers(-3, 3))


@settings(max_examples=60, deadline=None)
@given(source=st.sampled_from(_SOURCES), n=st.integers(1, 40), real=st.booleans(),
       nums=st.lists(st.lists(_GAUSS_INTS, min_size=1, max_size=3), min_size=1, max_size=2),
       dens=st.lists(st.tuples(st.integers(9, 16), _GAUSS_INTS, _GAUSS_INTS),
                     min_size=2, max_size=2))
def test_shear_matches_long_division_on_series(source, n, real, nums, dens):
    # omega = sum of z P_j/Q_j, Q_j = d0 + d1 z + d2 z^2 with |d1| + |d2| < d0
    # (zero-free on the closed disk), one or two terms so that omega's P/Q
    # is unreduced at times; those |omega| < 1 proves are sheared, and h and
    # g are the long division of source' by the series 1 + s omega
    omega = AnalyticExpr.zero()
    for p, q in zip(nums, dens):
        omega = omega + AnalyticExpr.rational(1, Poly([0, *p]), Poly(q))
    if not shear_mod._omega_bounded(omega)[0]:
        return
    phi = catalog_lookup(source).h
    sign = -1 if real else 1
    fm = (shear_real if real else shear_imag)(phi, omega, n)
    h, g = shear_series_reference(phi.series(n).coeffs,
                                  omega.series(max(n - 1, 0)).coeffs, sign)
    assert (list(fm.h_series.coeffs), list(fm.g_series.coeffs)) == (h, g)


def test_expansion_cost_grows_linearly(monkeypatch):
    # Counts the coefficient pairs the kernel multiplies, not time: doubling
    # the order should about double the work (an O(N^2) path would about
    # quadruple it).  Every product and quotient, of series and of
    # polynomials, multiplies in numkernel._convolve (pairs of a term (k, x)
    # with k <= m and a nonzero seq[m - k]), but for a product by 1, 0 or
    # z^k, which ``Poly`` and ``coeff_product`` return without multiplying.
    counted = {"n": 0}
    convolve = numkernel._convolve

    def counting_convolve(terms, seq, n, heads=None, inv=None):
        out = convolve(terms, seq, n, heads, inv)
        ys = out if seq is None else seq
        counted["n"] += sum(1 for m in range(n + 1) for k, _ in terms
                            if k <= m and ys[m - k])
        return out

    monkeypatch.setattr(numkernel, "_convolve", counting_convolve)

    def products(run):
        counted["n"] = 0
        run()
        return counted["n"]

    # fresh expressions each run, so no series cache is warm; the shear
    # source is hslits_wide's conformal map.  Every denominator here has
    # constant term 1, so division spends no products on 1/d_0.  The
    # shear's exact |omega| < 1 proof of its fresh omega runs on plain
    # integers (``realalg``) and multiplies nothing here.  A shear by the
    # dense omega = z/(2 - z) divides by the polynomial Q + s P = 2 - 2z;
    # a division by the dense series 1 - omega would grow as N^2.
    def shear(omega):
        return lambda n: shear_real(parse_formula("z/(1-z+z^2)"), parse_formula(omega), n)

    for run, pinned in ((lambda n: parse_any("z/(1-z)^2").series(n), (259, 515)),
                        (shear("z"), (298, 596)), (shear("z/(2-z)"), (469, 937))):
        small, large = products(lambda: run(128)), products(lambda: run(256))
        assert (small, large) == pinned
        assert large / small < 2.5, (small, large)


def test_expansion_builds_no_fraction(monkeypatch):
    # GaussRational is an integer triple (a + b i)/d, so once the text is
    # parsed, series expansion and the shear run on integers alone: no
    # Fraction is built (each Fraction operation would build one).
    counted = {"n": 0}
    plain = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        counted["n"] += 1
        return plain(cls, *args, **kwargs)

    expr = parse_any("z/(1-z)^2")
    source, omega = parse_formula("z/(1-z+z^2)"), parse_formula("z")
    monkeypatch.setattr(Fraction, "__new__", counting_new)
    assert Fraction(1, 2).denominator == 2 and counted["n"] == 1  # it counts
    counted["n"] = 0
    series = expr.series(128)
    fm = shear_real(source, omega, 128)
    assert counted["n"] == 0, counted["n"]
    monkeypatch.undo()
    assert series.coeff(128) == 128
    assert fm.h_series.order == 128 and dilatation_check(fm)


def test_shear_reflection_symmetry():
    # -F(-z) is the shear of -phi(-z) with dilatation omega(-z): the
    # reflection flips the source but only reflects the argument of omega;
    # the catalog's "_r" entries are the -phi(-z) of their pairs
    z_sq = parse_formula("z^2")
    for a, b in (("halfplane", "halfplane_r"), ("koebe", "koebe_r")):
        phi, phi_reflected = catalog_lookup(a).h, catalog_lookup(b).h
        for omega, omega_reflected in ((Z_EXPR, NEG_Z), (z_sq, z_sq)):
            fm = shear_real(phi, omega, 24)
            fm_reflected = shear_real(phi_reflected, omega_reflected, 24)
            assert fm_reflected.h_series == -Series(compose_linear(fm.h_series.coeffs, -1))
            assert fm_reflected.g_series == -Series(compose_linear(fm.g_series.coeffs, -1))


def test_closed_form_cross_check_log_cases():
    # hand-integrated closed forms match series integration exactly
    for eid in ("f1_cv1", "f2_cv1", "f4_cv1", "f18_cv1", "f19_cv1",
                "f21_cv1", "f22_cv1", "f23_cv1", "f24_cv1",
                "f28_cv1", "f29_cv1", "f7_cv1", "f8_cv1",
                "f3_cvi", "f9_cvi", "f11_cvi", "f15_cvi", "f17_cvi"):
        entry = catalog_lookup(eid)
        assert entry.h is not None
        fm = entry.harmonic_map(48)      # raises SeriesMismatch on disagreement
        assert fm.h_expr is not None


def test_closed_form_disagreeing_with_its_series_raises():
    # z^5/7 added to f4_cv1's h and g keeps h - g = phi, but neither closed
    # form is the series it is attached to any more
    fm = catalog_lookup("f4_cv1").harmonic_map(48)
    extra = parse_expr_text("rat(1/7; 0,0,0,0,0,1; 1)")
    same = fm.replace()
    assert same is not fm
    assert all(getattr(same, name) == getattr(fm, name) for name in HarmonicMap.__slots__)
    with pytest.raises(SeriesMismatch, match="for h"):
        fm.replace(h_expr=fm.h_expr + extra, g_expr=fm.g_expr + extra)
    with pytest.raises(SeriesMismatch, match="for g"):
        fm.replace(g_expr=fm.g_expr + extra)


def test_replacing_a_series_drops_the_source():
    # f3_cv1's closed forms are its shear's for every n, so with its source
    # kept they would be proved by the identity and never read the series
    # put in; without it they are compared with f4_cv1's series and fail
    fm, other = (catalog_lookup(eid).harmonic_map(8) for eid in ("f3_cv1", "f4_cv1"))
    assert fm.h_expr.series(8) != other.h_series
    with pytest.raises(SeriesMismatch, match="disagrees with its series"):
        fm.replace(h_series=other.h_series, g_series=other.g_series)
    with pytest.raises(SeriesMismatch, match="for g"):
        fm.replace(g_series=other.g_series)
    assert fm.replace(h_series=fm.h_series).source is None
    assert fm.replace(h_series=fm.h_series, source=fm.source).source is fm.source
    assert fm.replace(omega=fm.omega).source is fm.source


_CLOSED_SHEARS = [eid for eid in catalog_ids()
                  if catalog_lookup(eid).recipe is not None
                  and catalog_lookup(eid).h is not None]
_CATALOG_DENS = sorted({t.den for eid in _CLOSED_SHEARS
                        for e in (catalog_lookup(eid).h, catalog_lookup(eid).g)
                        for t in e.terms if isinstance(t, RationalTerm)}, key=repr)


def _fresh_shear(eid: str, order: int) -> HarmonicMap:
    entry = catalog_lookup(eid)
    shear = shear_real if entry.recipe.axis == "real" else shear_imag
    return shear(catalog_lookup(entry.recipe.source_id).h, entry.omega, order)


def _check_orders(monkeypatch, build) -> list:
    """The orders at which build() expands each closed form it checks."""
    seen, series = [], AnalyticExpr.series

    def recording(self, order):
        seen.append(order)
        return series(self, order)

    with monkeypatch.context() as m:
        m.setattr(AnalyticExpr, "series", recording)
        try:
            build()
        except SeriesMismatch:
            pass
    return seen


def test_closed_form_shears_are_proved_below_every_built_order():
    # the identity proves each closed form for every n at whatever order
    # its map is built, order 1 included: each then equals a fresh shear's
    # series far past that order
    assert len(_CLOSED_SHEARS) == 48
    for eid in _CLOSED_SHEARS:
        fm = catalog_lookup(eid).harmonic_map(1)
        deep = _fresh_shear(eid, 256)
        assert fm.h_expr.series(256) == deep.h_series, eid
        assert fm.g_expr.series(256) == deep.g_series, eid


def test_a_map_with_a_source_expands_no_closed_form(monkeypatch):
    # a closed form of a map with a source is proved by the shear's
    # identity, with no series; a proof shear's g is s (source - h) term
    # for term, so it is proved with h, and only the 8 hand-typed g of T4
    # and T6 run their own identity
    own_g = [eid for eid in _CLOSED_SHEARS if catalog_lookup(eid).family in ("T4", "T6")]
    assert len(own_g) == 8
    proved, identity = [], shear_mod._identity

    def spy(expr, *args):
        proved.append(expr)
        return identity(expr, *args)

    monkeypatch.setattr(shear_mod, "_identity", spy)
    for n in (4, 64):
        for eid in _CLOSED_SHEARS:
            fm = catalog_lookup(eid).harmonic_map(n)
            proved.clear()
            assert _check_orders(monkeypatch, fm.replace) == []
            assert proved == ([fm.h_expr, fm.g_expr] if eid in own_g else [fm.h_expr]), eid
    # no source: conformal and hand-built maps compare at their order
    koebe = catalog_lookup("koebe").harmonic_map(64)
    assert _check_orders(monkeypatch, koebe.replace) == [64, 64]
    assert _check_orders(monkeypatch, lambda: HarmonicMap(
        Series([0, 1], order=8), Series.zero(8), AnalyticExpr.zero(),
        h_expr=Z_EXPR, g_expr=AnalyticExpr.zero())) == [8, 8]
    # omega with a log term is refused, by the shear and by the map
    log_omega = parse_expr_text("log(1/8; 1,1)")
    with pytest.raises(InvalidExpression, match="omega must be rational"):
        shear_real(Z_EXPR, log_omega, 12)
    fm = shear_real(Z_EXPR, Z_EXPR, 12)
    with pytest.raises(InvalidExpression, match="omega must be rational"):
        fm.replace(omega=log_omega)


def test_a_perturbed_closed_form_fails_at_every_order():
    # a wrong term c z^k/Q in h, or in h and g, is refused at every order N
    # the map is built at, also for k past N and for k = 40, past every
    # coefficient any check at these orders could read: the identity holds
    # for every n or not at all.  k = 0 breaks h(0) = 0 alone.
    cs = (F(1, 7), F(-1, 7), GaussRational(0, F(1, 3)), GaussRational(0, F(-1, 3)))
    for i, eid in enumerate(_CLOSED_SHEARS):
        for n in (1, 4, 16):
            fm = catalog_lookup(eid).harmonic_map(n)
            for j, k in enumerate((0, n + 1, 40)):
                extra = AnalyticExpr.rational(cs[(i + j) % 4], Poly([0] * k + [1]),
                                              _CATALOG_DENS[(i + n + j) % len(_CATALOG_DENS)])
                g = fm.g_expr + extra if (i + j) % 2 else fm.g_expr
                with pytest.raises(SeriesMismatch):
                    fm.replace(h_expr=fm.h_expr + extra, g_expr=g)


# -- preconditions and errors ----------------------------------------------------

def test_not_normalized_rejected():
    with pytest.raises(NotNormalized):
        shear_real(parse_formula("2z"), Z_EXPR, 8)
    with pytest.raises(NotNormalized):
        shear_real(parse_formula("z"), parse_formula("1/2+z/2"), 8)


def test_dilatation_too_large_rejected():
    with pytest.raises(DilatationTooLarge):
        shear_real(parse_formula("z"), parse_formula("z(1+z)"), 8)
    # |omega| > 1 only for |z| > 0.9999, beyond any float grid to 0.999
    with pytest.raises(DilatationTooLarge):
        shear_real(parse_formula("z"), parse_formula("10001z/10000"), 8)


@settings(max_examples=80, deadline=None)
@given(num=st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=1, max_size=3),
       pole=st.tuples(st.integers(-9, 9), st.integers(-9, 9)), scale=st.integers(1, 6))
def test_omega_verdict_agrees_with_a_float_sample(num, pole, scale):
    # omega = z P(z)/(scale (1 - q z)) with |q| <= 0.9: the exact verdict
    # is the sampled peak of |omega| on |z| = 0.9999 against 1, wherever
    # that peak is 1e-3 or more away from 1, and a no comes with its point
    # z1: |z1| < 1 and |omega(z1)| > 1, exactly
    q = GaussRational(F(pole[0], 10), F(pole[1], 10))
    if q.abs2() > F(81, 100):
        return
    p = Poly([0] + [GaussRational(F(a, 4), F(b, 4)) for a, b in num])
    omega = AnalyticExpr.rational(F(1, scale), p, Poly([1, -q]))
    zs = 0.9999 * np.exp(2j * np.pi * np.arange(4096) / 4096)
    peak = float(np.max(np.abs(omega.eval(zs))))
    if abs(peak - 1) < 1e-3:
        return
    bounded, z1 = shear_mod._omega_bounded(omega)
    assert bounded == (peak < 1), peak
    if not bounded:
        w = omega.rational_part()
        assert z1.abs2() < 1
        assert peval(w.num.coeffs, z1).abs2() > peval(w.den.coeffs, z1).abs2()


# -- evaluation -------------------------------------------------------------------

def test_eval_identity_map():
    fm = HarmonicMap(Series([0, 1], order=8), Series.zero(8), AnalyticExpr.zero(),
                     h_expr=Z_EXPR, g_expr=AnalyticExpr.zero())
    assert fm.eval(0.3 + 0.4j) == pytest.approx(0.3 + 0.4j)


def test_eval_conj_square_fold():
    fm = catalog_lookup("t4_conj_sq_plus").harmonic_map(8)
    assert fm.eval(1j) == pytest.approx(-0.5 + 1j)


def test_eval_f3_real_part_matches_closed_form():
    fm = catalog_lookup("f3_cv1").harmonic_map(32)
    z = 0.5 * complex(0.6, 0.8)
    koebe = z / (1 - z) ** 2
    assert abs(fm.eval(z).real - koebe.real) < 1e-10


def test_no_closed_form_raises_instead_of_using_the_series():
    fm = catalog_lookup("f7_cvi").harmonic_map(32)
    assert fm.h_expr is None
    z = np.array([0.5, 0.85j])
    for value in (fm.eval, fm.eval_masked, fm.curvature_term):
        with pytest.raises(NoClosedForm):
            value(z)
    # h' and g' follow the shear recipe: h' = psi'/(1 + omega) for omega = z
    source = catalog_lookup(catalog_lookup("f7_cvi").recipe.source_id).h
    want = source.derivative().eval(z) / (1 + z)
    assert np.allclose(fm.h_prime(z), want, rtol=1e-13)
    assert np.allclose(fm.g_prime(z), z * want, rtol=1e-13)
    bare = HarmonicMap(Series([0, 1], order=4), Series.zero(4), parse_formula("z"))
    with pytest.raises(NoClosedForm):
        bare.h_prime(z)


_SUM_MAPS = {eid: catalog_lookup(eid).harmonic_map(16)
             for eid in ("f9_cv1", "f4_cv1", "f18_cvi", "koebe", "vslits",
                         "t4_conj_sq_plus")}


def _sum_map_points(poles: np.ndarray, max_size: int = 40):
    """Point arrays for a map with these poles: points of the disk, NaN,
    and points within 3 EPS_POLE of a pole."""
    points = [st.builds(lambda r, t: r * cmath.exp(1j * t),
                        st.floats(0, 0.999), st.floats(0, 2 * math.pi)),
              st.just(complex(math.nan, 0))]
    if poles.size:
        points.append(st.builds(lambda p, d: complex(p) + d, st.sampled_from(list(poles)),
                                st.complex_numbers(max_magnitude=3 * EPS_POLE)))
    return st.lists(st.one_of(points), min_size=1, max_size=max_size).map(
        lambda zs: np.array(zs, dtype=complex))


def _masked_apart(e, zs):
    """(values, ok) of e alone at zs, NaN within EPS_POLE of its poles."""
    near = pole_mask_bruteforce(zs, e.pole_points, EPS_POLE)
    vals = e.eval(np.where(near, 0, zs), check=False)
    vals[near] = np.nan
    return vals, np.isfinite(vals)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), eid=st.sampled_from(sorted(_SUM_MAPS)))
def test_eval_masked_equals_h_plus_conj_g_at_unmasked_points(data, eid):
    # one pole mask and shared term values give, bit for bit, the sum of
    # h and g evaluated apart; eval takes the same route
    fm = _SUM_MAPS[eid]
    poles = np.concatenate([fm.h_expr.pole_points, fm.g_expr.pole_points])
    zs = data.draw(_sum_map_points(poles))
    with np.errstate(all="ignore"):
        vals, ok = fm.eval_masked(zs)
        hv, ok_h = _masked_apart(fm.h_expr, zs)
        gv, ok_g = _masked_apart(fm.g_expr, zs)
        want = hv + np.conjugate(gv)
    assert np.array_equal(ok, ok_h & ok_g & np.isfinite(want))
    assert vals[ok].tobytes() == want[ok].tobytes()
    assert fm.eval(zs[ok]).tobytes() == want[ok].tobytes()
    if pole_mask_bruteforce(zs, poles, EPS_POLE).any():
        with np.errstate(all="ignore"), pytest.raises(NearPole):
            fm.eval(zs)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), eid=st.sampled_from(sorted(_SUM_MAPS)))
def test_eval_masked_of_a_concatenation_is_the_concatenation(data, eid):
    # a render evaluates all its curves in one batch: each value and mask bit
    # must not depend on the other points of the batch or where it sits in it
    fm = _SUM_MAPS[eid]
    poles = np.concatenate([fm.h_expr.pole_points, fm.g_expr.pole_points])
    parts = data.draw(st.lists(_sum_map_points(poles, max_size=24), min_size=2, max_size=3))
    with np.errstate(all="ignore"):
        vals, ok = fm.eval_masked(np.concatenate(parts))
        apart = [fm.eval_masked(zs) for zs in parts]
    want_vals = np.concatenate([v for v, _ in apart])
    want_ok = np.concatenate([k for _, k in apart])
    assert np.array_equal(ok, want_ok)
    assert vals[ok].tobytes() == want_vals[ok].tobytes()


def test_dilatation_check_counterexample():
    bad = HarmonicMap(Series([0, 1], order=3),
                      Series([0, 0, 0, F(1, 3)], order=3),
                      parse_formula("z"))
    assert not dilatation_check(bad)
    good = HarmonicMap(Series([0, 1], order=2),
                       Series([0, 0, F(1, 2)], order=2),
                       parse_formula("z"))
    assert dilatation_check(good)


def test_dilatation_check_decides_past_the_series():
    # f3's closed forms satisfy g' = z h' for every n.  An omega that is z
    # plus a term past the map's order agrees with every coefficient its
    # series hold.  With its source kept, the map refuses that omega: its
    # closed forms are not that shear's.  Without the source the closed
    # forms refute it, and without them the series can only answer to
    # their order
    fm = catalog_lookup("t4_re_koebe_im_halfplane").harmonic_map(8)
    off = Z_EXPR + AnalyticExpr.rational(F(1, 7), Poly([0] * 10 + [1]))
    assert dilatation_check(fm.replace(omega=Z_EXPR))
    with pytest.raises(SeriesMismatch):
        fm.replace(omega=off)
    assert not dilatation_check(fm.replace(omega=off, source=None))
    assert dilatation_check(fm.replace(omega=off, source=None, h_expr=None, g_expr=None))


def test_dilatation_check_of_a_dense_omega_takes_products_by_polynomials():
    # omega = z/(2 - z) is dense; the series side compares g' (2 - z) with
    # z h', O(N * deg), where a product by omega's series is O(N^2) with
    # growing coefficients
    fm = shear_real(catalog_lookup("hslits_wide").h, parse_formula("z/(2-z)"), 512)
    start = time.perf_counter()
    assert dilatation_check(fm)
    assert time.perf_counter() - start < 0.5


def test_omega_is_sampled_once_per_object():
    # |omega| < 1 is decided exactly, once per omega object
    shear_mod._omega_bounded.cache_clear()
    phi = catalog_lookup("koebe").h
    for order in (4, 8, 16):
        shear_real(phi, Z_EXPR, order)
        shear_imag(phi, NEG_Z, order)
    assert shear_mod._omega_bounded.cache_info().misses == 2


def test_conformal_maps_share_one_zero_expression():
    # g and omega of every conformal map are one object, expanded once per
    # order, and the catalog's conformal entries hold the same g
    zero = AnalyticExpr.zero()
    a = HarmonicMap.conformal(parse_formula("z"), 8)
    b = HarmonicMap.conformal(parse_formula("z/(1-z)"), 16)
    assert a.g_expr is b.g_expr is a.omega is b.omega is zero
    assert catalog_lookup("koebe").g is zero
    assert zero.series(8) is zero.series(8) == Series.zero(8)
