"""Closed-form expressions: evaluation, derivative, series."""

import cmath
import json
import math
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import harmonic_atlas
from harmonic_atlas import analytic, realalg
from harmonic_atlas import (
    AnalyticExpr, GaussRational, InvalidExpression, NearPole, Poly,
    PoleAtOrigin, Series, catalog_build, catalog_ids, catalog_lookup, default_grid,
    parse_any,
)
from harmonic_atlas.analytic import (
    EPS_POLE, LogTerm, RationalTerm, RatFunc, _poly_roots, near_pole,
)
from harmonic_atlas.shear import _BLOCK, HarmonicMap
from harmonic_atlas.verify import VerifyConfig
from oracles import long_division_series, pole_mask_bruteforce, quotient_rule

F = Fraction


def P(*cs):
    return Poly(cs)


Z = P(0, 1)
KOEBE = AnalyticExpr.rational(1, Z, P(1, -2, 1))
HSLITS = AnalyticExpr.rational(1, Z, P(1, 0, 1))           # z/(1+z^2)
HSLITS_WIDE = AnalyticExpr.rational(1, Z, P(1, -1, 1))     # z/(1-z+z^2)
Z_EXPR = AnalyticExpr.rational(1, Z)


def eval_masked(e, zs):
    """(values, ok) at zs, masked near e's poles, of the harmonic map
    z + conj(e - e(0)): h = z has no pole, so the mask is e's alone."""
    g = e + AnalyticExpr.rational(-e.series(0).coeff(0), P(1))
    fm = HarmonicMap(Z_EXPR.series(1), g.series(1), AnalyticExpr.zero(),
                     h_expr=Z_EXPR, g_expr=g)
    return fm.eval_masked(zs)


# -- construction invariants -------------------------------------------------

def test_denominator_root_inside_disk_rejected():
    with pytest.raises(InvalidExpression):
        AnalyticExpr.rational(1, Z, P(1, -2))  # pole at 1/2


TINY = F(1, 10**30)


@pytest.mark.parametrize("den", [
    P(1, F(-20001, 20000)),          # pole at 20000/20001, within 1e-4 of the circle
    P(1, -1 / (1 - TINY)),           # pole at 1 - 1e-30, a float 1.0
    P(1, -1 / (1 - TINY)) * P(1, 0, 4),  # and two more, at +-i/2
])
def test_root_near_the_circle_inside_rejected_by_the_exact_count(den):
    assert realalg.disk_zero_count(den.coeffs) == 1 + 2 * (den.degree == 3)
    with pytest.raises(InvalidExpression, match="vanishes inside the unit disk"):
        AnalyticExpr.rational(1, Z, den)
    with pytest.raises(InvalidExpression, match="vanishes inside the unit disk"):
        AnalyticExpr.log(1, den)


@pytest.mark.parametrize("den", [
    P(1, F(-20000, 20001)),          # pole at 1.00005, within 1e-4 of the circle
    P(1, -1 + TINY),                 # pole at 1 + 1e-30
])
def test_root_near_the_circle_outside_accepted_by_the_exact_count(den):
    assert realalg.disk_zero_count(den.coeffs) == 0
    AnalyticExpr.rational(1, Z, den)


def test_unpaired_gamma_0_count_rejects_its_root_inside():
    # every catalog denominator and log argument has its roots on the
    # circle, and is counted exactly: 0.  A pole inside beside a root on
    # the circle is refused, and so is one in (1 - z/r)(1 - z/s) with |r
    # s| = 1 and no pair, where a Schur-Cohn recursion is singular: its
    # root r = 0.99995 is counted exactly
    for p in {t[-1] for e in catalog_build() for part in (e.h, e.g)
              if part is not None for t in part.terms}:
        if p.degree > 0:
            assert realalg.disk_zero_count(p.coeffs) == 0, p
    near = P(1, -1) * P(1, F(-20001, 20000))
    assert realalg.disk_zero_count(near.coeffs) == 1
    with pytest.raises(InvalidExpression, match="vanishes inside the unit disk"):
        AnalyticExpr.rational(1, Z, near)
    with pytest.raises(InvalidExpression):
        AnalyticExpr.rational(1, Z, P(1, -1) * P(1, -2))
    unpaired = P(1, F(-20001, 20000)) * P(1, GaussRational(0, F(20000, 20001)))
    assert realalg.disk_zero_count(unpaired.coeffs) == 1
    with pytest.raises(InvalidExpression, match="vanishes inside the unit disk"):
        AnalyticExpr.rational(1, Z, unpaired)


def test_validating_a_rational_expression_takes_no_float_step(refuse_numpy):
    # the disk test is exact: with numpy gone from analytic, rational
    # terms are still accepted or refused
    refuse_numpy(analytic)
    analytic._vanishes_in_disk.cache_clear()
    analytic._squarefree.cache_clear()
    for den in (P(1, F(-1, 3)), P(1, -1) * P(1, 1, 1), P(1, F(-20000, 20001))):
        AnalyticExpr.rational(1, Z, den)
    unpaired = P(1, F(-20001, 20000)) * P(1, GaussRational(0, F(20000, 20001)))
    for den in (P(1, -2), unpaired):
        with pytest.raises(InvalidExpression, match="vanishes inside the unit disk"):
            AnalyticExpr.rational(1, Z, den)


def test_disk_test_runs_once_per_polynomial(monkeypatch):
    counted = Counter()
    plain = analytic.disk_zero_count

    def counting(cs):
        counted[cs] += 1
        return plain(cs)

    monkeypatch.setattr(analytic, "disk_zero_count", counting)
    analytic._vanishes_in_disk.cache_clear()
    # one count per squarefree factor, made monic, of each polynomial
    den = P(1, F(-20000, 20001)) * P(1, F(-20000, 20001))
    factor = P(F(-20001, 20000), 1).coeffs
    for _ in range(3):
        AnalyticExpr.rational(1, Z, den)
        AnalyticExpr.rational(2, Z * Z, den)
    assert counted == Counter({factor: 1})
    for _ in range(2):
        AnalyticExpr.rational(1, Z, P(1, F(-1, 3)))  # root 3: counted exactly, once
    assert counted == Counter({factor: 1, P(-3, 1).coeffs: 1})


def test_pole_at_origin_rejected_unless_cancelled():
    with pytest.raises(PoleAtOrigin):
        AnalyticExpr.rational(1, P(1), Z)
    # z^2 / z normalizes to z
    e = AnalyticExpr.rational(1, P(0, 0, 1), Z)
    assert e.series(4) == Series([0, 1], order=4)


def test_log_argument_crossing_the_branch_cut_rejected():
    # (1+z)^3 = -1/8 at z = e^{i pi/3}/2 - 1, |z| = 0.87: the sampled circles
    # cross (-inf, 0] between two neighbouring samples, none of them on it
    with pytest.raises(InvalidExpression):
        AnalyticExpr.log(1, P(1, 3, 3, 1))


@pytest.mark.parametrize("a", [GaussRational(1), GaussRational(F(3, 5), F(4, 5))])
def test_log_argument_near_but_off_the_branch_cut_accepted(a):
    # (1 + a z)^2 with |a| = 1 has argument in (-pi, pi) on the open disk
    # and passes within 1e-6 of 0 near z = -1/a, for a = (3+4i)/5 between
    # two sampled angles: no false positive, and log((1+az)^2) = 2 log(1+az)
    e = AnalyticExpr.log(1, P(1, 2 * a, a * a))
    assert e.series(12) == AnalyticExpr.log(2, P(1, a)).series(12)


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


def test_eval_near_pole_raises():
    with pytest.raises(NearPole):
        KOEBE.eval(1.0 - 1e-9)


# the root of a monic linear factor, so its pole 10**12 + 3000332175 i is
# exact; chosen so that np.abs rounds |q| and |z| apart at z = q - 4.8e-7 i
FAR_POLE = AnalyticExpr.rational(1, Z, P(1, -1 / GaussRational(10**12, 3000332175)))
NEAR_POLE_EXPRS = [KOEBE, HSLITS, HSLITS_WIDE,
                   AnalyticExpr.log(1, P(1, -1)) + HSLITS,
                   # a 5-fold pole at z = 1, its point repeated 5 times
                   catalog_lookup("f9_cv1").h.derivative().derivative(),
                   # a pole at 1e12 + 3.0003e9 i, where neighbouring values of
                   # |z| lie 1.2e-4 apart
                   FAR_POLE]
_SHAPES = {"scalar": lambda zs: zs[0], "0-d": lambda zs: np.array(zs[0]),
           "1-d": np.array, "2-d": lambda zs: np.array(zs).reshape(2, -1),
           "empty": lambda zs: np.array(zs[:0], dtype=complex)}


@settings(max_examples=300, deadline=None)
@given(data=st.data(), e=st.sampled_from(NEAR_POLE_EXPRS),
       shape=st.sampled_from(sorted(_SHAPES)))
def test_eval_raises_near_pole_exactly_within_eps(data, e, shape):
    # the radius-screened test gives the mask and the NearPole decision of
    # testing every pole, NaN and infinite points included
    near = st.builds(lambda p, d: complex(p) + d,
                     st.sampled_from(list(e.pole_points)),
                     st.complex_numbers(max_magnitude=3 * EPS_POLE))
    inside = st.builds(lambda r, t: r * cmath.exp(1j * t),
                       st.floats(0, 0.999), st.floats(0, 2 * math.pi))
    point = st.one_of(near, inside, st.complex_numbers(max_magnitude=0.9),
                      st.sampled_from([complex(math.nan, 0), complex(0, math.nan),
                                       complex(math.inf, 0), complex(-math.inf, 1),
                                       complex(0, -math.inf)]))
    size = data.draw(st.sampled_from([2, 4, 6]) if shape == "2-d"
                     else st.integers(1, 6 if shape in ("1-d", "empty") else 1))
    zs = data.draw(st.lists(point, min_size=size, max_size=size))
    z = _SHAPES[shape](zs)
    want = pole_mask_bruteforce(z, e.pole_points, EPS_POLE)
    got = near_pole(z, e.pole_points)
    assert got.shape == np.shape(z) and np.array_equal(got, want)
    with np.errstate(all="ignore"):  # NaN and infinite points evaluate to NaN
        if want.any():
            with pytest.raises(NearPole):
                e.eval(z)
        else:
            e.eval(z)
        vals, ok = eval_masked(e, z)
    assert np.array_equal(ok, ~want & np.isfinite(vals))


def test_scalar_eval_where_the_denominator_cancels_to_zero():
    # 1.65e-6 from f9_cv1's 5-fold pole at z = 1, beyond EPS_POLE, the
    # expanded denominator evaluates to exactly 0 in Python's complex floats:
    # the scalar point gives numpy's non-finite quotient, where it raised
    # ZeroDivisionError
    e = NEAR_POLE_EXPRS[4]
    z = 0.9999990619561969 + 1.3726142541510247e-06j
    assert abs(z - 1) > EPS_POLE and e.terms[0].den(z) == 0
    with np.errstate(all="ignore"):
        assert not np.isfinite(e.eval(z))


def test_pole_screen_allows_for_the_rounding_of_far_poles():
    # z lies 5e-7 from the pole q, but np.abs rounds |q| and |z| 2.4e-4
    # apart: a screen with a fixed 2 EPS_POLE slack would skip q
    (q,) = FAR_POLE.pole_points
    z = np.complex128(complex(q.real, np.nextafter(q.imag, 0)))
    assert np.abs(z - q) < EPS_POLE and np.abs(q) - np.abs(z) > 2 * EPS_POLE
    assert near_pole(np.array([z, 0.5]), FAR_POLE.pole_points).tolist() == [True, False]
    with pytest.raises(NearPole):
        FAR_POLE.eval(z)


def test_eval_masked_never_reports_a_non_finite_value():
    # z = 1, f9_cv1's triple pole, evaluates to inf+nanj; masked, it must not
    # be reported ok (when np.roots of the cube scattered its roots by about
    # 1e-5, only its value masked it)
    fm = catalog_lookup("f9_cv1").harmonic_map(8)
    z = np.array([1.0, 0.5])
    with np.errstate(all="ignore"):
        for vals, ok in (eval_masked(fm.h_expr, z), fm.eval_masked(z)):
            assert ok.tolist() == [False, True]
            assert not np.isfinite(vals[0]) and np.isfinite(vals[1])


def test_eval_masked_masks_points_near_a_triple_pole():
    # z = 1 + 5e-7 i lies within EPS_POLE of f9_cv1's triple pole z = 1;
    # np.roots of the cube scattered the pole by about 1e-5, and the point
    # was reported ok with a value of about -5.3e18 i
    fm = catalog_lookup("f9_cv1").harmonic_map(32)
    vals, ok = fm.eval_masked(np.array([1 + 5e-7j, 0.5]))
    assert ok.tolist() == [False, True]
    assert np.isnan(vals[0])


# f4_cv1: two logs in h and g and a pole at z = 1 shared with a log argument
_BLOCKED_MAPS = [catalog_lookup(eid).harmonic_map(16) for eid in ("f4_cv1", "koebe")]


@settings(max_examples=40, deadline=None)
@given(data=st.data(), fm=st.sampled_from(_BLOCKED_MAPS),
       size=st.sampled_from([0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7]))
def test_eval_masked_blocks_equal_one_call(data, fm, size):
    # each value depends only on its own point, so h and g on blocks of
    # _BLOCK points give, bit for bit, what one call on all the points
    # gives; the blocks are consecutive, in order, and the caller's log
    # memo is read and filled only while no point near a pole was replaced
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    zs = 0.999 * np.sqrt(rng.random(size)) * np.exp(2j * np.pi * rng.random(size))
    specials = [complex(math.nan, 0), complex(0, math.nan), 1 + 5e-7j, 1 - 3e-7, 0j]
    for _ in range(data.draw(st.integers(0, 3)) if size else 0):
        zs[data.draw(st.integers(0, size - 1))] = data.draw(st.sampled_from(specials))
    h, g = fm.h_expr, fm.g_expr
    near = pole_mask_bruteforce(zs, np.concatenate([h.pole_points, g.pole_points]),
                                EPS_POLE)
    args = {t.arg for t in h.terms + g.terms if isinstance(t, LogTerm)}
    sizes, plain_eval = [], AnalyticExpr.eval

    def counting_eval(self, z, *a, **k):
        sizes.append(np.size(z))
        return plain_eval(self, z, *a, **k)

    logs = {}
    AnalyticExpr.eval = counting_eval
    try:
        with np.errstate(all="ignore"):
            vals, ok = fm.eval_masked(zs, logs)
    finally:
        AnalyticExpr.eval = plain_eval
    with np.errstate(all="ignore"):
        w = np.where(near, 0, zs)
        want = h.eval(w, check=False) + np.conjugate(g.eval(w, check=False))
    want[near] = np.nan
    assert vals.tobytes() == want.tobytes()
    assert np.array_equal(ok, np.isfinite(want))
    assert sizes == [min(_BLOCK, size - a) for a in range(0, size, _BLOCK) for _ in "hg"]
    assert set(logs) == (set() if near.any() else args)
    with np.errstate(all="ignore"):
        for arg, values in logs.items():
            assert not values.flags.writeable
            assert values.tobytes() == np.log(arg(zs)).tobytes()


def test_eval_masked_reads_the_log_memo_only_without_a_masked_point(monkeypatch):
    # a memo of wrong values shows where it is read: at points clear of the
    # poles every log comes from it, and with one point near z = 1 (a pole
    # of f4_cv1 and the root of a log argument) none does
    fm = _BLOCKED_MAPS[0]
    zs = np.array([0.5, -0.25j, 0.3 + 0.4j])
    want, _ = fm.eval_masked(zs)
    logs = {}
    fm.eval_masked(zs, logs)
    assert len(logs) == 2
    wrong = {arg: np.zeros(zs.size, dtype=complex) for arg in logs}
    calls, plain_log = [], np.log
    monkeypatch.setattr(np, "log", lambda x: calls.append(x) or plain_log(x))
    assert fm.eval_masked(zs, logs)[0].tobytes() == want.tobytes()
    assert calls == []
    assert fm.eval_masked(zs, dict(wrong))[0].tobytes() != want.tobytes()
    near = np.append(zs, 1 + 5e-7j)
    memo = dict(wrong)
    vals, ok = fm.eval_masked(near, memo)
    assert ok.tolist() == [True, True, True, False]
    assert vals[:3].tobytes() == want.tobytes()
    assert memo == wrong and len(calls) == 2


def test_pole_points_hold_a_multiple_pole_once():
    # h'' of f9_cv1 has a fivefold pole at z = 1: near_pole tests it once
    e = catalog_lookup("f9_cv1").h.derivative().derivative()
    (p,) = e.pole_points
    assert abs(p - 1) < 1e-12


# 1 - z, 1 + z, 1 - z^2, 1 + z^2, 1 - z + z^2, 1 + z + z^2: their roots are
# the 1st, 2nd, 3rd, 4th and 6th roots of unity, shared between factors
CIRCLE_FACTORS = [P(1, -1), P(1, 1), P(1, 0, -1), P(1, 0, 1), P(1, -1, 1), P(1, 1, 1)]


@settings(deadline=None)
@given(st.lists(st.integers(0, 4), min_size=len(CIRCLE_FACTORS),
                max_size=len(CIRCLE_FACTORS)))
def test_roots_of_products_of_circle_factors(powers):
    p = P(1)
    for f, m in zip(CIRCLE_FACTORS, powers):
        for _ in range(m):
            p = p * f
    roots = _poly_roots(p)
    assert roots.size == p.degree
    assert np.all(np.abs(np.abs(roots) - 1) < 1e-9)


def test_squarefree_roots_come_from_one_gcd(monkeypatch):
    # gcd(p, p') = 1 ends Yun's factorization: one gcd and no division
    # beyond Euclid's; the roots are those of p made monic, as the full
    # factorization gives
    p = P(1, -1) * P(1, 0, 1) * P(1, 1, 1)
    calls = Counter()
    for name in ("pgcd", "pdivmod"):
        def counting(a, b, name=name, fn=getattr(realalg, name)):
            calls[name] += 1
            return fn(a, b)
        monkeypatch.setattr(realalg, name, counting)
    realalg.pgcd(p.coeffs, p.derivative().coeffs)
    first = Counter(calls)  # Euclid's divisions
    calls.clear()
    analytic._squarefree.cache_clear()
    roots = _poly_roots.__wrapped__(p)
    assert calls == first
    monic = p.scale(GaussRational(1) / p.coeffs[-1])
    assert roots.tobytes() == np.roots([complex(c) for c in reversed(monic.coeffs)]).tobytes()


def test_import_finds_each_root_set_and_branch_cut_once():
    # the catalog's 46 log terms have 4 arguments: importing the package
    # roots each argument once, for its branch cut, and samples the cut
    # once; the disk test of its 13 denominators and log arguments roots
    # none
    script = "\n".join((
        "import harmonic_atlas.cli",
        "from harmonic_atlas import analytic",
        "print(analytic._poly_roots.cache_info().misses,",
        "      analytic._meets_branch_cut.cache_info().misses)",
    ))
    src = str(Path(harmonic_atlas.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.split() == ["4", "4"]


def test_eval_pole_check_builds_no_points_by_poles_array():
    # 1/(1 - z^12) has 12 pole points on the unit circle; the points reach
    # past them (|z| <= 1.2 * 0.999, no point on |z| = 1), so the radius
    # screen keeps all 12.  Testing them one at a time peaks as low as
    # evaluating unchecked (1.05 MB), a points x poles array at 4.7 MB.
    e = parse_any("1/(1-z^12)")
    zs = 1.2 * default_grid().points
    assert e.pole_points.size == 12
    assert not near_pole(zs, e.pole_points).any()
    e.eval(zs)  # coefficient floats cached outside the measurement
    tracemalloc.start()
    try:
        e.eval(zs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6, peak


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


def test_derivative_is_in_lowest_terms():
    # f3's h'' from the quotient rule is 6(1 - z)^4/(1 - z)^8 before the
    # gcd cancels; every catalog closed form's first and second derivative
    # terms are reduced, and their series are still the termwise derivative
    h = catalog_lookup("t4_re_koebe_im_halfplane").h
    (term,) = h.derivative().derivative().terms
    assert term.den == P(1, -4, 6, -4, 1) and term.num.degree == 0
    for eid in catalog_ids():
        entry = catalog_lookup(eid)
        for e in (entry.h, entry.g):
            if e is None:
                continue
            for d in (e.derivative(), e.derivative().derivative()):
                assert all(t.num.gcd(t.den) == Poly.one() for t in d.terms), eid
            assert e.derivative().series(12) == e.series(13).derivative(), eid


def test_poly_divmod_and_gcd_examples():
    q, r = divmod(P(1, 0, 0, 1), P(1, 1))              # 1 + z^3 = (1 + z)(1 - z + z^2)
    assert (q, r) == (P(1, -1, 1), Poly.zero())
    q, r = divmod(P(1, 2, 3), P(0, 2))
    assert (q, r) == (P(1, F(3, 2)), P(1))
    assert divmod(P(5), P(1, 1)) == (Poly.zero(), P(5))
    assert P(2, 2).gcd(P(-3, 0, 3)) == P(1, 1)          # monic: z + 1
    assert P(1, 1).gcd(P(1, -1)) == Poly.one()
    assert Poly.zero().gcd(Poly.zero()) == Poly.zero()
    assert Poly.zero().gcd(P(4, 2)) == P(2, 1)
    with pytest.raises(ZeroDivisionError):
        divmod(P(1, 1), Poly.zero())


gauss_small = st.builds(GaussRational, st.fractions(-5, 5, max_denominator=4),
                        st.fractions(-5, 5, max_denominator=4))
polys = st.lists(gauss_small, max_size=4).map(Poly)


def _monic(p):
    return p.scale(GaussRational(1) / p.coeffs[-1])


@settings(max_examples=200, deadline=None)
@given(polys, polys, polys)
def test_gcd_divides_both_and_leaves_coprime_quotients(p, q, r):
    # a = p q and b = p r share p, so their gcd is a multiple of it
    a, b = p * q, p * r
    g = a.gcd(b)
    if a.is_zero and b.is_zero:
        assert g.is_zero
        return
    assert g.coeffs[-1] == 1                            # monic
    for x in (a, b):
        quot, rem = divmod(x, g)
        assert rem.is_zero and quot * g == x
    assert divmod(a, g)[0].gcd(divmod(b, g)[0]) == Poly.one()
    if not p.is_zero:
        assert divmod(g, _monic(p))[1].is_zero          # greatest
    if not b.is_zero:
        quot, rem = divmod(a, b)
        assert quot * b + rem == a and rem.degree < b.degree


def test_trivial_operands_come_back_as_they_are():
    # Poly is immutable, so a product by 1, a sum with 0, scale(1) and a
    # division by 1 return an operand itself, and a product by 0 the zero
    # polynomial
    p, one, zero = P(1, F(1, 2), GaussRational(0, 3)), Poly.one(), Poly.zero()
    assert p * one is p and one * p is p and p + zero is p and zero + p is p
    quot, rem = divmod(p, one)
    assert quot is p and rem.is_zero
    assert p.scale(1) is p and (p * zero).is_zero and (zero * p).is_zero
    assert p + P(0, F(-1, 2), GaussRational(1, -3)) == P(1, 0, 1)
    assert P(2, 1) + P(-2, -1) == zero and P(1) + p == P(2, F(1, 2), GaussRational(0, 3))
    r = RatFunc(p, P(1, -1))
    assert r.reduced() is r


@settings(max_examples=150, deadline=None)
@given(polys, polys, polys)
def test_reduced_cancels_a_planted_factor_and_keeps_the_lead_of_den(p, q, c):
    # (P C)/(Q C) in lowest terms: num and den coprime, the same function,
    # and den/g for the monic gcd g, so the lead of den stays, as the
    # verify witnesses read it
    if q.is_zero or c.is_zero:
        return
    num, den = p * c, q * c
    r = RatFunc(num, den).reduced()
    assert r.num.gcd(r.den) == Poly.one()
    assert r.num * den == num * r.den
    assert r.den.coeffs[-1] == den.coeffs[-1]


def test_cold_verify_all_makes_no_trivial_products_or_divisions():
    # no Poly product reaches the kernel with the operand 1 or 0, and no
    # division (Poly's, RatFunc.reduced's or realalg.squarefree's) is by
    # the polynomial 1.  A fresh process is cold
    script = "\n".join((
        "from harmonic_atlas import analytic, realalg",
        "from harmonic_atlas.verify import VerifyConfig, run_suite",
        "n = {'products': 0, 'trivial': 0, 'divisions': 0, 'by_one': 0}",
        "one = (analytic.GaussRational(1),)",
        "product, pdivmod = analytic.coeff_product, realalg.pdivmod",
        "def counting_product(xs, ys, m):",
        "    n['products'] += 1",
        "    n['trivial'] += any(tuple(p) in (one, ()) for p in (xs, ys))",
        "    return product(xs, ys, m)",
        "def counting_pdivmod(a, b):",
        "    n['divisions'] += 1",
        "    n['by_one'] += tuple(b) == one",
        "    return pdivmod(a, b)",
        "analytic.coeff_product = counting_product",
        "analytic.pdivmod = realalg.pdivmod = counting_pdivmod",
        "run_suite('all', VerifyConfig())",
        "print(n['products'], n['trivial'], n['divisions'], n['by_one'])",
    ))
    src = str(Path(harmonic_atlas.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    products, trivial, divisions, by_one = map(int, out.stdout.split())
    assert products > 0 and divisions > 0, out.stdout
    assert (trivial, by_one) == (0, 0), out.stdout


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


small_fracs = st.fractions(min_value=-3, max_value=3, max_denominator=4)
tails = st.lists(small_fracs, max_size=3)  # coefficients after a constant 1
small_gauss = st.builds(GaussRational, small_fracs, small_fracs)


def _log_oracle(arg, order):
    """log(arg) to the order, as the integral of arg'/arg by long division."""
    if order == 0:
        return [F(0)]
    deriv = [k * c for k, c in enumerate(arg)][1:] or [F(0)]
    return [F(0)] + [c / (n + 1) for n, c in
                     enumerate(long_division_series(deriv, arg, order - 1))]


@settings(max_examples=80, deadline=None)
@given(rationals=st.lists(st.tuples(st.lists(small_fracs, max_size=4), tails),
                          max_size=3),
       logs=st.lists(tails, max_size=2), order=st.integers(0, 10),
       data=st.data())
def test_series_of_a_term_sum_matches_the_oracles(rationals, logs, order, data):
    # A random sum of rational and log terms, with one rational term split
    # as c1 P/Q + c2 P/Q over distinct Poly objects and the terms in a
    # random order, expands to the sum of the long-division oracles: the
    # rational terms go into one quotient, equal denominators added
    # directly and others cross-multiplied, and each log comes from the
    # per-argument cache.
    shapes = ([(num, [F(1)] + den) for num, den in rationals]
              + [([F(1)] + arg,) for arg in logs])
    cs = data.draw(st.lists(small_gauss, min_size=len(shapes), max_size=len(shapes)))
    want = [GaussRational(0)] * (order + 1)
    for c, p in zip(cs, shapes):
        ref = (long_division_series(*p, order) if len(p) == 2
               else _log_oracle(p[0], order))
        want = [acc + c * x for acc, x in zip(want, ref)]
    terms = [RationalTerm(c, Poly(p[0]), Poly(p[1])) if len(p) == 2
             else LogTerm(c, Poly(p[0])) for c, p in zip(cs, shapes)]
    if rationals:
        c1 = data.draw(small_gauss)
        (num, den), c = shapes[0], cs[0]
        terms[:1] = [RationalTerm(c1, Poly(num), Poly(den)),
                     RationalTerm(c - c1, Poly(num), Poly(den))]
    terms = data.draw(st.permutations(terms))
    assert list(AnalyticExpr(terms, validate=False).series(order).coeffs) == want


def test_cold_verify_all_inverts_once_per_expansion():
    # A cold `verify all` at the default config expands 24 expressions,
    # each as one quotient P/Q (its rational terms summed), times 1/Q
    # unless Q is 1: one Series.reciprocal each but for the zero expression
    # and 3 polynomials, 20 in all.  A map with closed forms proves them by
    # the shear's identity, with no series (`shear` module doc), and is
    # built at `verify._CLOSED_ORDER`: so 20 expansions are at order 4 (19
    # conformal h and the zero expression) and only the 4 sources of the 8
    # shears without closed forms at 64.  No log series is expanded: no
    # conformal h has a log term, and each shear's series comes from its
    # division by Q + s P.  No expansion goes past the config's order, so
    # no witness search to `classify._WITNESS_ORDER` runs.  A fresh process
    # is cold.
    script = "\n".join((
        "from harmonic_atlas import analytic",
        "from harmonic_atlas.numkernel import Series",
        "from harmonic_atlas.verify import VerifyConfig, run_suite",
        "n = {'inverses': 0, 'exprs': 0, 'top': 0}",
        "reciprocal, series = Series.reciprocal, analytic.AnalyticExpr.series",
        "def counting_reciprocal(self):",
        "    n['inverses'] += 1",
        "    return reciprocal(self)",
        "def counting_series(self, order):",
        "    n['exprs'] += order not in self._series_cache",
        "    n['top'] = max(n['top'], order)",
        "    return series(self, order)",
        "Series.reciprocal = counting_reciprocal",
        "analytic.AnalyticExpr.series = counting_series",
        "run_suite('all', VerifyConfig())",
        "print(n['inverses'], n['exprs'], analytic._log_series.cache_info().misses, n['top'])",
    ))
    src = str(Path(harmonic_atlas.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert tuple(map(int, out.stdout.split())) == (20, 24, 0, VerifyConfig().order), out.stdout


_SHORT_CUT_SCRIPT = "\n".join((
    "import contextlib, io, json, sys",
    "from harmonic_atlas import catalog_lookup, cli, numkernel",
    "from harmonic_atlas.numkernel import Series",
    "log = {'inverted': [], 'convolved': 0, 'zero_pairs': 0, 'kept': 0}",
    "reciprocal, convolve = Series.reciprocal, numkernel._convolve",
    "def logging_reciprocal(self):",
    "    unit = self.coeffs == Series.one(self.order).coeffs",
    "    log['inverted'].append('1' if unit else [str(c) for c in self.coeffs[:4]])",
    "    return reciprocal(self)",
    "def counting_convolve(*args):",
    "    log['convolved'] += 1",
    "    return convolve(*args)",
    "def keeping(op):",
    "    def wrapped(self, other):",
    "        out = op(self, other)",
    "        for x, y, z in zip(self.coeffs, other.coeffs, out.coeffs):",
    "            if not y:",
    "                log['zero_pairs'] += 1",
    "                log['kept'] += z is x",
    "        return out",
    "    return wrapped",
    "Series.reciprocal = logging_reciprocal",
    "numkernel._convolve = counting_convolve",
    "Series.__add__, Series.__sub__ = keeping(Series.__add__), keeping(Series.__sub__)",
    "with contextlib.redirect_stdout(io.StringIO()):",
    "    assert cli.main(['expand', sys.argv[1], '128']) == 0",
    "omega = catalog_lookup(sys.argv[1]).omega",
    "log['omega_expanded'] = omega is not None and bool(omega._series_cache)",
    "print(json.dumps(log))",
))


def _cold_expand_log(target: str) -> dict:
    src = str(Path(harmonic_atlas.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", _SHORT_CUT_SCRIPT, target],
                         capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    return json.loads(out.stdout)


def test_cold_expand_skips_unit_and_zero_operands():
    # koebe = z/(1-z)^2 inverts (1-z)^2 once and multiplies that by z as a
    # shift: one _convolve in all, and no inverse for its zero g (Q = 1).
    # The shear f9_cv1 (omega = z) inverts no unit series and divides by
    # the polynomial Q + s P without expanding omega.  Its g = h - phi, and
    # the log terms f3_cvi's closed forms add to their rational part, keep
    # the coefficient whose partner is zero, itself.
    koebe = _cold_expand_log("koebe")
    assert koebe["inverted"] == [["1", "-2", "1", "0"]]
    assert koebe["convolved"] == 1
    shear = _cold_expand_log("f9_cv1")
    assert "1" not in shear["inverted"]
    assert not shear["omega_expanded"]
    logs = _cold_expand_log("f3_cvi")
    for run in (shear, logs):
        assert run["kept"] == run["zero_pairs"] > 0


def test_log_part_is_kept_read_only():
    # built once per expression, as rational_part is, and shared by every
    # caller: so it cannot be changed in place
    up, down = P(1, 1), P(1, -1)
    e = (AnalyticExpr.log(F(1, 2), up) + AnalyticExpr.log(F(1, 2), up)
         + AnalyticExpr.log(-1, down) + KOEBE)
    logs = e.log_part()
    assert logs is e.log_part() and logs == {up: 1, down: -1}
    with pytest.raises(TypeError):
        logs[up] = 2
    assert e.log_part() == {up: 1, down: -1}
    assert not (AnalyticExpr.log(1, up) + AnalyticExpr.log(-1, up)).log_part()
    assert not KOEBE.log_part()


# -- derivative/series consistency across a family of expressions ----------------

def test_series_of_derivative_equals_derivative_of_series():
    exprs = [
        KOEBE, HSLITS, HSLITS_WIDE,
        AnalyticExpr.log(F(5, 8), P(1, 1)) + AnalyticExpr.log(F(-1, 8), P(1, -1)),
        AnalyticExpr.rational(F(1, 2), P(0, 2, 1), P(1, 2, 1)),
    ]
    for e in exprs:
        assert e.derivative().series(15) == e.series(16).derivative()
