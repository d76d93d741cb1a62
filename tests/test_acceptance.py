"""Acceptance criteria.

One test per criterion; each prints a PASS/FAIL line (run with ``-s`` to
see them all).  Every tolerance is pinned here, not configurable.

Criterion 8's parabola clause is checked on the unit circle itself: the
catalog's coefficients (A, B, C) = (8, 16, 3) must give
|A*u + B*v^2 + C| <= 1e-2 at the boundary values u + iv = f(e^{i theta}),
for 4096 equally spaced angles outside a 1e-3 band around the pole
theta = 0.  With w = 1/(1 - z) the map is f = (w^2 - 1)/2, and

    8u + 16v^2 + 3 = (4 (Re w)^2 - 1) (1 + 4 (Im w)^2),

which vanishes exactly on |z| = 1, where Re w = 1/2.  An interior trace at
r < 1 cannot meet the same band and tolerance: there Re w > 1/2, and the
residual grows like (1 - r)/sin^4(theta/2) towards the pole (about 1.2e10
at r = 0.9999, theta = 2 pi/4096).  The interior trace is checked with the
analytically required band in ``test_geomtest.py``.
"""

import math
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import harmonic_atlas.catalog as catalog_module
from harmonic_atlas import (
    GaussRational, RZParams, boundary_trace, catalog_build,
    catalog_lookup, classify_harmonic, default_grid,
    direction_convexity_probe, rz_certificate, shear_imag, shear_real,
    starlike_derivative, u_class_margin,
)
from harmonic_atlas.verify import VerifyConfig, report_json, run_suite, series_twins

F = Fraction
GRID = default_grid(64, 256, 0.999)


def _verdict(n, ok, detail=""):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {n} failed: {detail}"


def test_criterion_01_cardinalities(monkeypatch):
    # time a cold build: no entry built yet
    monkeypatch.setattr(catalog_module, "_INDEX", {})
    t0 = time.perf_counter()
    counts = Counter(e.family for e in catalog_build())
    elapsed = time.perf_counter() - t0
    ok = (counts["S_Z"] == 9
          and counts["T1"] + counts["T2"] == 12
          and counts["S1"] + counts["T3"] + counts["T4"] == 21
          and counts["T5"] + counts["T6"] == 11
          and elapsed < 1.0)
    _verdict(1, ok, f"cardinalities 9/12/21/11, cold build {elapsed:.3f}s")


def _run_fresh_shears(axis):
    from harmonic_atlas import parse_formula
    sources = catalog_module._SHEARS["_cv1" if axis == "real" else "_cvi"][2]
    construct = shear_real if axis == "real" else shear_imag
    omegas = (parse_formula("z"), parse_formula("-z"))
    out = []
    for sid in sources:
        phi = catalog_lookup(sid).h
        for om in omegas:
            out.append(construct(phi, om, 64))
    return out


def test_criterion_02_real_direction_shears():
    t0 = time.perf_counter()
    shears = _run_fresh_shears("real")
    twins = {e.id: e.harmonic_map(64)
             for e in catalog_build() if e.family == "T4"}
    half = []
    for fm in shears:
        rh, rg = classify_harmonic(fm)
        if rh.is_half_integer and rg.is_half_integer:
            half.append(series_twins(fm, twins))
    elapsed = time.perf_counter() - t0
    ok = (len(shears) == 30
          and len(half) == 6
          and all(len(m) == 1 for m in half)
          and sorted(m[0] for m in half) == sorted(twins)
          and elapsed < 10.0)
    _verdict(2, ok, f"30 shears, 6 half-integer matching all of T4, {elapsed:.2f}s")


def test_criterion_03_imag_direction_shears():
    t0 = time.perf_counter()
    shears = _run_fresh_shears("imag")
    twins = {e.id: e.harmonic_map(64)
             for e in catalog_build() if e.family == "T6"}
    half = []
    for fm in shears:
        rh, rg = classify_harmonic(fm)
        if rh.is_half_integer and rg.is_half_integer:
            half.append(series_twins(fm, twins))
    elapsed = time.perf_counter() - t0
    ok = (len(shears) == 18
          and len(half) == 2
          and all(len(m) == 1 for m in half)
          and sorted(m[0] for m in half) == sorted(twins)
          and elapsed < 10.0)
    _verdict(3, ok, f"18 shears, 2 half-integer matching all of T6, {elapsed:.2f}s")


def test_criterion_04_coefficient_spot_values():
    def a(entry_id, n, part="h"):
        fm = catalog_lookup(entry_id).harmonic_map(64)
        s = fm.h_series if part == "h" else fm.g_series
        return s.coeff(n)

    checks = [
        a("f13_cv1", 4) == GaussRational(F(-1, 4)),
        a("f14_cv1", 4) == GaussRational(F(-3, 4)),
        a("f15_cv1", 4) == GaussRational(F(3, 4)),
        a("f16_cv1", 4) == GaussRational(F(1, 4)),
        a("f25_cv1", 3) == GaussRational(F(-1, 6)),
        a("f26_cv1", 3) == GaussRational(F(-1, 6)),
        a("f27_cv1", 3) == GaussRational(F(10, 3)),
        a("f7_cvi", 3) == GaussRational(F(4, 3)),
        a("f8_cvi", 3) == GaussRational(F(4, 3)),
    ]
    f3 = catalog_lookup("f3_cv1").harmonic_map(64)
    checks.append(all(f3.h_series.coeff(n) == GaussRational(F(n + 1, 2))
                      for n in range(1, 65)))
    checks.append(all(f3.g_series.coeff(n) == GaussRational(F(n - 1, 2))
                      for n in range(1, 65)))
    _verdict(4, all(checks), "exact a3/a4 spot values and the (n+1)/2, (n-1)/2 laws")


def test_criterion_05_second_coefficient_bound():
    quarter = F(1, 4)
    ok = True
    for e in catalog_build():
        if e.omega is None:
            continue
        v = e.harmonic_map(8).g_series.coeff(2).abs2()  # |b2|^2, exactly
        if v > quarter:
            ok = False
        if e.family in ("T4", "T6") and v != quarter:
            ok = False
    _verdict(5, ok, "|b2|^2 <= 1/4 everywhere, equality on all of T4 and T6")


RZ_TABLE = [
    ("hslits", 0.0, math.pi / 2, "real", lambda z: (1 - z * z) / (1 + z * z)),
    ("hslits_wide", 0.0, math.pi / 3, "real",
     lambda z: (1 - z * z) / (1 - z + z * z)),
    ("cardioid_r", 0.0, 2 * math.pi / 3, "real", lambda z: 1 - z ** 3),
    ("halfplane_avg", 0.0, 0.0, "real", lambda z: 0.5 * (1 + (1 - z) ** 2)),
    ("halfplane_avg", math.pi / 2, math.pi / 2, "imag",
     lambda z: 0.5 * (1 - z * z + (1 + z) / (1 - z))),
    ("vslits_avg", math.pi / 2, math.pi / 2, "imag",
     lambda z: 0.5 * (1 - z * z + (1 + z * z) / (1 - z * z))),
]


def test_criterion_06_slope_certificates():
    ok = True
    for eid, mu, nu, axis, reduced in RZ_TABLE:
        cert = rz_certificate(catalog_lookup(eid).h, RZParams(mu, nu), axis, GRID)
        if cert.margin < -1e-9:
            ok = False
    rng = np.random.default_rng(42)
    zs = rng.uniform(0.05, 0.9, 100) * np.exp(2j * np.pi * rng.uniform(0, 1, 100))
    for eid, mu, nu, axis, reduced in RZ_TABLE:
        pp = catalog_lookup(eid).h.derivative().eval(zs)
        full = (np.exp(1j * mu) - 2 * math.cos(nu) * zs
                + np.exp(-1j * mu) * zs * zs) * pp
        got = full.real if axis == "real" else full.imag
        want = np.array([reduced(z) for z in zs]).real
        if np.max(np.abs(got - want)) > 1e-12:
            ok = False
    _verdict(6, ok, "margins >= -1e-9 on 64x256 grid; reduced forms to 1e-12")


def test_criterion_07_convexity_falsifiers():
    cases = [
        ("cardioid_r", "imag"), ("cardioid", "imag"),
        ("vslits_avg", "real"), ("vslits", "real"),
        ("hslits", "imag"), ("koebe", "imag"),
        ("hslits_wide", "imag"), ("hslits_wide_r", "imag"),
    ]
    ok = True
    for eid, direction in cases:
        fm = catalog_lookup(eid).harmonic_map(16)
        if direction_convexity_probe(fm, direction, r=0.999, lines=64):
            ok = False
    _verdict(7, ok, "all eight probes falsify at r = 0.999 with 64 lines")


def test_criterion_08_offset_slit_geometry():
    fm = catalog_lookup("offset_vslits").harmonic_map(16)
    n = 4096
    tr = boundary_trace(fm, 0.9999, n)
    theta = np.angle(np.exp(2j * np.pi * np.arange(n) / n))
    keep = (np.abs(theta) > 0.15) & (np.abs(np.abs(theta) - math.pi) > 0.15)
    re_ok = np.max(np.abs(tr[keep].real - 0.25)) <= 1e-2
    gap_ok = np.min(np.abs(tr[keep].imag)) >= math.sqrt(3) / 4 - 1e-2
    _verdict(8, re_ok and gap_ok,
             "(slit part) Re -> 1/4 within 1e-2; slit gap >= sqrt(3)/4 - 1e-2")


def test_criterion_08_parabola_as_specified():
    # Stated parameters: 4096 angles, exclusion band 1e-3 around the pole
    # theta = 0, residual tolerance 1e-2.  The relation holds for the
    # boundary values on |z| = 1 (see module docstring), so the map is
    # evaluated there rather than on an interior trace.
    entry = catalog_lookup("parabola")
    a, b, c = (float(x) + float(y) * math.sqrt(3)
               for (x, y) in entry.expected.boundary.params)
    fm = entry.harmonic_map(16)
    n = 4096
    theta = np.angle(np.exp(2j * np.pi * np.arange(n) / n))
    keep = np.abs(theta) > 1e-3
    tr = fm.eval(np.exp(1j * theta)[keep])
    residual = float(np.max(np.abs(a * tr.real + b * tr.imag ** 2 + c)))
    _verdict(8, residual <= 1e-2,
             f"(parabola part) max residual {residual:.3e} of "
             f"{a:g}u + {b:g}v^2 + {c:g} on |z| = 1, outside a 1e-3 band "
             "around the pole; tolerance 1e-2")


def test_criterion_09_starlikeness_refutation():
    fm = catalog_lookup("t4_re_koebe_im_halfplane").harmonic_map(32)
    ts = np.linspace(-math.pi / 2 + 0.1, math.pi / 2 - 0.1, 32)
    ok = True
    for t in ts:
        v = starlike_derivative(fm, float(t), 0.9999)
        ref = 2 * math.cos(t) / (-3 + math.cos(2 * t))
        if abs(v - ref) > 1e-3 or v >= 0:
            ok = False
    _verdict(9, ok, "32 samples match 2cos(t)/(cos(2t)-3) to 1e-3, all negative")


def test_criterion_10_distortion_class():
    ok = True
    for e in catalog_build():
        if e.family == "S_Z":
            if u_class_margin(e.h, GRID).margin < -1e-9:
                ok = False
    for eid in ("hslits_wide_avg", "hslits_wide_avg_r"):
        if u_class_margin(catalog_lookup(eid).h, GRID).margin >= 0:
            ok = False
    _verdict(10, ok, "margin >= -1e-9 for the nine; negative for both outliers")


def test_criterion_11_deterministic_reports():
    config = VerifyConfig(order=16, grid_radii=16, grid_angles=64)
    a = report_json(run_suite("all", config))
    b = report_json(run_suite("all", config))
    _verdict(11, a == b, "two verify runs are byte-identical")
