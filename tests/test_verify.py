"""Claim-table driver: suite contents and summary bookkeeping."""

import cmath
import json
import math
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from harmonic_atlas import (
    AnalyticExpr, CatalogEntry, FlagSet, Poly, catalog, catalog_ids, catalog_lookup, verify,
)
from harmonic_atlas import geomtest, realalg
from harmonic_atlas import shear as shear_mod
from harmonic_atlas.cli import main
from harmonic_atlas.analytic import RatFunc
from harmonic_atlas.exprtext import parse_gauss
from harmonic_atlas.numkernel import GaussRational
from harmonic_atlas.shear import HarmonicMap
from harmonic_atlas.verify import SUITES, VerifyConfig, report_json, run_suite
from oracles import disk_preimage_count

FAST = VerifyConfig(order=16, grid_radii=16, grid_angles=64)
RECORDING = Path(__file__).parent / "data" / "verify_all_fast.json"
DEFAULT_RECORDING = Path(__file__).parent / "data" / "verify_all_default.json"


def test_all_suites_match_at_default_config_shapes():
    report = run_suite("T31", FAST)
    assert report["summary"]["total"] == 20
    assert report["summary"]["matched"] == 20


def test_t41_row_census():
    report = run_suite("T41", FAST)
    rows = report["rows"]
    shear_rows = [r for r in rows if r["id"].endswith("_cv1")]
    assert len(shear_rows) == 60          # class + twin per shear
    asserted = [r for r in rows if r["asserted"]]
    assert len(asserted) == 1
    assert report["summary"]["total"] == len(rows) - 1


def test_t42_half_integer_count_row():
    report = run_suite("T42", FAST)
    count_rows = [r for r in report["rows"] if r["id"] == "~cvi_half_integer_count"]
    assert len(count_rows) == 1
    assert count_rows[0]["computed"] == 2
    assert count_rows[0]["match"] is True


def test_remark_suite():
    report = run_suite("REMARK", FAST)
    assert report["summary"]["matched"] == report["summary"]["total"] == 5


def test_remark_identity_rows_can_fail(monkeypatch):
    # with no M(theta) identity holding, REMARK still reports its 5 rows:
    # f9's identity row and f3's margin row, which its identity gates, fail
    calls = []
    monkeypatch.setattr(verify, "dilatation_check", lambda F: calls.append(F) or False)
    report = run_suite("REMARK", FAST)
    failed = [(r["id"], r["check"]) for r in report["rows"] if not r["match"]]
    assert report["summary"]["total"] == 5
    assert failed == [("f3", "m_theta_0_margin"), ("f9", "m_pi_coefficient_identity")]
    assert len(calls) == 2


def test_remark_starlike_expectation_comes_from_the_catalog(monkeypatch):
    # f3's row expects the refutation because the catalog records
    # starlike=False; an entry recording starlike=True would fail the row
    entry = catalog_lookup("t4_re_koebe_im_halfplane")
    assert entry.expected.starlike is False
    e = entry.expected
    flipped = CatalogEntry(
        entry.id, entry.family, entry.h, entry.g,
        FlagSet(e.integer_coeffs, e.half_integer_coeffs, e.cv_real, e.cv_imag,
                True, e.u_class, e.boundary),
        entry.recipe, entry.twin)
    monkeypatch.setitem(catalog._INDEX, entry.id, flipped)
    rows = {(r["id"], r["check"]): r for r in run_suite("REMARK", FAST)["rows"]}
    row = rows["f3", "starlike_refuted"]
    assert (row["computed"], row["expected"], row["match"]) == (True, False, False)


def test_remark_matches_at_512_angles():
    # the m_theta margins of f3 and f9 read -6.30 here while h'' came from
    # the uncancelled quotient rule, whose eightfold pole at z = 1 lost the
    # value near the circle; in lowest terms the margin is positive
    report = run_suite("REMARK", VerifyConfig(grid_angles=512))
    assert report["summary"]["matched"] == report["summary"]["total"] == 5


def test_all_aggregates():
    report = run_suite("all", FAST)
    assert {s["theorem"] for s in report["suites"]} == set(SUITES)
    total = sum(s["summary"]["total"] for s in report["suites"])
    assert report["summary"]["total"] == total


def test_report_json_stable():
    a = report_json(run_suite("REMARK", FAST))
    b = report_json(run_suite("REMARK", FAST))
    assert a == b


def test_report_matches_recording():
    # the full report at FAST, byte for byte: a refactor must leave every
    # row, value and key order as recorded
    assert report_json(run_suite("all", FAST)) == RECORDING.read_text(encoding="ascii")


def test_fast_and_default_recordings_differ_only_in_config():
    # no row reads the config but REMARK's two M(theta) margins, whose
    # verdicts agree: the two reports carry the same suites, rows and
    # summaries, and differ only in ``config``
    fast, default = (json.loads(p.read_text(encoding="ascii"))
                     for p in (RECORDING, DEFAULT_RECORDING))
    assert fast["config"] != default["config"]
    assert fast["summary"] == default["summary"]
    assert [s["theorem"] for s in fast["suites"]] == [s["theorem"] for s in default["suites"]]
    for a, b in zip(fast["suites"], default["suites"]):
        assert a["config"] == fast["config"] and b["config"] == default["config"]
        assert {k: v for k, v in a.items() if k != "config"} == {
            k: v for k, v in b.items() if k != "config"}


def test_default_report_matches_recording():
    # the full report at the default config (order 64, 64x256 grid), byte
    # for byte: the definition of "same behaviour" as a check
    assert (report_json(run_suite("all", VerifyConfig()))
            == DEFAULT_RECORDING.read_text(encoding="ascii"))


@pytest.mark.parametrize("suite", SUITES)
def test_single_suite_matches_its_suite_in_the_recording(suite):
    # a suite run on its own builds only the entries it reads, and its report
    # is the one it gives inside "all"
    recorded = json.loads(RECORDING.read_text(encoding="ascii"))["suites"]
    want = report_json(recorded[SUITES.index(suite)])
    assert report_json(run_suite(suite, FAST)) == want


def test_unknown_suite():
    with pytest.raises(KeyError):
        run_suite("T99", FAST)


@pytest.mark.parametrize("field, value", [
    ("order", 0), ("order", catalog._MAX_ORDER + 1), ("grid_radii", 0),
    ("grid_angles", 0), ("grid_angles", verify._MAX_GRID_POINTS // 64 + 1),
])
def test_config_checks_its_ranges(field, value):
    # the API refuses what the CLI refuses, before a series or grid exists
    with pytest.raises(ValueError, match="out of range"):
        VerifyConfig(**{field: value})


def test_config_accepts_its_range_ends():
    VerifyConfig(order=catalog._MAX_ORDER, grid_radii=1, grid_angles=verify._MAX_GRID_POINTS)
    VerifyConfig(order=1, grid_radii=verify._MAX_GRID_POINTS, grid_angles=1)


# -- exact rows: maps at one order, closed forms compared exactly ---------------

def test_verify_all_shears_closed_forms_at_one_order(monkeypatch):
    # a cold `verify all` at the default config integrates all 56 shears at
    # verify._ORDER, the 8 without closed forms too; the other 48 prove
    # their closed forms there as at any order; |omega| < 1 is decided for
    # +z and -z only
    monkeypatch.setattr(catalog, "_INDEX", {})
    shear_mod._omega_bounded.cache_clear()
    orders = Counter()
    real = shear_mod._shear

    def spy(source, omega, order, s):
        orders[order] += 1
        return real(source, omega, order, s)

    monkeypatch.setattr(shear_mod, "_shear", spy)
    assert run_suite("all", VerifyConfig())["summary"]["matched"] == 207
    shears = [catalog_lookup(eid) for eid in catalog_ids()]
    shears = [e for e in shears if e.recipe is not None]
    assert len(shears) == sum(orders.values()) == 56
    assert sum(e.h is None for e in shears) == 8
    assert orders == {verify._ORDER: 56} == {4: 56}
    assert shear_mod._omega_bounded.cache_info().misses == 2


_TINY = Fraction(1, 10**12)


def _mutate_past_the_order(monkeypatch, eid, h_c, g_c):
    """Lookups of ``eid`` give its map with c z^(N+2) added to h (c = h_c)
    and to g (g_c), N the map's order.  The copy has no source, so it is
    checked against its series to N only, where the term does not show;
    c = 10^-12 leaves every grid row as it was."""
    build = catalog.CatalogEntry.harmonic_map

    def harmonic_map(self, order=catalog.DEFAULT_ORDER):
        fm = build(self, order)
        if self.id != eid:
            return fm

        def extra(c):
            return AnalyticExpr.rational(c, Poly([0] * (fm.h_series.order + 2) + [1]))
        return HarmonicMap(fm.h_series, fm.g_series, fm.omega,
                           h_expr=fm.h_expr + extra(h_c), g_expr=fm.g_expr + extra(g_c))

    monkeypatch.setattr(catalog.CatalogEntry, "harmonic_map", harmonic_map)


def _failed(report):
    return sorted((r["id"], r["check"]) for r in report["rows"] if not r["match"])


def test_mutated_twin_fails_its_rows(monkeypatch):
    # f3_cv1 equals its twin for every n; a twin whose h and g differ from it
    # past the series compared (h - g unchanged) is no twin, and not
    # half-integer
    twin = "t4_re_koebe_im_halfplane"
    _mutate_past_the_order(monkeypatch, twin, _TINY, _TINY)
    report = run_suite("T41", FAST)
    # h' and g' both gain the term and omega h' does not, so g' = omega h'
    # breaks: its Jacobian row is undecided and fails too
    assert _failed(report) == [("f3_cv1", "series_twin"), (twin, "half_integer_coeffs"),
                               (twin, "jacobian_positive")]


def test_mutated_t4_g_fails_its_rows(monkeypatch):
    # a wrong term past the order in the hand-typed g of conj_sq_plus breaks
    # its class and its twin f17_cv1
    twin = "t4_conj_sq_plus"
    _mutate_past_the_order(monkeypatch, twin, 0, _TINY)
    report = run_suite("T41", FAST)
    # and breaks g' = omega h', so its Jacobian row, undecided, fails
    assert _failed(report) == [("f17_cv1", "series_twin"), (twin, "half_integer_coeffs"),
                               (twin, "jacobian_positive")]


@pytest.mark.parametrize("eid, row", [
    ("t4_re_koebe_im_halfplane", ("f3", "m_theta_0_margin")),
    ("t6_re_halfplane_im_koebe", ("f9", "m_pi_coefficient_identity")),
])
def test_mutated_dilatation_fails_its_row(monkeypatch, eid, row):
    # g' = +-z h' holds to the map's order but not past it: the identity
    # row (and the margin row it gates) fails; so does f3's starlike
    # identity, which reads the changed g exactly
    _mutate_past_the_order(monkeypatch, eid, 0, _TINY)
    starlike = [("f3", "starlike_derivative_formula")] if row[0] == "f3" else []
    assert _failed(run_suite("REMARK", FAST)) == sorted([row] + starlike)


# -- schema 2: the proof kind of every row, and the exact grid-free rows ------

def _rows(report):
    return {(r["id"], r["check"]): r for s in report.get("suites", [report])
            for r in s["rows"]}


@pytest.mark.parametrize("config", [FAST, VerifyConfig()], ids=["fast", "default"])
def test_proof_ledger_counts(config):
    # a change that moves a row between proof kinds must say so here
    report = run_suite("all", config)
    assert report["schema"] == 2
    assert report["summary"]["proofs"] == {
        "exact": 205, "order": 0, "grid": 2, "asserted": 2}
    rows = _rows(report).values()
    assert all(r["asserted"] == (r["proof"] == "asserted") for r in rows)
    assert sum(s["summary"]["proofs"]["exact"] for s in report["suites"]) == 205
    # the grid rows left: REMARK's 2 M(theta) margins
    assert sorted((r["id"], r["check"]) for r in rows if r["proof"] == "grid") == [
        ("f3", "m_theta_0_margin"), ("f9", "m_theta_pi_margin")]


@pytest.mark.parametrize("order", [1, 2, 3, 4, 16, 64])
def test_verify_all_reads_the_same_at_every_order(order):
    # every map is built at verify._ORDER, so the order is only echoed in
    # ``config``: with the default's config put back, the report is the
    # default recording, byte for byte
    report = run_suite("all", VerifyConfig(order=order))
    echoed, default = VerifyConfig(order=order).to_json(), VerifyConfig().to_json()
    assert echoed["order"] == order
    for r in [report] + report["suites"]:
        assert r["config"] == echoed
        r["config"] = default
    assert report_json(report) == DEFAULT_RECORDING.read_text(encoding="ascii")


def test_series_rows_below_their_witness_index_hold_to_the_order(monkeypatch):
    # with maps built at order 3, two shears without closed forms read as
    # half-integer in their series, a yes that holds to that order only,
    # and so does the count of them
    monkeypatch.setattr(verify, "_ORDER", 3)
    report = run_suite("T41", FAST)
    order_rows = sorted(k for k, r in _rows(report).items() if r["proof"] == "order")
    assert order_rows == [("f13_cv1", "half_integer_coeffs"),
                          ("f16_cv1", "half_integer_coeffs"),
                          ("~cv1_half_integer_count", "count")]
    assert report["summary"]["proofs"]["order"] == 3


_U_CLASS_IDS = catalog_ids("S_Z") + catalog_ids("T2")
_TWIN_IDS = catalog_ids("T4") + catalog_ids("T6")


def test_the_19_exact_rows_agree_with_the_grid_checks():
    # the float checks in geomtest are the oracle of the exact rows, and of
    # the exact test on T1's 10 maps, which have no flag and no row: 6 in
    # the class, 4 out
    grid = VerifyConfig().grid()
    t1 = catalog_ids("T1")
    assert len(_U_CLASS_IDS) == 11 and len(_TWIN_IDS) == 8 and len(t1) == 10
    verdicts = {}
    for eid in _U_CLASS_IDS + t1:
        f = catalog_lookup(eid).h
        in_class, witness = verdicts[eid] = verify._u_class_exact(f)
        margin = geomtest.u_class_margin(f, grid).margin
        assert in_class == (margin >= -1e-9), eid
        if eid in _U_CLASS_IDS:
            assert in_class == catalog_lookup(eid).expected.u_class, eid
        if not in_class:
            # the float |R| at the exact witness exceeds 1, as the grid's does
            z = complex(parse_gauss(witness["z"]))
            r = f.derivative().eval(z) * (z / f.eval(z)) ** 2 - 1
            assert abs(r) ** 2 == pytest.approx(float(Fraction(witness["abs2_R"])))
            assert abs(z) < 1 < abs(r)
    assert sorted(eid for eid in t1 if verdicts[eid][0]) == [
        "cardioid", "cardioid_r", "halfplane_avg", "halfplane_avg_r", "parabola", "parabola_r"]
    for eid in _TWIN_IDS:
        entry = catalog_lookup(eid)
        fm = entry.harmonic_map(verify._ORDER)
        assert verify._jacobian_exact(fm) is not None, eid
        assert geomtest.jacobian_min(fm, grid).margin > 0, eid


def test_verify_all_runs_neither_grid_check_of_the_exact_rows(refuse_numpy):
    # verify binds neither check (that neither runs is
    # test_the_float_oracles_stay_off_the_verdict_path)
    assert not hasattr(verify, "u_class_margin") and not hasattr(verify, "jacobian_min")
    report = run_suite("all", FAST)
    assert report["summary"]["matched"] == report["summary"]["total"] == 207
    rows = [r for r in _rows(report).values()
            if r["check"] in ("u_class_margin", "jacobian_positive")]
    assert len(rows) == 19
    assert all(r["proof"] == "exact" and r["witness"] for r in rows)
    # a witness is exact text: strings only, no float anywhere
    assert all(isinstance(v, str) for r in rows for v in r["witness"].values())
    # and the suites of these rows take no float step: with verify's numpy
    # refused, T31, T41 and T42 still give their recorded rows
    refuse_numpy(verify)
    recorded = json.loads(DEFAULT_RECORDING.read_text(encoding="ascii"))["suites"]
    for suite in ("T31", "T41", "T42"):
        assert run_suite(suite, FAST)["rows"] == recorded[SUITES.index(suite)]["rows"]


def test_verify_all_runs_no_certificate_search(monkeypatch):
    # the 24 slope certificates are decided exactly, each with its (mu, nu)
    # and R, and read the same at FAST and at the default config
    def refuse(*args, **kwargs):
        raise AssertionError("rz_search called")

    monkeypatch.setattr(verify, "rz_search", refuse)
    report = run_suite("all", FAST)
    assert report["summary"]["matched"] == report["summary"]["total"] == 207
    rows = {k: r for k, r in _rows(report).items() if r["check"].endswith("_certificate")}
    assert len(rows) == 24
    assert all(r["proof"] == "exact" and r["computed"] == "found" for r in rows.values())
    assert all(set(r["witness"]) == {"mu", "nu", "R"} and all(
        isinstance(v, str) for v in r["witness"].values()) for r in rows.values())
    default = _rows(json.loads(DEFAULT_RECORDING.read_text(encoding="ascii")))
    assert all(default[k] == r for k, r in rows.items())


def _replace_entry(monkeypatch, eid, h=None, **flags):
    """Lookups of ``eid`` give a copy with h and the named flags replaced."""
    entry = catalog_lookup(eid)
    e = entry.expected
    values = {name: getattr(e, name) for name in FlagSet.__slots__}
    values.update(flags)
    copy = CatalogEntry(entry.id, entry.family, h or entry.h, entry.g,
                        FlagSet(**values), entry.recipe, entry.twin)
    monkeypatch.setitem(catalog._INDEX, eid, copy)


def test_undecided_u_class_row_fails(monkeypatch):
    # R = -z^2/(16 (1 + z/4)^2) for f = z + z^2/4 is no monomial, and |R|
    # <= 1/9 on the disk is proved; f = -log(1 - z) has a log part, so R is
    # no quotient of polynomials: that row fails with no value
    f = AnalyticExpr.rational(Fraction(1, 4), Poly([0, 4, 1]))
    assert verify._u_class_exact(f) == (True, {"R": "rat(1; 0,0,-1/16; 1,1/2,1/16)"})
    f = AnalyticExpr.log(-1, Poly([1, -1]))
    assert verify._u_class_exact(f) is None
    _replace_entry(monkeypatch, "koebe", h=f)
    row = _rows(run_suite("T31", FAST))["koebe", "u_class_margin"]
    assert not row["match"] and row["computed"] is None
    assert row["proof"] == "exact" and "witness" not in row


def test_witness_outside_the_disk_is_rejected():
    r = verify._u_class_quotient(catalog_lookup("hslits_wide_avg").h).reduced()
    inside = parse_gauss("9/25+93/100 i")
    assert verify._outside_witness(r, inside)["abs2_z"] == "1989/2000"
    for z in ("1", "-1", "3/5+4/5 i", "1/2+9/10 i"):  # |z| >= 1
        assert verify._outside_witness(r, parse_gauss(z)) is None
    assert verify._outside_witness(r, parse_gauss("1/10")) is None  # |R| < 1 there


@pytest.mark.parametrize("angles", ["1", "2", "3", "5", "100"])
def test_t31_reads_the_same_at_every_grid(capsys, angles):
    # T31 reads no grid: its proofs and witnesses are exact, so no angle
    # count turns a row into a grid row or loses a witness
    code = main(["verify", "T31", "--grid-angles", angles, "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["summary"]["matched"] == report["summary"]["total"] == 20
    assert report["summary"]["proofs"]["exact"] == 20
    default = _rows(json.loads(DEFAULT_RECORDING.read_text(encoding="ascii")))
    assert all(default[k] == r for k, r in _rows(report).items())


def test_undecided_jacobian_row_fails(monkeypatch):
    # koebe's h' = (1 + z)/(1 - z)^3 vanishes only at -1, on the circle
    koebe = catalog_lookup("koebe").harmonic_map(4)
    assert verify._jacobian_exact(koebe) == {
        "omega": "rat(1; 0; 1)", "h_prime": "rat(1; -1,-1; -1,3,-3,1)"}
    # a twin with c z^(N+2) added to h and g breaks g' = omega h', so its
    # row fails with no value
    twin = "t4_re_koebe_im_halfplane"
    _mutate_past_the_order(monkeypatch, twin, _TINY, _TINY)
    rows = _rows(run_suite("T41", FAST))
    row = rows[twin, "jacobian_positive"]
    assert not row["match"] and row["computed"] is None
    assert row["proof"] == "exact" and "witness" not in row
    assert rows["t4_conj_sq_plus", "jacobian_positive"]["proof"] == "exact"


def test_a_zero_of_h_prime_inside_never_passes_a_jacobian_row():
    # h = z + (b - a) z^2/2 - ab z^3/3, so h' = (1 - az)(1 + bz) vanishes at
    # 20000/20001, inside the disk; |h'(0)| = 1 = |ab|, the modulus of its
    # leading coefficient, where a Schur-Cohn recursion is singular, and
    # the exact count is 1
    a, b = Fraction(20001, 20000), GaussRational(0, Fraction(20000, 20001))
    h = AnalyticExpr.rational(1, Poly([0, 1, (b - a) / 2, -a * b / 3]))
    hp = h.derivative().rational_part()
    assert realalg.disk_zero_count((hp.num * hp.den).coeffs) == 1
    assert verify._jacobian_exact(HarmonicMap.conformal(h, 4)) is None


def test_flipped_direction_flag_fails_its_row(monkeypatch):
    # vslits is not convex in the real direction: claimed convex, no pair
    # proves it, so the row fails with no witness
    _replace_entry(monkeypatch, "vslits", cv_real=True)
    report = run_suite("T32", FAST)
    assert report["summary"]["total"] == 18
    assert _failed(report) == [("vslits", "cv_real_certificate")]
    row = _rows(report)["vslits", "cv_real_certificate"]
    assert row["computed"] is None and row["proof"] == "exact" and "witness" not in row


@pytest.mark.parametrize("eid, flag, check", [
    ("koebe", "u_class", "u_class_margin"),
    ("hslits_wide_avg", "u_class", "u_class_margin"),
    ("koebe", "integer_coeffs", "integer_coeffs"),
])
def test_flipped_t31_flag_fails_its_row(monkeypatch, eid, flag, check):
    # T31 emits its rows by family, whatever the flag says, so a flipped
    # flag fails a row instead of removing it
    _replace_entry(monkeypatch, eid, **{flag: not getattr(
        catalog_lookup(eid).expected, flag)})
    report = run_suite("T31", FAST)
    assert report["summary"]["total"] == 20
    assert _failed(report) == [(eid, check)]


# -- the exact falsifiers and REMARK's starlike rows ---------------------------

_DENIED = [(eid, axis) for family in ("S_Z", "T1", "T2") for eid in catalog_ids(family)
           for axis in ("real", "imag")
           if getattr(catalog_lookup(eid).expected, f"cv_{axis}") is False]


def test_the_probe_and_the_exact_falsifier_agree_on_all_18_rows():
    # every denied direction is refuted by the probe on |z| = 0.999, and
    # every row is exact, with the falsifier's witness as text
    report = run_suite("all", FAST)
    rows = _rows(report)
    assert len(_DENIED) == 18
    for eid, axis in _DENIED:
        entry = catalog_lookup(eid)
        assert geomtest.direction_convexity_probe(entry.harmonic_map(1), axis) is False, eid
        row = rows[eid, f"cv_{axis}_falsified"]
        assert row["computed"] is True and row["match"] and row["proof"] == "exact"
        assert row["witness"] == verify._falsifier_exact(entry.h, axis)
        assert set(row["witness"]) == {"zeta", "w", "step"}
        assert all(isinstance(v, str) for v in row["witness"].values())


def test_koebe_witness():
    # zeta = -1: koebe(-1) = -1/4, the tip of the slit (-inf, -1/4]; the
    # vertical line through it meets the image at -1/4 -+ i/2, not at -1/4
    assert verify._falsifier_exact(catalog_lookup("koebe").h, "imag") == {
        "zeta": "-1", "w": "-1/4", "step": "1/2 i"}


def test_slope_certificate_reads_phi_prime_in_lowest_terms():
    # h - g of f9_cv1 is koebe written as z (1 - z)^3 / (1 - z)^5; its
    # phi' is koebe's once reduced, so it has koebe's certificate
    fm = catalog_lookup("f9_cv1").harmonic_map(verify._ORDER)
    want = verify._rz_exact(catalog_lookup("koebe").h, "real")
    assert want == {"mu": "0", "nu": "0", "R": "rat(1; 1,1; 1,-1)"}
    assert verify._rz_exact(fm.h_expr - fm.g_expr, "real") == want


@pytest.mark.parametrize("h", [
    AnalyticExpr.rational(-1, Poly([0, 1])),  # -z: a disk
    AnalyticExpr.rational(1, Poly([0, 1]), Poly([1, -1])),  # z/(1 - z): a half-plane
    AnalyticExpr.log(-1, Poly([1, -1])),  # a log part
    AnalyticExpr.rational(1, Poly([1])),  # a constant: P - wQ = 0 has no count
])
def test_the_falsifier_refuses_what_its_argument_does_not_cover(h):
    # a convex image has no witness in either direction, and a log part
    # or a constant none at all
    assert verify._falsifier_exact(h, "real") is None
    assert verify._falsifier_exact(h, "imag") is None


def test_minus_koebe_is_refuted_in_the_imaginary_direction():
    # -koebe maps the disk onto C minus [1/4, inf), convex in the real
    # direction only; the route needs no sign of f'(0)
    h = AnalyticExpr.rational(-1, Poly([0, 1]), Poly([1, -2, 1]))
    assert verify._falsifier_exact(h, "imag") == {"zeta": "-1", "w": "1/4", "step": "1/2 i"}
    assert verify._falsifier_exact(h, "real") is None


def _float_coeffs(h):
    """P and Q of h's rational part in lowest terms, as complex lists."""
    r = h.rational_part().reduced()
    return [complex(c) for c in r.num.coeffs], [complex(c) for c in r.den.coeffs]


def _witness_holds(p, q, w, s):
    """The float check of a falsifier's witness: P - wQ has no root in the
    disk, and P - (w - s)Q and P - (w + s)Q at least one each."""
    return (disk_preimage_count(p, q, w) == 0 and disk_preimage_count(p, q, w - s) >= 1
            and disk_preimage_count(p, q, w + s) >= 1)


def test_falsifier_witnesses_against_a_float_root_count():
    # each recorded witness: zeta on the circle exactly, w = f(zeta) in
    # floats, and the three root counts of np.roots; w moved by s/4 along
    # the line is no witness
    rows = _rows(json.loads(DEFAULT_RECORDING.read_text(encoding="ascii")))
    for eid, axis in _DENIED:
        witness = rows[eid, f"cv_{axis}_falsified"]["witness"]
        assert parse_gauss(witness["zeta"]).abs2() == 1
        p, q = _float_coeffs(catalog_lookup(eid).h)
        zeta, w, s = (complex(parse_gauss(witness[k])) for k in ("zeta", "w", "step"))
        assert np.polyval(p[::-1], zeta) / np.polyval(q[::-1], zeta) == pytest.approx(w)
        assert _witness_holds(p, q, w, s), (eid, axis)
        assert not _witness_holds(p, q, w + s / 4, s), (eid, axis)


# rational points of the closed disk: x + y (1 - |x|) i, in |x| + |y| <= 1,
# or a rational point of the circle
_DISK_POINTS = st.one_of(
    st.tuples(st.fractions(-1, 1, max_denominator=12), st.fractions(-1, 1, max_denominator=12))
    .map(lambda t: GaussRational(t[0], t[1] * (1 - abs(t[0])))),
    st.sampled_from(verify._CIRCLE))


@settings(max_examples=40, deadline=None)
@given(c=_DISK_POINTS)
def test_the_falsifier_finds_no_witness_on_a_convex_image(c):
    # z/(1 - cz) maps the disk onto a disk (z for c = 0), or onto a
    # half-plane for |c| = 1
    h = AnalyticExpr.rational(1, Poly([0, 1]), Poly([1, -c]))
    assert verify._falsifier_exact(h, "real") is None
    assert verify._falsifier_exact(h, "imag") is None


@settings(max_examples=60, deadline=None)
@given(a=_DISK_POINTS, b=_DISK_POINTS, axis=st.sampled_from(["real", "imag"]))
def test_every_falsifier_witness_passes_the_float_count(a, b, axis):
    # z/((1 - az)(1 - bz)): a witness found must pass np.roots' counts,
    # unless a root lies too near the circle for floats to place it (zeta
    # itself, a root of P - wQ, aside)
    h = AnalyticExpr.rational(1, Poly([0, 1]), Poly([1, -a]) * Poly([1, -b]))
    witness = verify._falsifier_exact(h, axis)
    if witness is None:
        return
    p, q = _float_coeffs(h)
    zeta, w, s = (complex(parse_gauss(witness[k])) for k in ("zeta", "w", "step"))
    for v in (w - s, w, w + s):
        roots = np.roots(np.polysub(p[::-1], v * np.array(q[::-1])))
        assume(all(abs(abs(r) - 1) >= 1e-6 or abs(r - zeta) < 1e-3 for r in roots))
    assert _witness_holds(p, q, w, s)


def test_a_boundary_value_inside_the_image_is_no_witness():
    # z + z^2 is not univalent: f(-1) = 0 = f(0), so the horizontal line
    # through w = 0 meets f(D) at 0 as well as at -+1/2, and zeta = -1
    # shows nothing; its witness in the imaginary direction passes the
    # float counts
    h = AnalyticExpr.rational(1, Poly([0, 1, 1]))
    assert verify._falsifier_exact(h, "real") is None
    witness = verify._falsifier_exact(h, "imag")
    p, q = _float_coeffs(h)
    assert _witness_holds(p, q, *(complex(parse_gauss(witness[k])) for k in ("w", "step")))


def test_a_witness_moved_inside_fails_its_row(monkeypatch):
    # with no point of the circle to try, no falsifier shows: the 6 rows of
    # T32 fail with no value and no witness
    koebe = catalog_lookup("koebe").h
    assert verify._falsifier_exact(koebe, "imag") is not None
    monkeypatch.setattr(verify, "_CIRCLE", [])
    assert verify._falsifier_exact(koebe, "imag") is None
    report = run_suite("T32", FAST)
    falsifiers = [(r["id"], r["check"]) for r in report["rows"] if "falsified" in r["check"]]
    assert len(falsifiers) == 6 and _failed(report) == sorted(falsifiers)
    for key in falsifiers:
        row = _rows(report)[key]
        assert row["computed"] is None and row["proof"] == "exact" and "witness" not in row


# the float checks that decide no row, each only the oracle of an exact one
_FLOAT_ORACLES = ("direction_convexity_probe", "starlike_derivative", "rz_search",
                  "u_class_margin", "jacobian_min")


def test_the_float_oracles_stay_off_the_verdict_path(monkeypatch):
    # each oracle replaced by a stub that raises, wherever the package binds
    # it: verify all still gives the default recording byte for byte.
    # m_theta_check is the one float check left on the verdict path
    def refuse(*args, **kwargs):
        raise AssertionError("float check called")

    modules = [m for name, m in list(sys.modules.items())
               if name == "harmonic_atlas" or name.startswith("harmonic_atlas.")]
    for name in _FLOAT_ORACLES:
        bound = [m for m in modules if getattr(m, name, None) is getattr(geomtest, name)]
        assert geomtest in bound, name
        for m in bound:
            monkeypatch.setattr(m, name, refuse)
    assert report_json(run_suite("all")) == DEFAULT_RECORDING.read_text(encoding="ascii")
    monkeypatch.setattr(verify, "m_theta_check", refuse)
    with pytest.raises(AssertionError, match="float check called"):
        run_suite("REMARK")


def test_perturbed_starlike_formula_fails_its_row(monkeypatch):
    # 2 cos t/(cos 2t - 2) in place of 2 cos t/(cos 2t - 3): 4z(z^2 + 1)/(z^4
    # - 4z^2 + 1) on the circle is not f3's 2 Re(Df/f)
    monkeypatch.setattr(verify, "_F3_STARLIKE", RatFunc(Poly([0, 4, 0, 4]),
                                                        Poly([1, 0, -4, 0, 1])))
    report = run_suite("REMARK", FAST)
    assert _failed(report) == [("f3", "starlike_derivative_formula")]
    row = _rows(report)["f3", "starlike_derivative_formula"]
    assert row["computed"] is None and row["proof"] == "exact" and "witness" not in row


def test_starlike_rows_agree_with_the_float_samples():
    # the 32 float samples the rows read before, at r = 0.9999: within 1e-3
    # of 2 cos t/(cos 2t - 3), as the exact identity says, and negative;
    # at z = (3 + 4i)/5 near the circle, about the exact -15/41
    entry = catalog_lookup("t4_re_koebe_im_halfplane")
    fm = entry.harmonic_map(verify._ORDER)
    s = verify._starlike_on_circle(fm)
    assert s.num * verify._F3_STARLIKE.den == verify._F3_STARLIKE.num * s.den
    for t in np.linspace(-math.pi / 2 + 0.1, math.pi / 2 - 0.1, 32):
        v = geomtest.starlike_derivative(fm, float(t), 0.9999)
        exact = s.num(cmath.exp(1j * t)) / s.den(cmath.exp(1j * t)) / 2
        assert abs(v - 2 * math.cos(t) / (math.cos(2 * t) - 3)) <= 1e-3
        assert abs(v - exact.real) <= 1e-3 and abs(exact.imag) < 1e-12 and v < 0
    rows = _rows(json.loads(DEFAULT_RECORDING.read_text(encoding="ascii")))
    assert rows["f3", "starlike_refuted"]["witness"] == {"z": "3/5+4/5 i", "re_Df_f": "-15/41"}
    t = math.atan2(4, 3)
    assert geomtest.starlike_derivative(fm, t, 0.9999) == pytest.approx(-15 / 41, abs=1e-3)
