"""Claim-table driver: suite contents and summary bookkeeping."""

import json
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from harmonic_atlas import (
    AnalyticExpr, CatalogEntry, FlagSet, Poly, catalog, catalog_ids, catalog_lookup, verify,
)
from harmonic_atlas import shear as shear_mod
from harmonic_atlas.exprtext import parse_gauss
from harmonic_atlas.shear import HarmonicMap
from harmonic_atlas.verify import SUITES, VerifyConfig, report_json, run_suite

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
    ("order", 0), ("order", verify._MAX_ORDER + 1), ("grid_radii", 0),
    ("grid_angles", 0), ("grid_angles", verify._MAX_GRID_POINTS // 64 + 1),
])
def test_config_checks_its_ranges(field, value):
    # the API refuses what the CLI refuses, before a series or grid exists
    with pytest.raises(ValueError, match="out of range"):
        VerifyConfig(**{field: value})


def test_config_accepts_its_range_ends():
    VerifyConfig(order=verify._MAX_ORDER, grid_radii=1, grid_angles=verify._MAX_GRID_POINTS)
    VerifyConfig(order=1, grid_radii=verify._MAX_GRID_POINTS, grid_angles=1)


# -- exact rows: maps at their proof orders, closed forms compared exactly ------

def test_verify_all_shears_closed_forms_at_their_proof_orders(monkeypatch):
    # a cold `verify all` at the default config integrates the 8 shears
    # without closed forms at order 64 and the other 48 at the orders that
    # prove their closed forms; |omega| < 1 is sampled for +z and -z only
    monkeypatch.setattr(catalog, "_INDEX", {})
    shear_mod._omega_peak.cache_clear()
    orders = Counter()
    real = shear_mod._shear

    def spy(source, omega, order, s):
        orders[order] += 1
        return real(source, omega, order, s)

    monkeypatch.setattr(shear_mod, "_shear", spy)
    assert run_suite("all", VerifyConfig())["summary"]["matched"] == 207
    shears = [catalog_lookup(eid) for eid in catalog_ids()]
    shears = [e for e in shears if e.recipe is not None]
    want = Counter(64 if e.h is None else e.proof_order for e in shears)
    assert len(shears) == sum(orders.values()) == 56
    assert orders == want
    assert orders[64] == sum(e.h is None for e in shears) == 8
    assert set(orders) - {64} <= set(range(2, 14))
    assert shear_mod._omega_peak.cache_info().misses == 2


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
            return AnalyticExpr.rational(c, Poly([0] * (fm.order + 2) + [1]))
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
    assert _failed(report) == [("f3_cv1", "series_twin"), (twin, "half_integer_coeffs")]


def test_mutated_t4_g_fails_its_rows(monkeypatch):
    # a wrong term past the order in the hand-typed g of conj_sq_plus breaks
    # its class and its twin f17_cv1
    twin = "t4_conj_sq_plus"
    _mutate_past_the_order(monkeypatch, twin, 0, _TINY)
    report = run_suite("T41", FAST)
    assert _failed(report) == [("f17_cv1", "series_twin"), (twin, "half_integer_coeffs")]


@pytest.mark.parametrize("eid, row", [
    ("t4_re_koebe_im_halfplane", ("f3", "m_theta_0_margin")),
    ("t6_re_halfplane_im_koebe", ("f9", "m_pi_coefficient_identity")),
])
def test_mutated_dilatation_fails_its_row(monkeypatch, eid, row):
    # g' = +-z h' holds to the map's order but not past it: the identity
    # row (and the margin row it gates) fails
    _mutate_past_the_order(monkeypatch, eid, 0, _TINY)
    assert _failed(run_suite("REMARK", FAST)) == [row]


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
        "exact": 185, "order": 0, "grid": 22, "asserted": 2}
    rows = _rows(report).values()
    assert all(r["asserted"] == (r["proof"] == "asserted") for r in rows)
    assert sum(s["summary"]["proofs"]["exact"] for s in report["suites"]) == 185


def test_series_rows_below_their_witness_index_hold_to_the_order():
    # at order 3 two shears without closed forms read as half-integer in
    # their series, a yes that holds to that order only, and so does the
    # count of them
    report = run_suite("T41", VerifyConfig(order=3, grid_radii=16, grid_angles=64))
    order_rows = sorted(k for k, r in _rows(report).items() if r["proof"] == "order")
    assert order_rows == [("f13_cv1", "half_integer_coeffs"),
                          ("f16_cv1", "half_integer_coeffs"),
                          ("~cv1_half_integer_count", "count")]
    assert report["summary"]["proofs"]["order"] == 3


_U_CLASS_IDS = catalog_ids("S_Z") + catalog_ids("T2")
_TWIN_IDS = catalog_ids("T4") + catalog_ids("T6")


def test_the_19_exact_rows_agree_with_the_grid_checks():
    grid = VerifyConfig().grid()
    assert len(_U_CLASS_IDS) == 11 and len(_TWIN_IDS) == 8
    for eid in _U_CLASS_IDS:
        f = catalog_lookup(eid).h
        in_class, witness = verify._u_class_exact(f, grid)
        margin = verify.u_class_margin(f, grid).margin
        assert in_class == (margin >= -1e-9) == catalog_lookup(eid).expected.u_class, eid
        if not in_class:
            # the float |R| at the exact witness exceeds 1, as the grid's does
            z = complex(parse_gauss(witness["z"]))
            r = f.derivative().eval(z) * (z / f.eval(z)) ** 2 - 1
            assert abs(r) ** 2 == pytest.approx(float(Fraction(witness["abs2_R"])))
            assert abs(z) < 1 < abs(r)
    for eid in _TWIN_IDS:
        entry = catalog_lookup(eid)
        fm = entry.harmonic_map(entry.proof_order)
        assert verify._jacobian_exact(fm) is not None, eid
        assert verify.jacobian_min(fm, grid).margin > 0, eid


def test_verify_all_runs_neither_grid_check_of_the_exact_rows(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("grid check called")

    monkeypatch.setattr(verify, "u_class_margin", refuse)
    monkeypatch.setattr(verify, "jacobian_min", refuse)
    report = run_suite("all", FAST)
    assert report["summary"]["matched"] == report["summary"]["total"] == 207
    rows = [r for r in _rows(report).values()
            if r["check"] in ("u_class_margin", "jacobian_positive")]
    assert len(rows) == 19
    assert all(r["proof"] == "exact" and r["witness"] for r in rows)
    # a witness is exact text: strings only, no float anywhere
    assert all(isinstance(v, str) for r in rows for v in r["witness"].values())


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


def test_undecided_u_class_row_falls_back_to_the_grid(monkeypatch):
    # R = -z^2/(4 (1 + z/4)^2) for f = z + z^2/4: not a monomial, and
    # |R| <= 1/9 leaves no witness, so the grid decides, as before
    f = AnalyticExpr.rational(Fraction(1, 4), Poly([0, 4, 1]))
    assert verify._u_class_exact(f, FAST.grid()) is None
    _replace_entry(monkeypatch, "koebe", h=f)
    row = _rows(run_suite("T31", FAST))["koebe", "u_class_margin"]
    assert row["proof"] == "grid" and "witness" not in row
    assert row["match"] and row["computed"] > 0


def test_witness_outside_the_disk_is_rejected():
    r = verify._u_class_quotient(catalog_lookup("hslits_wide_avg").h).reduced()
    inside = parse_gauss("9/25+93/100 i")
    assert verify._outside_witness(r, inside)["abs2_z"] == "1989/2000"
    for z in ("1", "-1", "3/5+4/5 i", "1/2+9/10 i"):  # |z| >= 1
        assert verify._outside_witness(r, parse_gauss(z)) is None
    assert verify._outside_witness(r, parse_gauss("1/10")) is None  # |R| < 1 there


def test_ring_point_rounding_out_of_the_disk_falls_back_to_the_grid():
    # one angle: the ring is the point 0.999, which rounds to 1
    report = run_suite("T31", VerifyConfig(order=16, grid_radii=16, grid_angles=1))
    rows = _rows(report)
    assert [rows[eid, "u_class_margin"]["proof"] for eid in catalog_ids("T2")] == [
        "grid", "grid"]
    assert rows["koebe", "u_class_margin"]["proof"] == "exact"


def test_jacobian_row_with_h_prime_not_constant_falls_back_to_the_grid(monkeypatch):
    # koebe's h' = (1 + z)/(1 - z)^3 has a numerator that is not constant
    koebe = catalog_lookup("koebe").harmonic_map(4)
    assert verify._jacobian_exact(koebe) is None
    # a twin with c z^(N+2) added to h and g: its h' numerator is no
    # longer constant, and the grid decides its row, as before
    twin = "t4_re_koebe_im_halfplane"
    _mutate_past_the_order(monkeypatch, twin, _TINY, _TINY)
    rows = _rows(run_suite("T41", FAST))
    assert rows[twin, "jacobian_positive"]["proof"] == "grid"
    assert rows[twin, "jacobian_positive"]["match"]
    assert rows["t4_conj_sq_plus", "jacobian_positive"]["proof"] == "exact"


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
