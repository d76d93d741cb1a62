"""Catalog: cardinalities, invariants, lookups, atlas export."""

import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import harmonic_atlas.catalog as catalog_module
from harmonic_atlas import (
    AnalyticExpr, GaussRational, Series, UnknownId, catalog_build, catalog_ids,
    catalog_lookup, coeff_class, dilatation_check, export_atlas, format_expr,
    parse_expr_text,
)
from harmonic_atlas.cli import main
from oracles import compose_linear

F = Fraction
ATLAS = Path(__file__).parent / "data" / "atlas.json"


def test_family_cardinalities(catalog):
    counts = Counter(e.family for e in catalog)
    assert counts["S_Z"] == 9
    assert counts["T1"] == 10
    assert counts["T2"] == 2
    assert counts["S1"] == 8
    assert counts["T3"] == 7
    assert counts["T4"] == 6
    assert counts["T5"] == 9
    assert counts["T6"] == 2
    assert counts["PROOF_CV1"] == 30
    assert counts["PROOF_CVI"] == 18


def test_union_cardinalities(catalog):
    counts = Counter(e.family for e in catalog)
    assert counts["T1"] + counts["T2"] == 12
    assert counts["S1"] + counts["T3"] + counts["T4"] == 21
    assert counts["T5"] + counts["T6"] == 11


def test_ids_unique(catalog):
    ids = [e.id for e in catalog]
    assert len(ids) == len(set(ids))


def test_lookup_named_entries():
    k = catalog_lookup("koebe")
    assert k.family == "S_Z"
    assert k.expected.cv_real is True and k.expected.cv_imag is False
    f3 = catalog_lookup("f3_cv1")
    assert f3.expected.half_integer_coeffs is True
    hk = catalog_lookup("harmonic_koebe")
    assert hk.id == "f9_cv1"


def test_lookup_unknown_id():
    with pytest.raises(UnknownId):
        catalog_lookup("zero-id")


def test_t4_omega_is_plus_minus_z(catalog):
    for e in catalog:
        if e.family in ("T4", "T6"):
            s = e.omega.series(3)
            assert s.coeff(0) == 0 and s.coeff(1) in (1, -1)
            assert s.coeff(2) == 0 and s.coeff(3) == 0


def test_normalization_invariants(catalog):
    for e in catalog:
        fm = e.harmonic_map(8)
        assert fm.h_series.coeff(0) == 0
        assert fm.h_series.coeff(1) == 1
        assert fm.g_series.coeff(0) == 0
        if not e.is_conformal:
            assert fm.g_series.coeff(1) == 0, e.id  # normalized subclass


def test_sz_entries_have_integer_coefficients(catalog):
    for e in catalog:
        if e.family == "S_Z":
            assert coeff_class(e.harmonic_map(64).h_series).klass == "integer", e.id


def test_t1_entries_are_half_integer_not_integer(catalog):
    for e in catalog:
        if e.family in ("T1", "T2"):
            assert coeff_class(e.harmonic_map(64).h_series).klass == "half_integer", e.id


def test_t2_flags():
    for eid in ("hslits_wide_avg", "hslits_wide_avg_r"):
        f = catalog_lookup(eid).expected
        assert f.cv_real is False and f.cv_imag is False
        assert f.u_class is False


def test_reflection_pairs_exact():
    # "+"/"-" pairs are related by -e(-z), except the even-denominator
    # pairs which are related by the quarter-turn -i e(iz)
    neg_pairs = [
        ("halfplane", "halfplane_r"), ("koebe", "koebe_r"),
        ("hslits_wide", "hslits_wide_r"), ("cardioid_r", "cardioid"),
        ("halfplane_avg", "halfplane_avg_r"), ("offset_vslits", "offset_vslits_r"),
        ("parabola", "parabola_r"), ("hslits_wide_avg", "hslits_wide_avg_r"),
    ]
    rot_pairs = [("hslits", "vslits"), ("hslits_avg", "vslits_avg")]
    i = GaussRational(0, 1)
    for pairs, c, factor in ((neg_pairs, -1, -1), (rot_pairs, i, -i)):
        for a, b in pairs:
            coeffs = compose_linear(catalog_lookup(a).h.series(32).coeffs, c)
            assert Series(coeffs).scale(factor) == catalog_lookup(b).h.series(32), (a, b)


def test_dilatation_identity_t4_t6(catalog):
    for e in catalog:
        if e.family in ("T4", "T6"):
            assert dilatation_check(e.harmonic_map(32)), e.id


def test_family_duplicates_share_series(catalog):
    for e in catalog:
        if e.family in ("S1", "T3", "T5"):
            base = catalog_lookup(e.id.split("_", 1)[1])
            assert e.harmonic_map(24).h_series == base.harmonic_map(24).h_series


def test_t6_entries_coincide_with_their_t4_twins():
    pairs = [("t6_re_halfplane_im_koebe", "t4_re_halfplane_im_koebe"),
             ("t6_re_halfplane_r_im_koebe_r", "t4_re_halfplane_r_im_koebe_r")]
    for a, b in pairs:
        fa, fb = catalog_lookup(a).harmonic_map(32), catalog_lookup(b).harmonic_map(32)
        assert fa.h_series == fb.h_series and fa.g_series == fb.g_series


def test_proof_shears_take_h_and_flags_from_their_twins(catalog):
    # each T4/T6 map is stated once: the proof shear with the same recipe
    # (source, omega sign, axis) names it as twin and shares its h and flags
    twins = {e.recipe: e for e in catalog if e.family in ("T4", "T6")}
    assert len(twins) == 8
    proofs = {e.recipe: e for e in catalog if e.family.startswith("PROOF_")}
    for recipe, twin in twins.items():
        shear = proofs[recipe]
        assert shear.twin == twin.id
        assert shear.h is twin.h, shear.id
        assert shear.expected == twin.expected, shear.id
    for shear in proofs.values():
        if shear.twin is None:
            assert shear.expected.half_integer_coeffs is False, shear.id
            assert shear.expected.starlike is None, shear.id


def test_t6_rows_take_h_and_g_from_their_t4_namesakes():
    for cid in catalog_ids("T6"):
        t6, t4 = catalog_lookup(cid), catalog_lookup("t4_" + cid.removeprefix("t6_"))
        assert t6.h is t4.h and t6.g is t4.g, cid
        assert t6.recipe.axis == "imag" and t4.recipe.axis == "real"


def test_catalog_ids_filter(catalog):
    assert len(catalog_ids("T4")) == 6
    assert len(catalog_ids()) == 101
    assert catalog_ids() == [e.id for e in catalog]
    for family in {e.family for e in catalog}:
        assert catalog_ids(family) == [e.id for e in catalog if e.family == family]


def _family_ids(*families):
    return [cid for family in families for cid in catalog_ids(family)]


# suite -> (the ids it reads, the number of entries it builds in all)
_SUITE_READS = {
    "T31": (_family_ids("S_Z", "T2"), 11),
    "T32": (_family_ids("S_Z"), 9),
    "T41": (_family_ids("S1", "T3", "T4", "PROOF_CV1"), 66),
    "T42": (_family_ids("T5", "T6", "PROOF_CVI"), 38),
    "LEM42": (_family_ids("T1", "T2"), 12),
    "REMARK": (["t4_re_koebe_im_halfplane", "t6_re_halfplane_im_koebe"], 3),
}


@pytest.mark.parametrize("suite", sorted(_SUITE_READS))
def test_verify_builds_only_the_entries_it_reads(suite):
    # a suite reads its families through catalog_ids, which takes them from
    # the id table, so a fresh process builds those entries and the sources
    # and twins their maps read, and no other
    ids, count = _SUITE_READS[suite]
    script = "\n".join((
        "import contextlib, io",
        "from harmonic_atlas import catalog",
        "from harmonic_atlas.cli import main",
        "with contextlib.redirect_stdout(io.StringIO()):",
        f"    assert main(['verify', {suite!r}]) == 0",
        "print(*catalog._INDEX)",
    ))
    src = str(Path(catalog_module.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    built = out.stdout.split()
    read = [catalog_lookup(cid) for cid in ids]
    want = {e.id for e in read}
    want |= {e.recipe.source_id for e in read if e.recipe is not None}
    want |= {e.twin for e in read if e.twin is not None}
    assert len(built) == count
    assert set(built) == want


def test_atlas_export_roundtrip():
    atlas = export_atlas()
    assert atlas["schema"] == 1
    assert len(atlas["entries"]) == 101
    json.dumps(atlas)  # serializable
    for row in atlas["entries"]:
        if row["h"] is not None:
            expr = parse_expr_text(row["h"])
            assert expr.series(12) == catalog_lookup(row["id"]).h.series(12)


def test_closed_forms_are_canonical_atlas_text():
    # the catalog's source text is the text `list --json` prints
    m = catalog_module
    forms = [row[0] for row in m._CONFORMAL.values()]
    forms += [row[1] for row in m._T4.values()]
    forms += [*m._CV1_H_EXPRS.values(), *m._CVI_H_EXPRS.values()]
    assert len(forms) == 59
    for text in forms:
        assert format_expr(parse_expr_text(text)) == text
    # a T4 row's h is named, not restated: it is a conformal entry
    for suffix, row in m._T4.items():
        assert catalog_lookup(f"t4_{suffix}").h is catalog_lookup(row[0]).h


def test_catalog_build_validates_no_expression(monkeypatch):
    # every closed form, dilatation and zero g is parsed once, at import
    calls = []
    plain = AnalyticExpr._validate

    def counting_validate(self):
        calls.append(self)
        return plain(self)

    monkeypatch.setattr(AnalyticExpr, "_validate", counting_validate)
    AnalyticExpr(())  # AnalyticExpr.zero() is one shared object, built at import
    assert len(calls) == 1  # it counts
    calls.clear()
    # no entry built yet: a cold, full build
    monkeypatch.setattr(catalog_module, "_INDEX", {})
    assert len(catalog_build()) == 101
    assert len(catalog_module._INDEX) == 101
    assert calls == []


# a conformal base entry, a family copy, a T6 row, a proof shear with a
# twin, one with a closed form of its own, and an alias
LAZY_IDS = ["koebe", "s1_koebe", "t6_re_halfplane_im_koebe", "f3_cv1", "f9_cv1",
            "harmonic_koebe"]


@pytest.mark.parametrize("lookup_first", [True, False], ids=["lookup", "build"])
def test_lookup_and_build_share_one_entry_per_id(monkeypatch, lookup_first):
    monkeypatch.setattr(catalog_module, "_INDEX", {})
    if lookup_first:
        looked = [catalog_lookup(i) for i in LAZY_IDS]
        built = catalog_build()
    else:
        built = catalog_build()
        looked = [catalog_lookup(i) for i in LAZY_IDS]
    by_id = {e.id: e for e in built}
    assert len(by_id) == 101
    for i, entry in zip(LAZY_IDS, looked):
        assert entry is by_id[catalog_module._ALIASES.get(i, i)]
        assert catalog_lookup(i) is entry
    assert looked[-1] is looked[-2]
    twinned = by_id["f3_cv1"]
    assert twinned.twin == "t4_re_koebe_im_halfplane"
    assert twinned.h is by_id[twinned.twin].h
    assert twinned.expected is by_id[twinned.twin].expected
    # the order and content of a full build do not depend on what came first
    assert export_atlas() == json.loads(ATLAS.read_text(encoding="utf-8"))


def test_lookup_builds_only_what_it_needs(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(catalog_module, "_INDEX", {})
    assert main(["expand", "koebe", "3"]) == 0
    assert "h: 0 1 2 3" in capsys.readouterr().out
    assert sorted(catalog_module._INDEX) == ["koebe"]
    # a twinned shear builds its twin; its source comes with its map
    shear = catalog_lookup("f3_cv1")
    assert sorted(catalog_module._INDEX) == ["f3_cv1", "koebe",
                                             "t4_re_koebe_im_halfplane"]
    shear.harmonic_map(4)
    assert sorted(catalog_module._INDEX) == ["f3_cv1", "halfplane", "koebe",
                                             "t4_re_koebe_im_halfplane"]
    with pytest.raises(UnknownId):
        catalog_lookup("no_such_entry")
    assert len(catalog_module._INDEX) == 4
    assert main(["render", "no_such_entry", str(tmp_path / "x.svg")]) == 2
    assert "unknown catalog id 'no_such_entry'" in capsys.readouterr().err


# id -> family, as pinned in the atlas recording; the names are its ids and the aliases
_PINNED = {row["id"]: row["family"]
           for row in json.loads(ATLAS.read_text(encoding="utf-8"))["entries"]}
_NAMES = sorted(_PINNED) + sorted(catalog_module._ALIASES)
_CHARS = sorted(set("".join(_NAMES))) + ["0", "T", "S", "F", " ", "\n", "\u0669", "\u00b2"]


def _edited(name, at, char, how):
    return {"replace": name[:at] + char + name[at + 1:], "insert": name[:at] + char + name[at:],
            "delete": name[:at] + name[at + 1:]}[how]


def _assert_lookup_reads_only_catalog_ids(text):
    eid = catalog_module._ALIASES.get(text, text)
    if eid in _PINNED:
        entry = catalog_lookup(text)
        assert (entry.id, entry.family) == (eid, _PINNED[eid])
    else:
        with pytest.raises(UnknownId):
            catalog_lookup(text)


@settings(max_examples=400, deadline=None)
@given(st.one_of(
    st.sampled_from(_NAMES),
    st.text(st.sampled_from(_CHARS), max_size=30),
    st.builds(_edited, st.sampled_from(_NAMES), st.integers(0, 30), st.sampled_from(_CHARS),
              st.sampled_from(["replace", "insert", "delete"])),
))
def test_lookup_decodes_exactly_the_catalog_ids(text):
    # an id, an alias, an id one character off, or any string of the ids'
    # characters: the lookup finds exactly the pinned ids and aliases
    assert catalog_ids() == list(_PINNED)
    _assert_lookup_reads_only_catalog_ids(text)


# one character or one digit off an id: a leading zero, a non-ASCII digit,
# k = 0, k past the last source, an unknown tag, a conformal id outside the
# prefix's family, an empty suffix, a capital prefix, padding, and a numeral
# too long for int() to read
NEAR_IDS = ["f09_cv1", "f\u0669_cv1", "f0_cv1", "f31_cv1", "f19_cvi", "f9_cv2",
            "s1_cardioid", "t4_", "T4_re_koebe_im_halfplane", " koebe", "koebe ",
            "f9_cv1\n", "\tt6_re_halfplane_im_koebe", "f+9_cv1", "f1_0_cv1",
            "f" + "9" * 5000 + "_cv1"]


@pytest.mark.parametrize("text", NEAR_IDS, ids=range(len(NEAR_IDS)))
def test_near_ids_are_unknown(capsys, tmp_path, text):
    _assert_lookup_reads_only_catalog_ids(text)
    assert text not in _PINNED
    assert main(["expand", text, "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: not a catalog id and not parseable: {text!r} ("), err
    assert main(["render", text, str(tmp_path / "x.svg")]) == 2
    assert capsys.readouterr().err == f"error: unknown catalog id {text!r}\n"


def test_cold_commands_write_out_no_id_list():
    # a lookup decodes its id: with the one id list refused, four cold
    # commands still run, and they build only the entries they name and the
    # sources and twins those read
    script = "\n".join((
        "import contextlib, io",
        "from harmonic_atlas import catalog",
        "from harmonic_atlas.cli import main",
        "def refuse():",
        "    raise RuntimeError('the id list was written out')",
        "catalog._families = refuse",
        "try:",
        "    catalog.catalog_ids()",
        "except RuntimeError:",
        "    pass",
        "else:",
        "    raise AssertionError('catalog_ids did not read the refused list')",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    for argv in (['expand', 'koebe', '128'], ['expand', 'f9_cv1', '128'],",
        "                 ['expand', 'f3_cvi', '128'],",
        "                 ['classify', 't4_re_koebe_im_halfplane']):",
        "        assert main(argv) == 0, argv",
        "print(*sorted(catalog._INDEX))",
    ))
    src = str(Path(catalog_module.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    # f9_cv1 and f3_cvi are sheared from koebe and halfplane, and have no
    # twin; the T4 entry is sheared from halfplane, and its h is parabola's
    # expression, not an entry
    assert out.stdout.split() == ["f3_cvi", "f9_cv1", "halfplane", "koebe",
                                  "t4_re_koebe_im_halfplane"]


def test_boundary_descriptors_present():
    assert catalog_lookup("parabola").expected.boundary.kind == "parabola"
    bd = catalog_lookup("offset_vslits").expected.boundary
    assert bd.kind == "slit_lines"
    # sqrt(3)/4 stored exactly as (0, 1/4)
    assert bd.params[1] == (F(0), F(1, 4))
