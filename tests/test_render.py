"""SVG output: validity, determinism, gap handling, recorded digests."""

import hashlib
import json
import math
import tracemalloc
import xml.etree.ElementTree as ET
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmonic_atlas import NoClosedForm, Poly, RenderOptions, catalog_lookup, render_svg
from harmonic_atlas.analytic import LogTerm
from harmonic_atlas.shear import HarmonicMap
from harmonic_atlas.render import _path_data, _path_texts
from oracles import path_data_reference

SVG_NS = "{http://www.w3.org/2000/svg}"
# The benchmark's record of every `render <id>` at the default options:
# the SVG's sha256, or null where the entry cannot be rendered.
EXPECTED = json.loads(
    (Path(__file__).parent.parent / "perfbench" / "expected.json").read_text())


def render(eid, **kw):
    entry = catalog_lookup(eid)
    return render_svg(entry.harmonic_map(32), RenderOptions(**kw))


def test_identity_svg_parses_and_counts_curves():
    doc = render("identity", circles=4, rays=8, samples_per_curve=64)
    root = ET.fromstring(doc)
    paths = root.findall(f"{SVG_NS}path")
    assert len(paths) == 4 + 8 + 1      # circles + rays + boundary
    for p in paths:
        for token in p.attrib["d"].replace("M", " ").replace("L", " ").split():
            x, y = token.split(",")
            assert np.isfinite(float(x)) and np.isfinite(float(y))


def test_conj_square_fold_closed_boundary():
    doc = render("t4_conj_sq_plus", circles=3, rays=6, samples_per_curve=128)
    root = ET.fromstring(doc)
    boundary = root.findall(f"{SVG_NS}path")[-1]
    d = boundary.attrib["d"]
    first = d.split()[0].lstrip("M")
    last = d.split()[-1].lstrip("L")
    assert first == last  # closed polyline


def test_byte_identical_across_runs():
    a = render("vslits", circles=5, rays=9, samples_per_curve=200, r_max=0.98)
    b = render("vslits", circles=5, rays=9, samples_per_curve=200, r_max=0.98)
    assert a == b


def test_explicit_viewport():
    doc = render("koebe", viewport=(-2.0, 2.0, -2.0, 2.0), samples_per_curve=64)
    root = ET.fromstring(doc)
    box = [float(v) for v in root.attrib["viewBox"].split()]
    assert box[0] == pytest.approx(-2.2)
    assert box[2] == pytest.approx(4.4)


def test_options_validation():
    with pytest.raises(ValueError):
        RenderOptions(circles=0)
    with pytest.raises(ValueError):
        RenderOptions(r_max=1.0)
    for samples in (0, -3):
        with pytest.raises(ValueError, match="samples_per_curve must be >= 1"):
            RenderOptions(samples_per_curve=samples)
    with pytest.raises(ValueError, match="size must be >= 1"):
        RenderOptions(size=0)
    assert RenderOptions(samples_per_curve=1, size=1).samples_per_curve == 1
    # a reversed box gave a negative viewBox width and stroke-width, a NaN
    # entry gave viewBox="nan nan nan nan"
    nan, inf = float("nan"), float("inf")
    for box in ((2.0, -2.0, -2.0, 2.0), (-2.0, 2.0, 2.0, -2.0),
                (1.0, 1.0, -2.0, 2.0), (-2.0, 2.0, 0.5, 0.5)):
        with pytest.raises(ValueError, match="xmin < xmax and ymin < ymax"):
            RenderOptions(viewport=box)
    for box in ((nan, 2.0, -2.0, 2.0), (-2.0, 2.0, -2.0, nan),
                (-inf, 2.0, -2.0, 2.0), (-2.0, 2.0, -2.0, inf),
                (-2.0, 2.0, -2.0), (-2.0, 2.0, -2.0, 2.0, 0.0)):
        with pytest.raises(ValueError, match="four finite numbers"):
            RenderOptions(viewport=box)
    assert RenderOptions(viewport=(-2, 2, -1.5, 0.5)).viewport == (-2, 2, -1.5, 0.5)


def test_options_reject_oversized_render_before_allocating():
    # (circles + rays + 1) * samples_per_curve is capped at 2**20 points
    assert RenderOptions(circles=5, rays=10, samples_per_curve=2**16).rays == 10
    for kw in ({"circles": 5, "rays": 10, "samples_per_curve": 2**16 + 1},
               {"samples_per_curve": 10**9}, {"circles": 10**9}, {"rays": 2**20}):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"samples_per_curve must be <= 1048576"):
                RenderOptions(**kw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000, (kw, peak)


def test_single_sample_per_curve_renders():
    doc = render("koebe", circles=2, rays=3, samples_per_curve=1)
    paths = ET.fromstring(doc).findall(f"{SVG_NS}path")
    assert len(paths) == 2 + 3 + 1


@pytest.mark.parametrize("eid", EXPECTED["render_ids"])
def test_render_matches_recorded_digest(eid):
    want = EXPECTED["ops"][f"render {eid}"]["sha256"]
    if want is None:
        with pytest.raises(NoClosedForm):
            render_svg(catalog_lookup(eid).harmonic_map(32))
        return
    doc = render_svg(catalog_lookup(eid).harmonic_map(32))
    assert hashlib.sha256(doc.encode()).hexdigest() == want


def test_render_computes_each_distinct_value_once_per_batch(monkeypatch):
    # a render evaluates f = h + conj(g) in one batch, all curves together;
    # within it, each distinct polynomial of h and g is Horner-evaluated once
    # and each distinct log argument goes through np.log once, though g
    # repeats h's terms as separately built objects
    horner, logs, batches = [], [], []
    plain_call, plain_log = Poly.__call__, np.log
    plain_masked = HarmonicMap.eval_masked

    def counting_call(self, z):
        horner.append(self)
        return plain_call(self, z)

    def counting_log(x):
        logs.append(x)
        return plain_log(x)

    def batch(self, zs):
        horner.clear()
        logs.clear()
        out = plain_masked(self, zs)
        batches.append((Counter(horner), len(logs)))
        return out

    monkeypatch.setattr(Poly, "__call__", counting_call)
    monkeypatch.setattr(np, "log", counting_log)
    monkeypatch.setattr(HarmonicMap, "eval_masked", batch)
    # f4_cv1's g repeats both logs of h
    for eid, n_args in (("f9_cv1", 0), ("f4_cv1", 2), ("koebe", 0)):
        fm = catalog_lookup(eid).harmonic_map(32)
        terms = fm.h_expr.terms + fm.g_expr.terms
        polys = {p for t in terms for p in t[1:]}
        args = {t.arg for t in terms if isinstance(t, LogTerm)}
        assert len(args) == n_args, eid
        batches.clear()
        render_svg(fm)
        [(calls, n_logs)] = batches
        assert set(calls) == polys and set(calls.values()) == {1}, eid
        assert n_logs == n_args, eid


CLOSED_FORM_IDS = [eid for eid in EXPECTED["render_ids"]
                   if EXPECTED["ops"][f"render {eid}"]["sha256"] is not None]


@pytest.mark.parametrize("eid", CLOSED_FORM_IDS)
def test_render_paths_match_reference_near_the_circle(eid):
    # near the circle 94 points are masked near a pole and 2 coordinates
    # reach 1e4 (more integer digits than a word holds, so "%.6f" formats them)
    circles, rays, n, r_max = 3, 5, 37, 0.99999999
    fm = catalog_lookup(eid).harmonic_map(32)
    doc = render_svg(fm, RenderOptions(circles=circles, rays=rays, r_max=r_max,
                                       samples_per_curve=n))
    ring = np.exp(2j * np.pi * np.arange(n) / n)
    ts = np.linspace(0.0, r_max, n)
    curves = ([(r_max * k / (circles + 1) * ring, True) for k in range(1, circles + 1)]
              + [(ts * np.exp(2j * np.pi * j / rays), False) for j in range(rays)]
              + [(r_max * ring, True)])
    vals, ok = fm.eval_masked(np.concatenate([zs for zs, _ in curves]))
    want = [path_data_reference(vals[k * n:(k + 1) * n], ok[k * n:(k + 1) * n], close)
            for k, (_, close) in enumerate(curves)]
    got = [p.attrib["d"] for p in ET.fromstring(doc).findall(f"{SVG_NS}path")]
    assert got == [d for d in want if d]


def test_render_peak_memory():
    # on f9_cv1 the per-curve loop peaked at 1.66 MB, a single batch of all
    # 25 curves at about 3.1 MB; f18_cvi, whose h and g share five values,
    # has the highest peak of the closed-form entries (2.18 MB)
    for entry_id in ("f9_cv1", "f18_cvi"):
        fm = catalog_lookup(entry_id).harmonic_map(32)
        want = render_svg(fm)
        tracemalloc.start()
        try:
            doc = render_svg(fm)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert doc == want
        assert peak < 2.5e6, (entry_id, peak)


# -- path data against the per-point reference -----------------------------------

def test_path_data_format():
    vals = np.array([1 + 2j, 3 - 4j, 5j, complex(-0.0, 0.0)])
    ok = np.array([True, True, False, True])
    assert (_path_data(vals, ok, close=True)
            == "M1.000000,-2.000000 L3.000000,4.000000 M-0.000000,-0.000000 L1.000000,-2.000000")
    assert _path_data(vals, ok, close=False) == "M1.000000,-2.000000 L3.000000,4.000000 M-0.000000,-0.000000"


EDGE_VALS = np.array([complex(-0.0, 0.0), 0.0000005 - 0.0000005j, 1e6 + 2.5e-7j,
                      -1234567.0000005 + 999999.9999995j, 1.5 - 0.0j, 0j])
EDGE_MASKS = {
    "first_masked": [False, True, True, True, True, True],
    "last_masked": [True, True, True, True, True, False],
    "both_ends_masked": [False, True, True, True, True, False],
    "single_point_runs": [True, False, True, False, True, False],
    "single_point_run_at_end": [False, True, True, False, False, True],
    "all_masked": [False] * 6,
    "none_masked": [True] * 6,
}


@pytest.mark.parametrize("close", [False, True])
@pytest.mark.parametrize("mask", EDGE_MASKS.values(), ids=EDGE_MASKS.keys())
def test_path_data_edge_cases_match_reference(mask, close):
    ok = np.array(mask)
    assert _path_data(EDGE_VALS, ok, close) == path_data_reference(EDGE_VALS, ok, close)


@pytest.mark.parametrize("close", [False, True])
def test_path_data_empty(close):
    vals, ok = np.zeros(0, complex), np.zeros(0, bool)
    assert _path_data(vals, ok, close) == path_data_reference(vals, ok, close) == ""


# exact ties k/128; 1 ulp either side of 0.0000015; x*1e6 rounded onto a
# tie that x is not on; either side of x*1e6 rounding to 1e10, where the
# integer digits outgrow their word; too wide for the 16-byte row; rounding
# to -0.000000; not finite
HARD_COORDS = [0.0078125, 0.0234375,
               math.nextafter(0.0000015, 0.0), math.nextafter(0.0000015, 1.0), 3.5e-6,
               9999.9999994, 9999.9999996, 1e4, -9999.9999994, -9999.9999996, -1e4,
               999999.9999995, 1e8, 1e16, 1e308,
               -1e-9, math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("x", HARD_COORDS, ids=repr)
def test_path_data_hard_values_match_percent_format(x):
    for v in (x, -x):
        assert (_path_data(np.array([complex(v, -v)]), np.array([True]), close=False)
                == "M%.6f,%.6f" % (v, v))


_COORDS = st.one_of(
    st.floats(),
    st.floats(min_value=-2e6, max_value=2e6),
    st.floats(min_value=-2e4, max_value=2e4),  # both sides of 1e4 in one batch
    st.sampled_from([0.0, -0.0, 5e-7, -5e-7, 0.0000015, 2.5e-6, 1e6, -1e6 + 5e-7]
                    + HARD_COORDS),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_COORDS, _COORDS, st.booleans()), max_size=40), st.booleans())
def test_path_data_matches_reference(points, close):
    vals = np.array([complex(x, y) for x, y, _ in points], dtype=complex)
    ok = np.array([good for _, _, good in points], dtype=bool)
    assert _path_data(vals, ok, close) == path_data_reference(vals, ok, close)


_CURVE = st.tuples(st.lists(st.tuples(_COORDS, _COORDS, st.booleans()), max_size=12),
                   st.booleans())


@settings(max_examples=200, deadline=None)
@given(st.lists(_CURVE, min_size=1, max_size=30))
def test_path_texts_match_reference_curve_by_curve(curves):
    vals = [np.array([complex(x, y) for x, y, _ in pts], dtype=complex) for pts, _ in curves]
    oks = [np.array([good for _, _, good in pts], dtype=bool) for pts, _ in curves]
    closes = [close for _, close in curves]
    got = _path_texts(np.concatenate(vals), np.concatenate(oks),
                      [v.size for v in vals], closes)
    assert got == [path_data_reference(v, ok, close)
                   for v, ok, close in zip(vals, oks, closes)]
