"""SVG output: validity, determinism, gap handling, recorded digests."""

import hashlib
import json
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmonic_atlas import NoClosedForm, RenderOptions, catalog_lookup, render_svg
from harmonic_atlas.render import _path_data
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


_COORDS = st.one_of(
    st.floats(),
    st.floats(min_value=-2e6, max_value=2e6),
    st.sampled_from([0.0, -0.0, 5e-7, -5e-7, 0.0000015, 2.5e-6, 1e6, -1e6 + 5e-7]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_COORDS, _COORDS, st.booleans()), max_size=40), st.booleans())
def test_path_data_matches_reference(points, close):
    vals = np.array([complex(x, y) for x, y, _ in points], dtype=complex)
    ok = np.array([good for _, _, good in points], dtype=bool)
    assert _path_data(vals, ok, close) == path_data_reference(vals, ok, close)
