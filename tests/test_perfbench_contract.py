"""The benchmark's hold on the package: the names and arguments that
``perfbench/spans.py`` reads when it traces a run."""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import spans  # noqa: E402

import harmonic_atlas.cli  # noqa: E402,F401  (the tracer wraps cli.main too)
from harmonic_atlas import catalog_lookup, verify  # noqa: E402
from harmonic_atlas.render import RenderOptions  # noqa: E402

# The parameters that a target's attrs or name factory reads by name.  The
# Series product and reciprocal factories read their arguments by position.
_READS = {
    "AnalyticExpr.series": ("order",),
    "CatalogEntry.harmonic_map": ("order",),
    "AnalyticExpr.eval": ("z",),
    "rz_search": ("grid", "mu_steps", "nu_steps"),
    "render_svg": ("opts",),
    "run_suite": ("name",),
}


def _resolve(mod_name, path):
    obj = importlib.import_module(f"{spans.PACKAGE}.{mod_name}")
    for attr in path.split("."):
        obj = getattr(obj, attr)
    return obj


@pytest.mark.parametrize("target", spans.TARGETS, ids=lambda t: f"{t[0]}.{t[1]}")
def test_every_target_resolves(target):
    mod_name, path, _, _ = target
    assert callable(_resolve(mod_name, path))


def test_every_named_read_is_a_parameter():
    by_name = {t[1] for t in spans.TARGETS
               if not isinstance(t[2], str)
               or t[3] not in (None, spans._mul_attrs, spans._reciprocal_attrs)}
    assert by_name == set(_READS)
    for mod_name, path, _, _ in spans.TARGETS:
        if path in _READS:
            params = inspect.signature(_resolve(mod_name, path)).parameters
            assert set(_READS[path]) <= set(params), path


def test_render_attrs_read_the_options():
    # no traced run of the tier-1 suite renders, so the factory is called
    # here on render_svg's own signature, with its default options
    from harmonic_atlas.render import render_svg

    attrs = spans._render_attrs(render_svg)
    o = RenderOptions()
    assert attrs((None,), {}) == {"points": (o.circles + o.rays + 1) * o.samples_per_curve}
    assert attrs((None, RenderOptions(circles=2, rays=3, samples_per_curve=10)), {}) == {
        "points": 60}


def test_traced_verify_reports_rz_search_points():
    # a renamed rz_search parameter would break every traced run that
    # searches; ``verify`` decides its certificates exactly, so the search
    # is called directly, by the name the tracer wraps in ``verify``
    h = catalog_lookup("hslits_wide").h
    grid = verify.VerifyConfig(order=16, grid_radii=16, grid_angles=64).grid()
    plain = verify.rz_search(h, "real", grid)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = verify.rz_search(h, "real", grid)
    finally:
        tracer.uninstall()
    tracer.assert_clean()
    assert traced == plain is not None
    searches = [s for s in tracer.spans if s.name == "geomtest.rz_search"]
    assert len(searches) == 1
    assert searches[0].attrs == {"points": 4 * 7 * 1024}
