"""The benchmark's hold on the package: the names and arguments that
``perfbench/spans.py`` reads when it traces a run."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import spans  # noqa: E402

import harmonic_atlas.cli  # noqa: E402,F401  (the tracer wraps cli.main too)
from harmonic_atlas import catalog_lookup, verify  # noqa: E402


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
