"""The benchmark's hold on the package: the names and arguments that
``perfbench/spans.py`` reads when it traces a run."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import spans  # noqa: E402

import harmonic_atlas.cli  # noqa: E402,F401  (the tracer wraps cli.main too)
from harmonic_atlas import verify  # noqa: E402


def test_traced_verify_reports_rz_search_points():
    # a renamed rz_search parameter would break every traced verify run
    tracer = spans.Tracer()
    tracer.install()
    try:
        report = verify.run_suite("T32", verify.VerifyConfig(
            order=16, grid_radii=16, grid_angles=64))
    finally:
        tracer.uninstall()
    tracer.assert_clean()
    assert report["summary"]["matched"] == report["summary"]["total"]
    searches = [s for s in tracer.spans if s.name == "geomtest.rz_search"]
    certificates = [r for r in report["rows"] if r["check"].endswith("_certificate")]
    assert len(searches) == len(certificates) > 0
    assert all(s.attrs == {"points": 4 * 7 * 1024} for s in searches)
