"""Claim-table verification driver.

Each suite re-derives one table of claims and reports a row per check:

* T31    the nine integer-coefficient maps: exact integer class, plus the
         distortion-class margins (positive for the nine, negative for the
         two non-close-to-convex half-integer maps);
* T32    direction-convexity flags of the nine, by certificate search and
         convexity probe;
* T41    the real-direction half-integer table: 21 catalog entries plus
         all 30 shears, exactly six of which are half-integer and equal
         the six non-conformal entries;
* T42    the imaginary-direction table: 11 catalog entries plus 18 shears,
         exactly two half-integer matching the two non-conformal entries;
         T41 and T42 are one suite, parameterised by the shear axis, and
         so are T32 and LEM42, parameterised by their families;
* LEM42  direction-convexity flags of the ten extra close-to-convex maps
         and the two that are not;
* REMARK starlikeness refutation and the g' = e^{i theta} z h' classes.

Expectations come from the catalog only: a suite reads its entries through
``catalog_ids`` of its families (and builds just those, their sources and
twins), and each expected value from the entry's ``FlagSet``.
``_coeff_class_row`` builds every coefficient-class row, and
``shear.dilatation_check`` alone decides g' = omega h', the M(theta)
identities included.  Rows marked ``asserted`` record claims taken from the
construction itself (not independently certified here); they are excluded
from the match count.

What is decided for every n: each map with closed forms (93 of the 101
entries) is built at the order that proves them (``_map``; 1 for a
conformal map, 2 to 13 for a shear), and its class rows, twin rows, the
two half-integer counts and REMARK's identity rows read the closed forms
(``classify.expr_class``, ``series_twins``, ``shear.dilatation_check``);
a "neither" or "no twin" also rests on a coefficient that differs.  Only
the 8 shears without closed forms (f13 to f16, f25 and f26 ``_cv1``; f7
and f8 ``_cvi``) are built at the config's order, and their class and
twin rows read that order-N series.  Each is "neither" by a coefficient
at index 3 or 4, and "no twin" by a coefficient that differs, so from
order 4 on those rows hold for every n too.  The grid rows (certificates,
falsifiers, margins) read closed forms only, at the config's grid.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .analytic import AnalyticExpr, Poly
from .catalog import DEFAULT_ORDER, catalog_ids, catalog_lookup
from .classify import classify_harmonic
from .geomtest import (
    Grid, default_grid, direction_convexity_probe, jacobian_min,
    m_theta_check, rz_search, starlike_derivative, u_class_margin,
)
from .shear import dilatation_check

__all__ = ["VerifyConfig", "run_suite", "SUITES", "report_json", "series_twins"]

# The largest series order and grid (radii x angles) a config may ask for:
# well above the benchmark's order 128 and 64 x 1024 grid.
_MAX_ORDER = 1024
_MAX_GRID_POINTS = 2**20

# axis -> (theorem, tag, member families with the twin family last,
#          the paper's family total, half-integer shear count)
_SHEAR_TABLES = {
    "real": ("T41", "cv1", ("S1", "T3", "T4"), 21, 6),
    "imag": ("T42", "cvi", ("T5", "T6"), 11, 2),
}


@dataclass(frozen=True)
class VerifyConfig:
    order: int = DEFAULT_ORDER
    grid_radii: int = 64
    grid_angles: int = 256
    r_max: float = 0.999
    tol: float = 1e-9

    def __post_init__(self):
        if not (1 <= self.order <= _MAX_ORDER and self.grid_radii >= 1
                and self.grid_angles >= 1 and 0 < self.r_max < 1 and self.tol >= 0
                and self.grid_radii * self.grid_angles <= _MAX_GRID_POINTS):
            raise ValueError(
                "config values out of range: need "
                f"1 <= order <= {_MAX_ORDER}, radii and angles >= 1, "
                f"radii x angles <= {_MAX_GRID_POINTS}, 0 < r_max < 1, tol >= 0")

    def grid(self) -> Grid:
        return default_grid(self.grid_radii, self.grid_angles, self.r_max)

    def to_json(self) -> dict:
        return {"order": self.order, "grid_radii": self.grid_radii,
                "grid_angles": self.grid_angles, "r_max": self.r_max,
                "tol": self.tol}


@dataclass
class _Rows:
    rows: list = field(default_factory=list)

    def add(self, row_id, check, computed, expected, match, asserted=False):
        self.rows.append({
            "id": row_id, "check": check,
            "computed": computed, "expected": expected,
            "match": bool(match), "asserted": bool(asserted),
        })

    def report(self, theorem: str, config: VerifyConfig) -> dict:
        rows = sorted(self.rows, key=lambda r: (r["id"], r["check"]))
        counted = [r for r in rows if not r["asserted"]]
        return {
            "schema": 1,
            "theorem": theorem,
            "config": config.to_json(),
            "rows": rows,
            "summary": {
                "total": len(counted),
                "matched": sum(r["match"] for r in counted),
            },
        }


def _map(entry, config):
    """The entry's map at the order that proves its closed forms
    (``CatalogEntry.proof_order``); a shear without them at the config's
    order, the only maps whose rows read an order-N series."""
    return entry.harmonic_map(entry.proof_order or config.order)


def _coeff_class_row(rows, entry, config, check) -> bool:
    """The row ``check`` ("integer_coeffs" or "half_integer_coeffs") of an
    entry: the exact class of h and g against the entry's flag.  Returns
    the computed class."""
    rh, rg = classify_harmonic(_map(entry, config))
    is_class = f"is_{check.removesuffix('_coeffs')}"
    got = getattr(rh, is_class) and getattr(rg, is_class)
    want = getattr(entry.expected, check)
    rows.add(entry.id, check, got, want, got == want)
    return got


def _entries(families):
    """The entries of ``families``, each looked up by id."""
    return [catalog_lookup(cid) for family in families
            for cid in catalog_ids(family)]


def _direction_rows(rows, entry, config, directions=("real", "imag")):
    """Direction-convexity rows of a conformal entry: a slope certificate
    for h where convexity is claimed, a falsifier where it is denied."""
    grid = config.grid()
    for direction in directions:
        expected = getattr(entry.expected, f"cv_{direction}")
        if expected is None:
            continue
        if expected:
            cert = rz_search(entry.h, direction, grid, tol=config.tol)
            computed = None if cert is None else round(cert.margin, 15)
            rows.add(entry.id, f"cv_{direction}_certificate",
                     computed, "found", cert is not None)
        else:
            verdict = direction_convexity_probe(
                _map(entry, config), direction, r=config.r_max, lines=64)
            rows.add(entry.id, f"cv_{direction}_falsified",
                     not verdict, True, verdict is False)


def series_twins(fm, twin_maps: dict) -> list[str]:
    """Ids in ``twin_maps`` whose h and g equal those of ``fm``.

    For h and for g, the series to the lower of the two orders screen: a
    coefficient that differs is a no for every n.  Two closed forms are
    then compared exactly (``_same_function``).  Where that cannot decide
    (a map without closed forms, or a log argument that is not linear),
    the series are compared to the higher order, a closed form expanded
    there."""
    return [tid for tid, tm in twin_maps.items()
            if all(_same_part(getattr(fm, f"{p}_series"), getattr(fm, f"{p}_expr"),
                              getattr(tm, f"{p}_series"), getattr(tm, f"{p}_expr"))
                   for p in "hg")]


def _same_part(x, ex, y, ey) -> bool:
    """Series x with closed form ex (or None) equals series y with ey."""
    n = min(x.order, y.order)
    if x.coeffs[:n + 1] != y.coeffs[:n + 1]:
        return False
    same = None if ex is None or ey is None else _same_function(ex, ey)
    if same is not None:
        return same
    n = max(x.order, y.order)
    x, y = (s if e is None or s.order >= n else e.series(n) for s, e in ((x, ex), (y, ey)))
    n = min(x.order, y.order)
    return x.coeffs[:n + 1] == y.coeffs[:n + 1]


def _same_function(a: AnalyticExpr, b: AnalyticExpr) -> bool | None:
    """a = b for every n, or None when a log argument is not linear.  On
    distinct linear arguments a difference in the log parts leaves a log
    singularity (a residue of the derivative at the root), so the log
    parts must agree argument by argument, and then the rational parts
    P1/Q1 and P2/Q2 as P1 Q2 = P2 Q1."""
    if a is b:
        return True
    la, lb = a.log_part(), b.log_part()
    if any(arg.degree != 1 for arg in la.keys() | lb.keys()):
        return None
    if la != lb:
        return False
    p, q = a.rational_part(), b.rational_part()
    return p.num * q.den == q.num * p.den


def _suite_t31(config) -> dict:
    rows = _Rows()
    grid = config.grid()
    for entry in _entries(("S_Z", "T2")):
        if entry.expected.integer_coeffs:
            _coeff_class_row(rows, entry, config, "integer_coeffs")
        cert = u_class_margin(entry.h, grid)
        if entry.expected.u_class:
            expected, match = f">= {-config.tol}", cert.margin >= -config.tol
        else:
            expected, match = "< 0", cert.margin < 0
        rows.add(entry.id, "u_class_margin", cert.margin, expected, match)
    return rows.report("T31", config)


def _suite_directions(config, theorem: str, families: tuple[str, ...]) -> dict:
    rows = _Rows()
    for entry in _entries(families):
        _direction_rows(rows, entry, config)
    return rows.report(theorem, config)


def _suite_shears(config, axis: str) -> dict:
    theorem, tag, families, total, expect_half = _SHEAR_TABLES[axis]
    twin_family = families[-1]
    rows = _Rows()
    grid = config.grid()
    members = _entries(families)
    rows.add("~family_total", "count", len(members), total, len(members) == total)
    twin_maps = {}
    for entry in members:
        _coeff_class_row(rows, entry, config, "half_integer_coeffs")
        if entry.family == twin_family:
            fm = twin_maps[entry.id] = _map(entry, config)
            cert = jacobian_min(fm, grid)
            rows.add(entry.id, "jacobian_positive", cert.margin, "> 0",
                     cert.margin > 0)
    half_count = 0
    for entry in _entries((f"PROOF_{tag.upper()}",)):
        half_count += _coeff_class_row(rows, entry, config, "half_integer_coeffs")
        fm = _map(entry, config)
        match_id = next(iter(series_twins(fm, twin_maps)), None)
        rows.add(entry.id, "series_twin", match_id, entry.twin,
                 match_id == entry.twin)
    rows.add(f"~{tag}_half_integer_count", "count", half_count, expect_half,
             half_count == expect_half)
    rows.add(f"~{tag}_shears", f"convex_in_{axis}_direction",
             "by shear construction from certified sources", "asserted",
             True, asserted=True)
    return rows.report(theorem, config)


def _suite_remark(config) -> dict:
    rows = _Rows()
    grid = config.grid()
    f3_entry = catalog_lookup("t4_re_koebe_im_halfplane")
    f3 = _map(f3_entry, config)
    ts = np.linspace(-math.pi / 2 + 0.1, math.pi / 2 - 0.1, 32)
    worst = 0.0
    all_negative = True
    for t in ts:
        v = starlike_derivative(f3, float(t), 0.9999)
        ref = 2 * math.cos(t) / (-3 + math.cos(2 * t))
        worst = max(worst, abs(v - ref))
        all_negative = all_negative and v < 0
    rows.add("f3", "starlike_derivative_formula", worst, "<= 1e-3", worst <= 1e-3)
    refuted = not f3_entry.expected.starlike
    rows.add("f3", "starlike_refuted", all_negative, refuted, all_negative == refuted)
    # the M(0) identity g' = z h' (b_n = a_{n-1} (n-1)/n, exact) gates f3's
    # margin row; the M(pi) identity g' = -z h' of f9 is a row of its own
    in_m0 = dilatation_check(replace(f3, omega=AnalyticExpr.rational(1, Poly.var())))
    c0 = m_theta_check(f3, grid)
    rows.add("f3", "m_theta_0_margin", c0.margin, "> 0", in_m0 and c0.margin > 0)
    f9 = _map(catalog_lookup("t6_re_halfplane_im_koebe"), config)
    cpi = m_theta_check(f9, grid)
    rows.add("f9", "m_theta_pi_margin", cpi.margin, "> 0", cpi.margin > 0)
    ok = dilatation_check(replace(f9, omega=AnalyticExpr.rational(-1, Poly.var())))
    rows.add("f9", "m_pi_coefficient_identity", ok, True, ok)
    return rows.report("REMARK", config)


_SUITE_FNS = {
    "T31": _suite_t31,
    "T32": lambda config: _suite_directions(config, "T32", ("S_Z",)),
    "T41": lambda config: _suite_shears(config, "real"),
    "T42": lambda config: _suite_shears(config, "imag"),
    "LEM42": lambda config: _suite_directions(config, "LEM42", ("T1", "T2")),
    "REMARK": _suite_remark,
}
SUITES = tuple(_SUITE_FNS)


def run_suite(name: str, config: VerifyConfig | None = None) -> dict:
    """Run one claim table (or 'all') and return the JSON-able report."""
    config = config or VerifyConfig()
    if name == "all":
        reports = [run_suite(s, config) for s in SUITES]
        counted = [r["summary"] for r in reports]
        return {
            "schema": 1,
            "theorem": "all",
            "config": config.to_json(),
            "suites": reports,
            "summary": {
                "total": sum(s["total"] for s in counted),
                "matched": sum(s["matched"] for s in counted),
            },
        }
    if name not in _SUITE_FNS:
        raise KeyError(name)
    return _SUITE_FNS[name](config)


def report_json(report: dict) -> str:
    """Deterministic serialization: sorted keys, stable float repr."""
    return json.dumps(report, sort_keys=True, indent=1, ensure_ascii=True)
