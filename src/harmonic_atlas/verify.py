"""Claim-table verification driver.

Each suite re-derives one table of claims and reports a row per check:

* T31    the nine integer-coefficient maps: exact integer class, plus the
         distortion class |f'(z)(z/f(z))^2 - 1| < 1 (held by the nine,
         refuted for the two non-close-to-convex half-integer maps);
* T32    direction-convexity flags of the nine, by exact slope certificate
         and convexity probe;
* T41    the real-direction half-integer table: 21 catalog entries plus
         all 30 shears, exactly six of which are half-integer and equal
         the six non-conformal entries, each sense-preserving;
* T42    the imaginary-direction table: 11 catalog entries plus 18 shears,
         exactly two half-integer matching the two non-conformal entries;
         T41 and T42 are one suite, parameterised by the shear axis, and
         so are T32 and LEM42, parameterised by their families;
* LEM42  direction-convexity flags of the ten extra close-to-convex maps
         and the two that are not;
* REMARK starlikeness refutation and the g' = e^{i theta} z h' classes.

Expectations come from the catalog only: a suite reads its entries through
``catalog_ids`` of its families (and builds just those, their sources and
twins), and each expected value from the entry's ``FlagSet``.  Which rows
a suite emits depends on the families alone, never on a flag's value, so a
changed flag fails a row (T31's class rows are those of S_Z).
``_coeff_class_row`` builds every coefficient-class row, and
``shear.dilatation_check`` alone decides g' = omega h', the M(theta)
identities included.

Every row says how it was decided (``proof``, schema 2): ``exact`` (for
every n, or by a witness), ``order`` (exact to the config's order only: a
yes read in a series), ``grid`` (a float grid or probe) or ``asserted``
(taken from the construction, not checked here, and excluded from the
match count).  Each summary counts its rows by kind (``proofs``).

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
order 4 on those rows are exact; below it two of them read as
half-integer, rows of kind ``order``.

The distortion-class rows of T31, the Jacobian rows of T4 and T6 and the
24 slope certificates of T32 and LEM42 are decided exactly on the closed
forms (``_u_class_exact``, ``_jacobian_exact``, ``_rz_exact``), each with
an exact witness, so they read the same at every config.  A distortion
or Jacobian row these tests cannot decide (none in the catalog) reads
``geomtest.u_class_margin`` or ``jacobian_min`` instead.  A certificate is
the slope criterion of Royster & Ziegler at one of ten (mu, nu) pairs in
Q(i): Re R >= 0 on the disk for a rational R, proved by a Sturm count on
the circle and a Schur-Cohn count inside (``realalg``); a certificate row
that no pair proves fails (none in the catalog).  ``geomtest.rz_search``,
the float lattice search these rows ran before, stays as the test oracle.
The other grid rows (falsifiers, REMARK's margins and starlike rows) read
closed forms only, at the config's grid.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

from .analytic import AnalyticExpr, Poly, RatFunc
from .catalog import DEFAULT_ORDER, catalog_ids, catalog_lookup
from .classify import _exact_class, classify_harmonic
from .errors import Frozen
from .exprtext import _format_poly
from .geomtest import (
    R_MAX, TOL_MARGIN, Grid, default_grid, direction_convexity_probe, jacobian_min,
    m_theta_check, rz_search, starlike_derivative, u_class_margin,
)  # no row calls rz_search; the benchmark's tests trace it as verify.rz_search
from .numkernel import GaussRational, coeff_product
from .realalg import cayley, disk_zero_count, nonnegative
from .shear import HarmonicMap, dilatation_check

__all__ = ["VerifyConfig", "run_suite", "SUITES", "report_json", "series_twins"]

# 2: every row says how it was decided ("proof"), exact rows may carry a
# "witness", and every summary counts the rows by proof kind ("proofs")
SCHEMA = 2

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


class VerifyConfig(Frozen):
    """The series order and the grid (radii x angles) of a run.  The grid's
    outer radius ``R_MAX`` and the certificates' ``TOL_MARGIN`` are fixed:
    other values check other claims.  ``to_json`` still writes both."""

    __slots__ = ("order", "grid_radii", "grid_angles")

    def __init__(self, order: int = DEFAULT_ORDER, grid_radii: int = 64,
                 grid_angles: int = 256):
        if not (1 <= order <= _MAX_ORDER and grid_radii >= 1 and grid_angles >= 1
                and grid_radii * grid_angles <= _MAX_GRID_POINTS):
            raise ValueError(
                "config values out of range: need "
                f"1 <= order <= {_MAX_ORDER}, radii and angles >= 1, "
                f"radii x angles <= {_MAX_GRID_POINTS}")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "grid_radii", grid_radii)
        object.__setattr__(self, "grid_angles", grid_angles)

    def grid(self) -> Grid:
        return default_grid(self.grid_radii, self.grid_angles)

    def to_json(self) -> dict:
        return {"order": self.order, "grid_radii": self.grid_radii,
                "grid_angles": self.grid_angles, "r_max": R_MAX, "tol": TOL_MARGIN}


PROOF_KINDS = ("exact", "order", "grid", "asserted")


class _Rows:
    __slots__ = ("rows",)

    def __init__(self):
        self.rows = []

    def add(self, row_id, check, computed, expected, match, proof, witness=None):
        """One row; ``proof`` is its kind (module doc), and an exact row may
        carry the ``witness`` it rests on, every value a string."""
        row = {
            "id": row_id, "check": check,
            "computed": computed, "expected": expected,
            "match": bool(match), "asserted": proof == "asserted", "proof": proof,
        }
        if witness is not None:
            row["witness"] = witness
        self.rows.append(row)

    def report(self, theorem: str, config: VerifyConfig) -> dict:
        rows = sorted(self.rows, key=lambda r: (r["id"], r["check"]))
        return {
            "schema": SCHEMA,
            "theorem": theorem,
            "config": config.to_json(),
            "rows": rows,
            "summary": _summary(rows),
        }


def _summary(rows) -> dict:
    """The counted (not asserted) rows and those matched, and every row by
    proof kind."""
    counted = [r for r in rows if not r["asserted"]]
    proofs = dict.fromkeys(PROOF_KINDS, 0)
    for r in rows:
        proofs[r["proof"]] += 1
    return {
        "total": len(counted),
        "matched": sum(r["match"] for r in counted),
        "proofs": proofs,
    }


def _map(entry, config):
    """The entry's map at the order that proves its closed forms
    (``CatalogEntry.proof_order``); a shear without them at the config's
    order, the only maps whose rows read an order-N series."""
    return entry.harmonic_map(entry.proof_order or config.order)


def _coeff_class_row(rows, entry, config, check) -> tuple[bool, str]:
    """The row ``check`` ("integer_coeffs" or "half_integer_coeffs") of an
    entry: the exact class of h and g against the entry's flag.  Returns
    the computed class and the row's proof kind: a no rests on a
    coefficient, so it is exact; a yes is exact where ``expr_class``
    decides both closed forms, else it holds to the series' order."""
    fm = _map(entry, config)
    rh, rg = classify_harmonic(fm)
    is_class = f"is_{check.removesuffix('_coeffs')}"
    got = getattr(rh, is_class) and getattr(rg, is_class)
    want = getattr(entry.expected, check)
    exact = not got or all(e is not None and _exact_class(e)[0] is not None
                           for e in (fm.h_expr, fm.g_expr))
    proof = "exact" if exact else "order"
    rows.add(entry.id, check, got, want, got == want, proof)
    return got, proof


def _entries(families):
    """The entries of ``families``, each looked up by id."""
    return [catalog_lookup(cid) for family in families
            for cid in catalog_ids(family)]


def _direction_rows(rows, entry, config, directions=("real", "imag")):
    """Direction-convexity rows of a conformal entry: an exact slope
    certificate for h where convexity is claimed (``_rz_exact``; the row
    fails where no pair proves one), a falsifier where it is denied."""
    for direction in directions:
        expected = getattr(entry.expected, f"cv_{direction}")
        if expected is None:
            continue
        if expected:
            witness = _rz_exact(entry.h, direction)
            found = witness is not None
            rows.add(entry.id, f"cv_{direction}_certificate", "found" if found else None,
                     "found", found, "exact", witness)
        else:
            verdict = direction_convexity_probe(_map(entry, config), direction)
            rows.add(entry.id, f"cv_{direction}_falsified",
                     not verdict, True, verdict is False, "grid")


# The slope criterion's (mu, nu) with e^{i mu} and cos nu in Q(i), each
# with its quadratic e - 2cz + conj(e) z^2.  A row tries the mu of its own
# axis first (0 for real, pi/2 for imag), each mu with nu ascending: the
# pairs where the catalog's certificates peak.
_RZ_MU = {"0": GaussRational(1), "pi/2": GaussRational(0, 1)}
_RZ_COS_NU = {"0": 1, "pi/3": Fraction(1, 2), "pi/2": 0, "2pi/3": Fraction(-1, 2), "pi": -1}
_RZ_PAIRS = [(mu, nu, Poly((e, -2 * c, e.conjugate())))
             for mu, e in _RZ_MU.items() for nu, c in _RZ_COS_NU.items()]
# The screen: 192 points of the circle, none a root of unity of order 12
# or less, where the catalog's poles and the zeros of the quadratics lie,
# and the same angles at radius 0.9, where a pair whose R is imaginary on
# the circle but negative inside (near a pole on the circle) shows.
_RZ_SCREEN = np.exp(2j * np.pi * (np.arange(192) + 0.5) / 192) * np.array([[1.0], [0.9]])
_RZ_QUAD_SCREEN = np.array([quad(_RZ_SCREEN) for _, _, quad in _RZ_PAIRS])


def _rz_exact(phi: AnalyticExpr, axis: str) -> dict | None:
    """The witness that phi is convex in the ``axis`` direction by the slope
    criterion, decided exactly: the first pair of ``_RZ_PAIRS`` for which
    ``_re_nonnegative`` proves Re R >= 0 on the disk, with R = k (e - 2cz
    + conj(e) z^2) phi', e = e^{i mu}, c = cos nu and k = 1 (real) or -i
    (imag), so that Re R is the quantity ``geomtest.rz_certificate``
    samples.  A pair whose float Re R is negative at a point of
    ``_RZ_SCREEN`` cannot be proved and is skipped: the screen only skips,
    and each catalog row runs one proof.  None when no pair is proved."""
    p = phi.derivative().rational_part()
    k = GaussRational(1) if axis == "real" else GaussRational(0, -1)
    # R |den|^2 at the screen's points, for every pair at once
    v = _RZ_QUAD_SCREEN * (complex(k) * p.num(_RZ_SCREEN) * np.conj(p.den(_RZ_SCREEN)))
    passed = np.all(v.real >= -1e-9 * np.abs(v), axis=(1, 2))
    own = "0" if axis == "real" else "pi/2"
    for i in sorted(np.flatnonzero(passed), key=lambda i: _RZ_PAIRS[i][0] != own):
        mu, nu, quad = _RZ_PAIRS[i]
        g = quad.gcd(p.den)
        den = divmod(p.den, g)[0]
        unit = GaussRational(1) / den.coeff(0)  # written with D(0) = 1
        r = RatFunc((divmod(quad, g)[0] * p.num).scale(k * unit), den.scale(unit))
        if _re_nonnegative(r):
            return {"mu": mu, "nu": nu, "R": _rat_text(r)}
    return None


def _re_nonnegative(r: RatFunc) -> bool:
    """Re R >= 0 on the open disk for R = A/D, proved: A + D has no zero in
    the disk (``disk_zero_count``, regular) and Re(A conj D) >= 0 on the
    circle (``cayley``, then ``nonnegative``).  Then Phi = (A - D)/(A + D)
    is analytic in the disk with |Phi| <= 1 on the circle, where it is
    bounded and so has no pole, hence |Phi| <= 1 in the disk, and R = (1 +
    Phi)/(1 - Phi) has Re R = (1 - |Phi|^2)/|1 - Phi|^2 >= 0 there.  Poles
    of R on the circle are allowed.  The circle alone is not enough: R may
    be imaginary on the circle and negative inside."""
    a, d = r.num, r.den
    if disk_zero_count((a + d).coeffs) != 0:
        return False
    n = max(a.degree, d.degree)
    conj_d = [c.conjugate() for c in cayley(d.coeffs, n)]
    product = coeff_product(cayley(a.coeffs, n), conj_d, 2 * n)
    return nonnegative([GaussRational(c.re) for c in product])


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


def _at(p: Poly, z: GaussRational) -> GaussRational:
    """p(z), exactly (Horner)."""
    acc = GaussRational(0)
    for c in reversed(p.coeffs):
        acc = acc * z + c
    return acc


def _rat_text(q: RatFunc) -> str:
    """q as one ``rat`` term of the atlas text (``exprtext``)."""
    return f"rat(1; {_format_poly(q.num)}; {_format_poly(q.den)})"


def _schwarz_monomial(q: RatFunc) -> Poly | None:
    """q as the polynomial c z^k when it is one with k >= 1 and |c| <= 1,
    or 0, so that |q| <= |z|^k < 1 on the disk; None otherwise.  Read as
    num = c z^k den, so q need not be in lowest terms."""
    num, den = q.num, q.den
    if num.is_zero:
        return num
    v = den.valuation()
    k = num.valuation() - v
    if k < 1:
        return None
    c = num.coeffs[k + v] / den.coeffs[v]
    m = Poly([0] * k + [c])
    return m if c.abs2() <= 1 and num == den * m else None


def _u_class_quotient(f: AnalyticExpr) -> RatFunc | None:
    """R = f'(z) (z/f(z))^2 - 1, not reduced, or None where f has a log
    part or is 0 (R is then not a quotient of polynomials)."""
    if f.log_part():
        return None
    p, d = f.rational_part(), f.derivative().rational_part()
    if p.num.is_zero:
        return None
    fz2 = p.num * p.num
    return RatFunc(d.num * Poly((0, 0, 1)) * p.den * p.den - d.den * fz2, d.den * fz2)


def _outside_witness(r: RatFunc, z: GaussRational) -> dict | None:
    """The witness that |R| < 1 fails on the disk: z with |z|^2 < 1 and
    |R(z)|^2 > 1, both exact; None where z does not show it."""
    den = _at(r.den, z)
    if z.abs2() >= 1 or den.is_zero:
        return None
    value = (_at(r.num, z) / den).abs2()
    if value <= 1:
        return None
    return {"R": _rat_text(r), "z": z.literal(), "abs2_z": str(z.abs2()),
            "abs2_R": str(value)}


def _u_class_exact(f: AnalyticExpr, grid: Grid) -> tuple[bool, dict] | None:
    """Membership of f in the class |f'(z)(z/f(z))^2 - 1| < 1, decided on
    R = f'(z/f)^2 - 1: (True, witness) when R is 0 or c z^k with k >= 1
    and |c| <= 1; (False, witness) when the grid's outer-ring point of
    largest float |R| (by the maximum modulus principle the whole grid's
    worst), rounded to hundredths, is a z1 with |z1| < 1 and |R(z1)| > 1,
    both exact; None when neither decides."""
    r = _u_class_quotient(f)
    if r is None:
        return None
    m = _schwarz_monomial(r)
    if m is not None:
        return True, {"R": _rat_text(RatFunc(m))}
    r = r.reduced()
    ring = grid.points[-grid.angles_count:]
    with np.errstate(divide="ignore", invalid="ignore"):
        size = np.nan_to_num(np.abs(r.num(ring) / r.den(ring)), nan=0.0)
    z = complex(ring[int(np.argmax(size))])
    z1 = GaussRational(Fraction(round(z.real * 100), 100), Fraction(round(z.imag * 100), 100))
    witness = _outside_witness(r, z1)
    return None if witness is None else (False, witness)


def _jacobian_exact(F: HarmonicMap) -> dict | None:
    """The witness that J = |h'|^2 - |g'|^2 > 0 on the disk, or None where
    this test cannot tell: g' = omega h' exactly (``dilatation_check``),
    omega = c z^k with k >= 1 and |c| <= 1 (or 0), and h' = a/Q in lowest
    terms with a constant a.  Then J = |h'|^2 (1 - |omega|^2) > 0.  That Q
    has no root in the disk rests on ``AnalyticExpr._validate``: the
    catalog's Q have their roots on the circle, where its exact count is
    singular, so on its float check."""
    if F.h_expr is None or F.omega.log_part():
        return None
    omega = _schwarz_monomial(F.omega.rational_part())
    hp = F.h_expr.derivative().rational_part().reduced()
    if omega is None or hp.num.degree != 0 or not dilatation_check(F):
        return None
    return {"omega": _rat_text(RatFunc(omega)), "h_prime": _rat_text(hp)}


def _u_class_row(rows, entry, grid):
    """T31's class row of a conformal entry: exact where ``_u_class_exact``
    decides, else the grid margin of ``u_class_margin``."""
    decided = _u_class_exact(entry.h, grid)
    want = entry.expected.u_class
    if decided is not None:
        got, witness = decided
        rows.add(entry.id, "u_class_margin", got, want, got == want, "exact", witness)
        return
    cert = u_class_margin(entry.h, grid)
    if want:
        expected, match = f">= {-TOL_MARGIN}", cert.margin >= -TOL_MARGIN
    else:
        expected, match = "< 0", cert.margin < 0
    rows.add(entry.id, "u_class_margin", cert.margin, expected, match, "grid")


def _jacobian_row(rows, entry, fm, grid):
    """J > 0 on the disk for a T4 or T6 map: exact where ``_jacobian_exact``
    decides (a verdict that inherits ``AnalyticExpr._validate``'s float
    pole check), else the grid minimum of ``jacobian_min``."""
    witness = _jacobian_exact(fm)
    if witness is not None:
        rows.add(entry.id, "jacobian_positive", True, True, True, "exact", witness)
        return
    cert = jacobian_min(fm, grid)
    rows.add(entry.id, "jacobian_positive", cert.margin, "> 0", cert.margin > 0, "grid")


def _suite_t31(config) -> dict:
    rows = _Rows()
    grid = config.grid()
    for entry in _entries(("S_Z", "T2")):
        # Friedman's nine by family, so a changed flag fails its row
        if entry.family == "S_Z":
            _coeff_class_row(rows, entry, config, "integer_coeffs")
        _u_class_row(rows, entry, grid)
    return rows.report("T31", config)


def _suite_directions(config, theorem: str, families: tuple[str, ...]) -> dict:
    rows = _Rows()
    for entry in _entries(families):
        _direction_rows(rows, entry, config)
    return rows.report(theorem, config)


def _twin_proof(fm, tm) -> str:
    """A twin found on two pairs of closed forms that ``_same_function``
    equates is exact; one found on series holds to their order."""
    pairs = ((fm.h_expr, tm.h_expr), (fm.g_expr, tm.g_expr))
    exact = all(a is not None and b is not None and _same_function(a, b) for a, b in pairs)
    return "exact" if exact else "order"


def _suite_shears(config, axis: str) -> dict:
    theorem, tag, families, total, expect_half = _SHEAR_TABLES[axis]
    twin_family = families[-1]
    rows = _Rows()
    grid = config.grid()
    members = _entries(families)
    rows.add("~family_total", "count", len(members), total, len(members) == total, "exact")
    twin_maps = {}
    for entry in members:
        _coeff_class_row(rows, entry, config, "half_integer_coeffs")
        if entry.family == twin_family:
            fm = twin_maps[entry.id] = _map(entry, config)
            _jacobian_row(rows, entry, fm, grid)
    half_count, count_proof = 0, "exact"
    for entry in _entries((f"PROOF_{tag.upper()}",)):
        got, proof = _coeff_class_row(rows, entry, config, "half_integer_coeffs")
        half_count += got
        if proof != "exact":
            count_proof = proof
        fm = _map(entry, config)
        match_id = next(iter(series_twins(fm, twin_maps)), None)
        proof = "exact" if match_id is None else _twin_proof(fm, twin_maps[match_id])
        rows.add(entry.id, "series_twin", match_id, entry.twin,
                 match_id == entry.twin, proof)
    rows.add(f"~{tag}_half_integer_count", "count", half_count, expect_half,
             half_count == expect_half, count_proof)
    rows.add(f"~{tag}_shears", f"convex_in_{axis}_direction",
             "by shear construction from certified sources", "asserted",
             True, "asserted")
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
    rows.add("f3", "starlike_derivative_formula", worst, "<= 1e-3", worst <= 1e-3, "grid")
    refuted = not f3_entry.expected.starlike
    rows.add("f3", "starlike_refuted", all_negative, refuted, all_negative == refuted,
             "grid")
    # the M(0) identity g' = z h' (b_n = a_{n-1} (n-1)/n, exact) gates f3's
    # margin row; the M(pi) identity g' = -z h' of f9 is a row of its own
    in_m0 = dilatation_check(f3.replace(omega=AnalyticExpr.rational(1, Poly.var())))
    c0 = m_theta_check(f3, grid)
    rows.add("f3", "m_theta_0_margin", c0.margin, "> 0", in_m0 and c0.margin > 0, "grid")
    f9 = _map(catalog_lookup("t6_re_halfplane_im_koebe"), config)
    cpi = m_theta_check(f9, grid)
    rows.add("f9", "m_theta_pi_margin", cpi.margin, "> 0", cpi.margin > 0, "grid")
    ok = dilatation_check(f9.replace(omega=AnalyticExpr.rational(-1, Poly.var())))
    # a no rests on a coefficient or on the closed forms, a yes on the
    # closed forms where f9 has them, else on its series
    closed = f9.h_expr is not None and f9.g_expr is not None
    rows.add("f9", "m_pi_coefficient_identity", ok, True, ok,
             "exact" if not ok or closed else "order")
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
        return {
            "schema": SCHEMA,
            "theorem": "all",
            "config": config.to_json(),
            "suites": reports,
            "summary": _summary([row for r in reports for row in r["rows"]]),
        }
    if name not in _SUITE_FNS:
        raise KeyError(name)
    return _SUITE_FNS[name](config)


def report_json(report: dict) -> str:
    """Deterministic serialization: sorted keys, stable float repr."""
    return json.dumps(report, sort_keys=True, indent=1, ensure_ascii=True)
