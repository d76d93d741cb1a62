"""Claim-table verification driver.

Each suite re-derives one table of claims and reports a row per check:

* T31    the nine integer-coefficient maps: exact integer class, plus the
         distortion class |f'(z)(z/f(z))^2 - 1| < 1 (held by the nine,
         refuted for the two non-close-to-convex half-integer maps);
* T32    direction-convexity flags of the nine, by exact slope certificate
         and exact falsifier;
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
yes read in a series), ``grid`` (a float grid) or ``asserted``
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
forms by the disk tests of ``realalg``, each with an exact witness, so
they read the same at every config; a row its test cannot decide (none in
the catalog) fails, with no value and no witness.  A certificate
(``_rz_exact``) is the slope criterion of Royster & Ziegler at one of ten
(mu, nu) pairs in Q(i), Re R >= 0 on the disk for a rational R; the
distortion class (``_u_class_exact``) is |R| <= 1 for R = f'(z/f)^2 - 1,
a no shown at a point z1; J > 0 (``_jacobian_exact``) rests on g' = omega
h', |omega| < 1 and no zero of h'.  The 18 falsifiers are exact too, each
by three zero counts that put two points of one line in f(D) and the point
between them outside (``_falsifier_exact``, which assumes neither
univalence nor real coefficients), and so are REMARK's two starlike rows,
by 2 Re(Df/f) of f3 as one rational function on the circle
(``_starlike_on_circle``).  Only the certificates' screen (``_RZ_SCREEN``)
reads floats, to skip pairs it cannot prove; ``geomtest`` holds the float
oracle of these rows.  Two grid rows are left: REMARK's two M(theta)
margins, which alone read the grid.  No row reads ``tol``.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

from .analytic import AnalyticExpr, Poly, RatFunc
from .catalog import DEFAULT_ORDER, catalog_ids, catalog_lookup
from .classify import _exact_class, classify_harmonic
from .errors import Frozen
from .exprtext import _format_poly
from .geomtest import (
    R_MAX, TOL_MARGIN, Grid, default_grid, m_theta_check, rz_search,
)  # no row calls rz_search; the benchmark's tests trace it as verify.rz_search
from .numkernel import GaussRational
from .realalg import bounded_by_one, disk_zero_count, pqeval, pscale, psub, re_nonnegative
from .shear import HarmonicMap, _omega_bounded, dilatation_check

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
    """The series order and the grid (radii x angles) of a run: only the 8
    shears without closed forms read the order, only REMARK's two M(theta)
    margins the grid.  Its outer radius ``R_MAX`` is fixed, and so is
    ``TOL_MARGIN``, which no row reads; ``to_json`` writes both."""

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


def _direction_rows(rows, entry):
    """Direction-convexity rows of a conformal entry: an exact slope
    certificate for h where convexity is claimed (``_rz_exact``), an exact
    falsifier where it is denied (``_falsifier_exact``).  A row fails where
    its test finds no witness."""
    for direction in ("real", "imag"):
        expected = getattr(entry.expected, f"cv_{direction}")
        if expected is None:
            continue
        if expected:
            witness = _rz_exact(entry.h, direction)
            found = witness is not None
            rows.add(entry.id, f"cv_{direction}_certificate", "found" if found else None,
                     "found", found, "exact", witness)
        else:
            witness = _falsifier_exact(entry.h, direction)
            rows.add(entry.id, f"cv_{direction}_falsified", True if witness else None,
                     True, witness is not None, "exact", witness)


# Rational points of the unit circle: -1, 1, -i, i, then (a + bi)/c for the
# Pythagorean triples (3, 4, 5) and (5, 12, 13), with every sign and order
_CIRCLE = [GaussRational(x, y) for x, y in ((-1, 0), (1, 0), (0, -1), (0, 1))] + [
    GaussRational(Fraction(sa * a, c), Fraction(sb * b, c))
    for u, v, c in ((3, 4, 5), (5, 12, 13)) for a, b in ((u, v), (v, u))
    for sa in (-1, 1) for sb in (-1, 1)]
_STEP = {"real": GaussRational(Fraction(1, 2)), "imag": GaussRational(0, Fraction(1, 2))}


def _falsifier_exact(f: AnalyticExpr, direction: str) -> dict | None:
    """The witness that f(D) is not convex in ``direction``, for f = P/Q in
    lowest terms.  A point v lies in f(D) exactly when P - vQ has a zero in
    the disk (``disk_zero_count``).  At w = f(zeta), for the first zeta of
    ``_CIRCLE`` with Q(zeta) != 0 where P - (w -+ s)Q each have one and P -
    wQ has none (s = ``_STEP[direction]``), the line through w parallel to
    the direction meets f(D) at w - s and w + s but not at w.  None where
    no zeta shows it or f has a log part; a constant f shows none (P - wQ =
    0 has no count)."""
    if f.log_part():
        return None
    r = f.rational_part().reduced()
    p, q = r.num.coeffs, r.den.coeffs
    s = _STEP[direction]

    def hits(v):  # the zeros of P - vQ in the disk; None for P - vQ = 0
        return disk_zero_count(psub(p, pscale(q, v)))

    for zeta in _CIRCLE:
        w = pqeval(p, q, zeta)
        if w is not None and hits(w - s) and hits(w + s) and hits(w) == 0:
            return {"zeta": zeta.literal(), "w": w.literal(), "step": s.literal()}
    return None


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
    ``realalg.re_nonnegative`` proves Re R >= 0 on the disk, with R = k (e
    - 2cz + conj(e) z^2) phi', e = e^{i mu}, c = cos nu and k = 1 (real)
    or -i (imag), so that Re R is the quantity ``geomtest.rz_certificate``
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
        if re_nonnegative(r.num.coeffs, r.den.coeffs):
            return {"mu": mu, "nu": nu, "R": _rat_text(r)}
    return None


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


def _rat_text(q: RatFunc) -> str:
    """q as one ``rat`` term of the atlas text (``exprtext``)."""
    return f"rat(1; {_format_poly(q.num)}; {_format_poly(q.den)})"


def _u_class_quotient(f: AnalyticExpr) -> RatFunc | None:
    """R = f'(z) (z/f(z))^2 - 1 in lowest terms, z/f = Q/U for f = zU/Q; None
    where f has a log part or is not normalized (f(0) = 0, f'(0) = 1)."""
    if f.log_part():
        return None
    p, d = f.rational_part(), f.derivative().rational_part()
    if not p.num.coeff(0).is_zero or p.num.coeff(1) != p.den.coeff(0):
        return None
    u = p.num.shift_down(1)
    du2 = d.den * u * u
    return RatFunc(d.num * p.den * p.den - du2, du2).reduced()


def _outside_witness(r: RatFunc, z: GaussRational) -> dict | None:
    """The witness that |R| < 1 fails on the disk: z with |z|^2 < 1 and
    |R(z)|^2 > 1, both exact; None where z does not show it."""
    value = pqeval(r.num.coeffs, r.den.coeffs, z)
    if z.abs2() >= 1 or value is None or value.abs2() <= 1:
        return None
    value = value.abs2()
    return {"R": _rat_text(r), "z": z.literal(), "abs2_z": str(z.abs2()),
            "abs2_R": str(value)}


def _u_class_exact(f: AnalyticExpr) -> tuple[bool, dict] | None:
    """Membership of f in the class |f'(z)(z/f(z))^2 - 1| < 1, decided on
    R = f'(z/f)^2 - 1 in lowest terms by ``realalg.bounded_by_one``: (True,
    witness R) where |R| <= 1 is proved, strict as R(0) = 0; (False,
    witness) with a point z1 of the disk where |R(z1)| > 1; else None."""
    r = _u_class_quotient(f)
    if r is None:
        return None
    proved, z = bounded_by_one(r.num.coeffs, r.den.coeffs)
    if proved:
        return True, {"R": _rat_text(r)}
    witness = None if z is None else _outside_witness(r, z)
    return None if witness is None else (False, witness)


def _jacobian_exact(F: HarmonicMap) -> dict | None:
    """The witness that J = |h'|^2 (1 - |omega|^2) > 0 on the disk, or None
    where this test cannot tell: g' = omega h' (``dilatation_check``),
    |omega| < 1 (``shear._omega_bounded``) and h' = P/Q in lowest terms
    with an exact count of 0 zeros of P Q in the disk, so that h' is
    analytic and zero-free there."""
    if F.h_expr is None or not dilatation_check(F) or not _omega_bounded(F.omega)[0]:
        return None
    hp = F.h_expr.derivative().rational_part().reduced()
    if disk_zero_count((hp.num * hp.den).coeffs) != 0:
        return None
    return {"omega": _rat_text(F.omega.rational_part().reduced()), "h_prime": _rat_text(hp)}


def _suite_t31(config) -> dict:
    rows = _Rows()
    for entry in _entries(("S_Z", "T2")):
        # Friedman's nine by family, so a changed flag fails its row
        if entry.family == "S_Z":
            _coeff_class_row(rows, entry, config, "integer_coeffs")
        got, witness = _u_class_exact(entry.h) or (None, None)  # undecided: fails
        want = entry.expected.u_class
        rows.add(entry.id, "u_class_margin", got, want, got == want, "exact", witness)
    return rows.report("T31", config)


def _suite_directions(config, theorem: str, families: tuple[str, ...]) -> dict:
    rows = _Rows()
    for entry in _entries(families):
        _direction_rows(rows, entry)
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
    members = _entries(families)
    rows.add("~family_total", "count", len(members), total, len(members) == total, "exact")
    twin_maps = {}
    for entry in members:
        _coeff_class_row(rows, entry, config, "half_integer_coeffs")
        if entry.family == twin_family:
            fm = twin_maps[entry.id] = _map(entry, config)
            witness = _jacobian_exact(fm)  # J > 0; an undecided row fails
            rows.add(entry.id, "jacobian_positive", True if witness else None, True,
                     witness is not None, "exact", witness)
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


# f3's 2 Re(Df/f) on the circle, 4 cos t/(cos 2t - 3) at z = e^{it}, and a
# point there (cos t = 3/5) where it is negative
_F3_STARLIKE = RatFunc(Poly([0, 4, 0, 4]), Poly([1, 0, -6, 0, 1]))
_F3_STARLIKE_POINT = GaussRational(Fraction(3, 5), Fraction(4, 5))


def _reflected(r: RatFunc) -> RatFunc:
    """conj r(1/conj z), conj r(z) on the circle: num and den reversed to
    their higher degree n, each coefficient conjugated."""
    n = max(r.num.degree, r.den.degree)
    return RatFunc(*(Poly([p.coeff(n - k).conjugate() for k in range(n + 1)])
                     for p in (r.num, r.den)))


def _starlike_on_circle(F: HarmonicMap) -> RatFunc | None:
    """2 Re(Df/f), Df = z h' - conj(z g'), on the unit circle as one
    rational function of z in lowest terms (denominator's lowest term 1),
    for h and g rational: there conj u = u* for u* = ``_reflected(u)``, so
    f = h + g* and, with w = Df/f, it is w + w*.  None for any other F."""
    if any(e is None or e.log_part() for e in (F.h_expr, F.g_expr)):
        return None
    h, hp, g, gp = (e.rational_part() for x in (F.h_expr, F.g_expr)
                    for e in (x, x.derivative()))
    z = RatFunc(Poly.var())
    w = (z * hp + -_reflected(z * gp)) / (h + _reflected(g))
    s = (w + _reflected(w)).reduced()
    unit = GaussRational(1) / next(c for c in s.den.coeffs if c)
    return RatFunc(s.num.scale(unit), s.den.scale(unit))


def _suite_remark(config) -> dict:
    rows = _Rows()
    grid = config.grid()
    f3_entry = catalog_lookup("t4_re_koebe_im_halfplane")
    f3 = _map(f3_entry, config)
    s = _starlike_on_circle(f3)  # None: both rows fail
    same = s is not None and s.num * _F3_STARLIKE.den == _F3_STARLIKE.num * s.den
    rows.add("f3", "starlike_derivative_formula", 0 if same else None, "<= 1e-3", same,
             "exact", {"two_re_Df_f": _rat_text(s), "formula": _rat_text(_F3_STARLIKE)}
             if same else None)
    z = _F3_STARLIKE_POINT
    v = None if s is None else pqeval(s.num.coeffs, s.den.coeffs, z)
    negative, refuted = None if v is None else v.re < 0, not f3_entry.expected.starlike
    rows.add("f3", "starlike_refuted", negative, refuted, negative == refuted, "exact",
             None if v is None else {"z": z.literal(), "re_Df_f": str(v.re / 2)})
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
