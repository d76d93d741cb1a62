"""The function atlas: every named map with closed forms and expected flags.

Families
--------
S_Z      the nine univalent maps with integer coefficients
T1, T2   the twelve additional maps with half-integer coefficients
         (T2 = the two that are not close-to-convex)
S1, T3   the subsets of S_Z and T1 convex in the real direction
T4       the six non-conformal half-integer maps convex in real direction
T5       the nine conformal half-integer maps convex in imaginary direction
T6       the two non-conformal half-integer maps convex in imaginary direction
PROOF_*  every shear the two case analyses construct (30 real-direction,
         18 imaginary-direction), under our own sequential numbering

Membership of a function in several families is represented by one entry
per (family, function) pair; family-qualified ids carry an ``s1_``/``t3_``/
``t5_`` prefix.  Those lists are derived from the base rows' flags, not
retyped: S1 is the S_Z rows with ``cv_real`` set, T3 the T1 rows with
``cv_real`` set, and T5 the S_Z and T1 rows with ``cv_imag`` set.  The
real-direction shear sources are S1 then T3, the imaginary-direction ones
T5.

The non-conformal maps are stated once, in one table: each T4 row gives h,
g, shear source, omega sign and flags, and each T6 row gives its source and
sign and takes h and g from the T4 row with the same name.  Shear-generated
entries are named ``f<k>_cv1`` and ``f<k>_cvi``.  A shear whose recipe
(source, sign, axis) is that of a T4/T6 entry is the same map: its ``twin``
names that entry, and it takes the twin's h and flags, so it is flagged
half-integer exactly when it has a twin.  The other shears carry a closed
form for h where a hand integration is on record; the eight without one
keep only their series and recipe.  Where a shear has h, its g is
h - source (real direction) or source - h (imaginary direction).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction

from .analytic import AnalyticExpr, Poly
from .errors import UnknownId
from .exprtext import format_expr
from .numkernel import GaussRational
from .shear import HarmonicMap, shear_imag, shear_real

__all__ = [
    "BoundaryDescriptor", "FlagSet", "ShearRecipe", "CatalogEntry",
    "catalog_build", "catalog_lookup", "catalog_ids", "export_atlas",
    "DEFAULT_ORDER",
]

DEFAULT_ORDER = 64

F = Fraction


def _gr(re, im=0) -> GaussRational:
    return GaussRational(F(re), F(im))


def P(*cs) -> Poly:
    return Poly(cs)


ONE = P(1)
Z = P(0, 1)
I = GaussRational(0, 1)


def rat(c, num, den=None) -> AnalyticExpr:
    return AnalyticExpr.rational(c, num, den or ONE)


def lg(c, arg) -> AnalyticExpr:
    return AnalyticExpr.log(c, arg)


def _sum(*parts: AnalyticExpr) -> AnalyticExpr:
    out = parts[0]
    for p in parts[1:]:
        out = out + p
    return out


# surd values a + b*sqrt(3), stored exactly as (a, b)
def _surd(a, b=0) -> tuple[Fraction, Fraction]:
    return (F(a), F(b))


@dataclass(frozen=True)
class BoundaryDescriptor:
    """Exact description of the image boundary, where one is on record.

    ``params`` holds (a, b) pairs meaning a + b*sqrt(3); their meaning is
    kind-specific:

    * slit_lines: ray anchors on the slit line(s);
    * parabola: coefficients (A, B, C) of A*u + B*v^2 + C = 0; the relation
      holds for the boundary values f(e^{i theta}) off the poles, not for
      the traces f(r e^{i theta}) at r < 1;
    * curve / cusped: anchors of the trace formula, informational.
    """
    kind: str
    params: tuple = ()

    def to_json(self) -> dict:
        return {"kind": self.kind,
                "params": [[str(a), str(b)] for (a, b) in self.params]}


@dataclass(frozen=True)
class FlagSet:
    """Expected classification flags; None means not asserted anywhere."""
    integer_coeffs: bool
    half_integer_coeffs: bool
    cv_real: bool | None = None
    cv_imag: bool | None = None
    starlike: bool | None = None
    u_class: bool | None = None
    boundary: BoundaryDescriptor | None = None

    def __post_init__(self):
        if self.integer_coeffs and not self.half_integer_coeffs:
            raise ValueError("integer coefficients imply half-integer coefficients")

    def to_json(self) -> dict:
        out = {
            "integer_coeffs": self.integer_coeffs,
            "half_integer_coeffs": self.half_integer_coeffs,
            "cv_real": self.cv_real,
            "cv_imag": self.cv_imag,
            "starlike": self.starlike,
            "u_class": self.u_class,
        }
        if self.boundary is not None:
            out["boundary"] = self.boundary.to_json()
        return out


@dataclass(frozen=True)
class ShearRecipe:
    """How a harmonic entry is produced: source id, omega = sign*z, axis."""
    source_id: str
    omega_sign: int
    axis: str  # "real" | "imag"


@dataclass(frozen=True)
class CatalogEntry:
    id: str
    family: str
    h: AnalyticExpr | None
    g: AnalyticExpr | None
    omega: AnalyticExpr | None
    expected: FlagSet
    recipe: ShearRecipe | None = None
    twin: str | None = None  # the T4/T6 entry a proof shear equals
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def is_conformal(self) -> bool:
        return self.omega is None

    def harmonic_map(self, order: int = DEFAULT_ORDER) -> HarmonicMap:
        """Materialize the entry as a HarmonicMap at the given order.

        Conformal entries get g = 0 and omega = 0; every other entry carries
        a shear recipe, is sheared on demand and is cross-checked against
        any closed forms.
        """
        cached = self._cache.get(order)
        if cached is not None:
            return cached
        if self.is_conformal:
            fm = HarmonicMap.conformal(self.h, order)
        else:
            source = catalog_lookup(self.recipe.source_id).h
            shear = shear_real if self.recipe.axis == "real" else shear_imag
            fm = shear(source, self.omega, order)
            if self.h is not None:
                fm = replace(fm, h_expr=self.h, g_expr=self.g)
        self._cache[order] = fm
        return fm


# ---------------------------------------------------------------------------
# base conformal entries
# ---------------------------------------------------------------------------

_SLIT = "slit_lines"

# id -> (expr, family, cv_real, cv_imag, boundary)
_CONFORMAL = {
    # the nine integer-coefficient maps
    "identity":        (rat(1, Z), "S_Z", True, True, None),
    "halfplane":       (rat(1, Z, P(1, -1)), "S_Z", True, True, None),
    "halfplane_r":     (rat(1, Z, P(1, 1)), "S_Z", True, True, None),
    "vslits":          (rat(1, Z, P(1, 0, -1)), "S_Z", False, True,
                        BoundaryDescriptor(_SLIT, (_surd(F(1, 2)),))),
    "hslits":          (rat(1, Z, P(1, 0, 1)), "S_Z", True, False,
                        BoundaryDescriptor(_SLIT, (_surd(F(1, 2)),))),
    "koebe":           (rat(1, Z, P(1, -2, 1)), "S_Z", True, False,
                        BoundaryDescriptor(_SLIT, (_surd(F(-1, 4)),))),
    "koebe_r":         (rat(1, Z, P(1, 2, 1)), "S_Z", True, False,
                        BoundaryDescriptor(_SLIT, (_surd(F(1, 4)),))),
    "hslits_wide":     (rat(1, Z, P(1, -1, 1)), "S_Z", True, False,
                        BoundaryDescriptor(_SLIT, (_surd(F(-1, 3)), _surd(1)))),
    "hslits_wide_r":   (rat(1, Z, P(1, 1, 1)), "S_Z", True, False,
                        BoundaryDescriptor(_SLIT, (_surd(-1), _surd(F(1, 3))))),
    # the ten extra half-integer maps that are close-to-convex
    "cardioid_r":      (rat(F(1, 2), P(0, 2, -1)), "T1", True, False, None),
    "cardioid":        (rat(F(1, 2), P(0, 2, 1)), "T1", True, False, None),
    "halfplane_avg":   (rat(F(1, 2), P(0, 2, -1), P(1, -1)), "T1", True, True, None),
    "halfplane_avg_r": (rat(F(1, 2), P(0, 2, 1), P(1, 1)), "T1", True, True, None),
    "vslits_avg":      (rat(F(1, 2), P(0, 2, 0, -1), P(1, 0, -1)), "T1", False, True, None),
    "hslits_avg":      (rat(F(1, 2), P(0, 2, 0, 1), P(1, 0, 1)), "T1", True, False, None),
    "offset_vslits":   (rat(F(1, 2), P(0, 2, -1), P(1, 0, -1)), "T1", False, True,
                        BoundaryDescriptor(_SLIT, (_surd(F(1, 4)), _surd(0, F(1, 4))))),
    "offset_vslits_r": (rat(F(1, 2), P(0, 2, 1), P(1, 0, -1)), "T1", False, True,
                        BoundaryDescriptor(_SLIT, (_surd(F(-1, 4)), _surd(0, F(1, 4))))),
    "parabola":        (rat(F(1, 2), P(0, 2, -1), P(1, -2, 1)), "T1", True, False,
                        BoundaryDescriptor("parabola", (_surd(8), _surd(16), _surd(3)))),
    "parabola_r":      (rat(F(1, 2), P(0, 2, 1), P(1, 2, 1)), "T1", True, False,
                        BoundaryDescriptor("parabola", (_surd(-8), _surd(16), _surd(3)))),
    # the two half-integer maps that are not close-to-convex
    "hslits_wide_avg":   (rat(F(1, 2), P(0, 2, -1, 1), P(1, -1, 1)), "T2", False, False, None),
    "hslits_wide_avg_r": (rat(F(1, 2), P(0, 2, 1, 1), P(1, 1, 1)), "T2", False, False, None),
}


def _convex_ids(families: tuple[str, ...], direction: str) -> tuple[str, ...]:
    """``_CONFORMAL`` ids in ``families`` flagged convex in ``direction``."""
    col = 2 if direction == "real" else 3
    return tuple(cid for cid, row in _CONFORMAL.items()
                 if row[1] in families and row[col])


_S1 = _convex_ids(("S_Z",), "real")
_T3 = _convex_ids(("T1",), "real")
_T5 = _convex_ids(("S_Z", "T1"), "imag")

# shear sources, in case-analysis order: 15 real-direction, 9 imaginary-direction
_CV1_SOURCES = _S1 + _T3
_CVI_SOURCES = _T5

_HALF = F(1, 2)
_K_M, _K_P, _Z2 = P(1, -2, 1), P(1, 2, 1), P(0, 0, 1)   # (1-z)^2, (1+z)^2, z^2

# The non-conformal half-integer maps, each stated once.  T4 (convex in the
# real direction): id suffix -> (h, g, shear source, omega sign, cv_imag,
# starlike).  T6 (convex in the imaginary direction): id suffix -> (shear
# source, omega sign); h and g are those of the T4 row with the same suffix.
_T4 = {
    "re_koebe_im_halfplane": (rat(_HALF, P(0, 2, -1), _K_M), rat(_HALF, _Z2, _K_M),
                              "halfplane", +1, False, False),
    "re_koebe_r_im_halfplane_r": (rat(_HALF, P(0, 2, 1), _K_P), rat(-_HALF, _Z2, _K_P),
                                  "halfplane_r", -1, False, None),
    "re_halfplane_im_koebe": (rat(_HALF, P(0, 2, -1), _K_M), rat(-_HALF, _Z2, _K_M),
                              "koebe", -1, True, None),
    "re_halfplane_r_im_koebe_r": (rat(_HALF, P(0, 2, 1), _K_P), rat(_HALF, _Z2, _K_P),
                                  "koebe_r", +1, True, None),
    "conj_sq_plus": (rat(1, Z), rat(_HALF, _Z2), "cardioid_r", +1, False, None),
    "conj_sq_minus": (rat(1, Z), rat(-_HALF, _Z2), "cardioid", -1, False, None),
}
_T6 = {
    "re_halfplane_im_koebe": ("halfplane", -1),
    "re_halfplane_r_im_koebe_r": ("halfplane_r", +1),
}

# closed forms for h taken from the hand integrations on record; a shear
# with a T4/T6 twin takes the twin's h instead
_CV1_H_EXPRS = {
    1: lg(-1, P(1, -1)),
    2: lg(1, P(1, 1)),
    4: _sum(rat(_HALF, Z, P(1, -1)), lg(F(1, 4), P(1, 1)), lg(F(-1, 4), P(1, -1))),
    5: _sum(rat(_HALF, Z, P(1, 1)), lg(F(1, 4), P(1, 1)), lg(F(-1, 4), P(1, -1))),
    7: _sum(rat(_HALF, P(0, 0, 1), P(1, 0, 1)), rat(_HALF, Z, P(1, 0, 1)),
            lg(_gr(0, F(-1, 4)), P(1, I)), lg(_gr(0, F(1, 4)), P(1, -I))),
    8: _sum(rat(-_HALF, P(0, 0, 1), P(1, 0, 1)), rat(_HALF, Z, P(1, 0, 1)),
            lg(_gr(0, F(-1, 4)), P(1, I)), lg(_gr(0, F(1, 4)), P(1, -I))),
    9: rat(1, P(0, 1, F(-1, 2), F(1, 6)), P(1, -3, 3, -1)),
    12: rat(1, P(0, 1, F(1, 2), F(1, 6)), P(1, 3, 3, 1)),
    18: _sum(lg(2, P(1, 1)), rat(-1, Z)),
    19: _sum(lg(-2, P(1, -1)), rat(-1, Z)),
    21: _sum(lg(-_HALF, P(1, -1)), rat(F(1, 4), ONE, P(1, -2, 1)), rat(F(-1, 4), ONE)),
    22: _sum(lg(F(5, 8), P(1, 1)), lg(F(-1, 8), P(1, -1)),
             rat(F(1, 4), ONE, P(1, -1)), rat(F(-1, 4), ONE)),
    23: _sum(lg(F(1, 8), P(1, 1)), lg(F(-5, 8), P(1, -1)), rat(F(1, 4), Z, P(1, 1))),
    24: _sum(lg(_HALF, P(1, 1)), rat(F(-1, 4), ONE, P(1, 2, 1)), rat(F(1, 4), ONE)),
    27: _sum(rat(F(1, 3), ONE, P(1, -3, 3, -1)), rat(F(-1, 3), ONE)),
    28: _sum(rat(F(1, 4), ONE, P(1, -2, 1)), rat(F(1, 4), ONE, P(1, -1)),
             rat(-_HALF, ONE), lg(F(1, 8), P(1, 1)), lg(F(-1, 8), P(1, -1))),
    29: _sum(rat(F(-1, 4), ONE, P(1, 2, 1)), rat(F(-1, 4), ONE, P(1, 1)),
             rat(_HALF, ONE), lg(F(1, 8), P(1, 1)), lg(F(-1, 8), P(1, -1))),
    30: _sum(rat(F(-1, 3), ONE, P(1, 3, 3, 1)), rat(F(1, 3), ONE)),
}

_CVI_H_EXPRS = {
    1: lg(1, P(1, 1)),
    2: lg(-1, P(1, -1)),
    3: _sum(rat(_HALF, Z, P(1, -1)), lg(F(1, 4), P(1, 1)), lg(F(-1, 4), P(1, -1))),
    6: _sum(rat(_HALF, Z, P(1, 1)), lg(F(1, 4), P(1, 1)), lg(F(-1, 4), P(1, -1))),
    9: _sum(lg(F(5, 8), P(1, 1)), lg(F(-1, 8), P(1, -1)), rat(F(1, 4), Z, P(1, -1))),
    10: _sum(rat(F(1, 4), ONE, P(1, -2, 1)), lg(-_HALF, P(1, -1)), rat(F(-1, 4), ONE)),
    11: _sum(rat(F(-1, 4), ONE, P(1, 2, 1)), lg(_HALF, P(1, 1)), rat(F(1, 4), ONE)),
    12: _sum(lg(F(1, 8), P(1, 1)), lg(F(-5, 8), P(1, -1)), rat(F(1, 4), Z, P(1, 1))),
    13: _sum(rat(F(-1, 8), ONE, P(1, 2, 1)), rat(F(1, 8), ONE, P(1, -1)),
             lg(F(-1, 16), P(1, -1)), lg(F(9, 16), P(1, 1))),
    14: _sum(rat(F(1, 8), ONE, P(1, -2, 1)), rat(F(-1, 8), ONE, P(1, 1)),
             lg(F(1, 16), P(1, 1)), lg(F(-9, 16), P(1, -1))),
    15: _sum(lg(F(1, 16), P(1, 1)), lg(F(-1, 16), P(1, -1)),
             rat(F(1, 8), ONE, P(1, -1)), rat(F(-3, 8), ONE, P(1, 2, 1)), rat(F(1, 4), ONE)),
    16: _sum(lg(F(3, 16), P(1, 1)), lg(F(-3, 16), P(1, -1)),
             rat(F(1, 8), ONE, P(1, -2, 1)), rat(F(-3, 8), ONE, P(1, 1)), rat(F(1, 4), ONE)),
    17: _sum(lg(F(3, 16), P(1, 1)), lg(F(-3, 16), P(1, -1)),
             rat(F(-1, 8), ONE, P(1, 2, 1)), rat(F(3, 8), ONE, P(1, -1)), rat(F(-1, 4), ONE)),
    18: _sum(lg(F(1, 16), P(1, 1)), lg(F(-1, 16), P(1, -1)),
             rat(F(3, 8), ONE, P(1, -2, 1)), rat(F(-1, 8), ONE, P(1, 1)), rat(F(-1, 4), ONE)),
}

_ALIASES = {
    "harmonic_koebe": "f9_cv1",
    "f_plus": "hslits_wide_avg",
    "f_minus": "hslits_wide_avg_r",
}


def _omega_expr(sign: int) -> AnalyticExpr:
    return rat(sign, Z)


def _nonconformal_entries() -> list[CatalogEntry]:
    """The T4 rows, then the T6 rows with h and g of their T4 namesakes."""
    rows = [("T4", "real", suffix, *row) for suffix, row in _T4.items()]
    rows += [("T6", "imag", suffix, *_T4[suffix][:2], src, sign, True, None)
             for suffix, (src, sign) in _T6.items()]
    return [CatalogEntry(
        id=f"{family.lower()}_{suffix}", family=family, h=h, g=g,
        omega=_omega_expr(sign),
        expected=FlagSet(False, True, cv_real=True, cv_imag=cv_imag,
                         starlike=starlike),
        recipe=ShearRecipe(src, sign, axis),
    ) for family, axis, suffix, h, g, src, sign, cv_imag, starlike in rows]


def _proof_entries(axis: str, twins: dict) -> list[CatalogEntry]:
    """The case analysis's shears along ``axis``.

    ``twins`` maps a T4/T6 recipe to its entry.  A shear with the same
    recipe is that map: it takes the twin's h and expected flags.
    """
    sources = _CV1_SOURCES if axis == "real" else _CVI_SOURCES
    h_exprs = _CV1_H_EXPRS if axis == "real" else _CVI_H_EXPRS
    tag = "cv1" if axis == "real" else "cvi"
    out = []
    for idx, source_id in enumerate(sources):
        source_expr = _CONFORMAL[source_id][0]
        for sign in (+1, -1):
            k = 2 * idx + (1 if sign > 0 else 2)
            recipe = ShearRecipe(source_id, sign, axis)
            twin = twins.get(recipe)
            h = twin.h if twin is not None else h_exprs.get(k)
            g = None
            if h is not None:
                g = h - source_expr if axis == "real" else source_expr - h
            flags = (twin.expected if twin is not None
                     else FlagSet(False, False, **{f"cv_{axis}": True}))
            out.append(CatalogEntry(
                id=f"f{k}_{tag}", family=f"PROOF_{tag.upper()}",
                h=h, g=g, omega=_omega_expr(sign), expected=flags,
                recipe=recipe, twin=twin.id if twin is not None else None,
            ))
    return out


def _conformal_entry(cid, prefix="", family=None) -> CatalogEntry:
    expr, base_family, cv_r, cv_i, boundary = _CONFORMAL[cid]
    in_sz = base_family == "S_Z"
    flags = FlagSet(
        integer_coeffs=in_sz,
        half_integer_coeffs=True,
        cv_real=cv_r,
        cv_imag=cv_i,
        starlike=True if in_sz else None,
        u_class=True if in_sz else (False if base_family == "T2" else None),
        boundary=boundary,
    )
    return CatalogEntry(id=prefix + cid, family=family or base_family, h=expr,
                        g=AnalyticExpr.zero(), omega=None, expected=flags)


_CATALOG: tuple[CatalogEntry, ...] | None = None
_INDEX: dict[str, CatalogEntry] = {}


def catalog_build() -> tuple[CatalogEntry, ...]:
    """Build (once) and return the full immutable catalog."""
    global _CATALOG
    if _CATALOG is not None:
        return _CATALOG
    entries: list[CatalogEntry] = []
    for cid in _CONFORMAL:
        entries.append(_conformal_entry(cid))
    for cid in _S1:
        entries.append(_conformal_entry(cid, prefix="s1_", family="S1"))
    for cid in _T3:
        entries.append(_conformal_entry(cid, prefix="t3_", family="T3"))
    for cid in _T5:
        entries.append(_conformal_entry(cid, prefix="t5_", family="T5"))
    nonconformal = _nonconformal_entries()
    twins = {e.recipe: e for e in nonconformal}
    entries.extend(nonconformal)
    entries.extend(_proof_entries("real", twins))
    entries.extend(_proof_entries("imag", twins))
    _CATALOG = tuple(entries)
    _INDEX.clear()
    _INDEX.update({e.id: e for e in entries})
    return _CATALOG


def catalog_lookup(entry_id: str) -> CatalogEntry:
    catalog_build()
    entry_id = _ALIASES.get(entry_id, entry_id)
    try:
        return _INDEX[entry_id]
    except KeyError:
        raise UnknownId(entry_id) from None


def catalog_ids(family: str | None = None) -> list[str]:
    return [e.id for e in catalog_build() if family is None or e.family == family]


def export_atlas() -> dict:
    """JSON-able atlas: id, family, expression text, expected flags."""
    entries = []
    for e in catalog_build():
        entries.append({
            "id": e.id,
            "family": e.family,
            "h": format_expr(e.h) if e.h is not None else None,
            "g": format_expr(e.g) if e.g is not None else None,
            "omega": format_expr(e.omega) if e.omega is not None else None,
            "recipe": (None if e.recipe is None else {
                "source": e.recipe.source_id,
                "omega": f"{'+' if e.recipe.omega_sign > 0 else '-'}z",
                "axis": e.recipe.axis,
            }),
            "flags": e.expected.to_json(),
        })
    return {"schema": 1, "entries": entries}
