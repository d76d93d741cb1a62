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

Every closed form is written in the atlas text that ``list --json`` prints
and ``harmonic-atlas expand`` accepts (``rat(c; num; den)`` and
``log(c; arg)`` terms, see :mod:`exprtext`), exactly as ``format_expr``
gives it back.  Each table row's text is parsed once, at import, so the
entries that share a row share one expression and its series caches.

Membership of a function in several families is represented by one entry
per (family, function) pair; family-qualified ids carry an ``s1_``/``t3_``/
``t5_`` prefix.  Those lists are derived from the base rows' flags, not
retyped: S1 is the S_Z rows with ``cv_real`` set, T3 the T1 rows with
``cv_real`` set, and T5 the S_Z and T1 rows with ``cv_imag`` set.  The
real-direction shear sources are S1 then T3, the imaginary-direction ones
T5.

The non-conformal maps are stated once, in one table: each T4 row gives h,
g, shear source, omega sign and flags, and each T6 row gives its source and
sign and takes h and g from the T4 row with the same name.  A T4 row's h is
the conformal entry that averages its two source maps h + g and h - g:
``parabola`` for the two ``koebe``/``halfplane`` rows, ``parabola_r`` for
their reflections, and ``identity`` for ``conj_sq_plus``/``conj_sq_minus``.
Shear-generated entries are named ``f<k>_cv1`` and ``f<k>_cvi``.  A shear
whose recipe (source, sign, axis) is that of a T4/T6 entry is the same map:
its ``twin`` names that entry, and it takes the twin's h and flags, so it
is flagged half-integer exactly when it has a twin.  The other shears
carry a closed form for h where a hand integration is on record; the
eight without one keep only their series and recipe.  Where a shear has
h, its g is h - source (real direction) or source - h (imaginary
direction), so the identity that proves h proves g (``shear`` module
doc), at whatever order the map is built.

An id is decoded from its shape; no lookup writes out every id.  Past the
bare conformal ids it is ``s1_``/``t3_``/``t5_`` and a conformal id of that
family, ``t4_``/``t6_`` and a T4/T6 suffix, or ``f<k>_cv1``/``f<k>_cvi``, k
in ASCII digits, no leading zero, at most twice the axis's source count.
``catalog_lookup`` builds that entry, and a proof shear's twin; a source
comes with its shear's map.  ``catalog_ids`` writes every id out once and
builds nothing, and ``catalog_build`` looks each up.  Whichever comes
first, each id has one entry object per process, shared by every caller.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from fractions import Fraction

from .analytic import AnalyticExpr
from .errors import Frozen, UnknownId
from .exprtext import format_expr, parse_expr_text
from .shear import HarmonicMap, shear_imag, shear_real

__all__ = [
    "BoundaryDescriptor", "FlagSet", "ShearRecipe", "CatalogEntry",
    "catalog_build", "catalog_lookup", "catalog_ids", "export_atlas",
    "DEFAULT_ORDER",
]

DEFAULT_ORDER = 64
# The largest order a map is built at: every command's cap (``VerifyConfig``)
# and the order a log part's witness is searched to (``classify``), well
# above the benchmark's order 128.
_MAX_ORDER = 1024

F = Fraction


# surd values a + b*sqrt(3), stored exactly as (a, b)
def _surd(a, b=0) -> tuple[Fraction, Fraction]:
    return (F(a), F(b))


class BoundaryDescriptor(namedtuple("BoundaryDescriptor", "kind params", defaults=((),))):
    """Exact description of the image boundary, where one is on record.

    ``params`` holds (a, b) pairs meaning a + b*sqrt(3); their meaning is
    kind-specific:

    * slit_lines: ray anchors on the slit line(s);
    * parabola: coefficients (A, B, C) of A*u + B*v^2 + C = 0; the relation
      holds for the boundary values f(e^{i theta}) off the poles, not for
      the traces f(r e^{i theta}) at r < 1.
    """
    __slots__ = ()

    def to_json(self) -> dict:
        return {"kind": self.kind,
                "params": [[str(a), str(b)] for (a, b) in self.params]}


class FlagSet(Frozen):
    """Expected classification flags; None means not asserted anywhere."""

    __slots__ = ("integer_coeffs", "half_integer_coeffs", "cv_real", "cv_imag",
                 "starlike", "u_class", "boundary")

    def __init__(self, integer_coeffs: bool, half_integer_coeffs: bool,
                 cv_real: bool | None = None, cv_imag: bool | None = None,
                 starlike: bool | None = None, u_class: bool | None = None,
                 boundary: BoundaryDescriptor | None = None):
        if integer_coeffs and not half_integer_coeffs:
            raise ValueError("integer coefficients imply half-integer coefficients")
        object.__setattr__(self, "integer_coeffs", integer_coeffs)
        object.__setattr__(self, "half_integer_coeffs", half_integer_coeffs)
        object.__setattr__(self, "cv_real", cv_real)
        object.__setattr__(self, "cv_imag", cv_imag)
        object.__setattr__(self, "starlike", starlike)
        object.__setattr__(self, "u_class", u_class)
        object.__setattr__(self, "boundary", boundary)

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


class ShearRecipe(namedtuple("ShearRecipe", "source_id omega_sign axis")):
    """How a harmonic entry is produced: source id, omega = sign*z, axis
    ("real" or "imag")."""
    __slots__ = ()


class CatalogEntry(Frozen):
    """One (family, function) pair of the catalog.  ``_cache`` holds its
    maps by order."""

    __slots__ = ("id", "family", "h", "g", "expected", "recipe", "twin", "_cache")

    def __init__(self, id: str, family: str, h: AnalyticExpr | None,
                 g: AnalyticExpr | None, expected: FlagSet,
                 recipe: ShearRecipe | None = None, twin: str | None = None):
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "expected", expected)
        object.__setattr__(self, "recipe", recipe)
        object.__setattr__(self, "twin", twin)  # the T4/T6 entry a proof shear equals
        object.__setattr__(self, "_cache", {})

    @property
    def omega(self) -> AnalyticExpr | None:
        """The recipe's dilatation sign*z; None for a conformal entry."""
        return None if self.recipe is None else _OMEGA[self.recipe.omega_sign]

    @property
    def is_conformal(self) -> bool:
        return self.recipe is None

    def harmonic_map(self, order: int = DEFAULT_ORDER) -> HarmonicMap:
        """Materialize the entry as a HarmonicMap at the given order.

        Conformal entries get g = 0 and omega = 0; every other entry carries
        a shear recipe, is sheared on demand, and its closed forms, if any,
        are proved by the shear's identity.
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
                fm = fm.replace(h_expr=self.h, g_expr=self.g)
        self._cache[order] = fm
        return fm


def _parsed(forms: dict) -> dict:
    """The same keys, each form parsed once."""
    return {key: parse_expr_text(text) for key, text in forms.items()}


# the shear dilatations +z and -z, and the g of every conformal entry
_OMEGA = _parsed({+1: "rat(1; 0,1; 1)", -1: "rat(-1; 0,1; 1)"})
_ZERO = AnalyticExpr.zero()

# ---------------------------------------------------------------------------
# base conformal entries
# ---------------------------------------------------------------------------

_SLIT = "slit_lines"

# id -> (h, family, cv_real, cv_imag, boundary)
_CONFORMAL = {
    # the nine integer-coefficient maps
    "identity":        ("rat(1; 0,1; 1)", "S_Z", True, True, None),
    "halfplane":       ("rat(1; 0,1; 1,-1)", "S_Z", True, True, None),
    "halfplane_r":     ("rat(1; 0,1; 1,1)", "S_Z", True, True, None),
    "vslits":          ("rat(1; 0,1; 1,0,-1)", "S_Z", False, True,
                        BoundaryDescriptor(_SLIT, (_surd(F(1, 2)),))),
    "hslits":          ("rat(1; 0,1; 1,0,1)", "S_Z", True, False,
                        BoundaryDescriptor(_SLIT, (_surd(F(1, 2)),))),
    "koebe":           ("rat(1; 0,1; 1,-2,1)", "S_Z", True, False,
                        BoundaryDescriptor(_SLIT, (_surd(F(-1, 4)),))),
    "koebe_r":         ("rat(1; 0,1; 1,2,1)", "S_Z", True, False,
                        BoundaryDescriptor(_SLIT, (_surd(F(1, 4)),))),
    "hslits_wide":     ("rat(1; 0,1; 1,-1,1)", "S_Z", True, False,
                        BoundaryDescriptor(_SLIT, (_surd(F(-1, 3)), _surd(1)))),
    "hslits_wide_r":   ("rat(1; 0,1; 1,1,1)", "S_Z", True, False,
                        BoundaryDescriptor(_SLIT, (_surd(-1), _surd(F(1, 3))))),
    # the ten extra half-integer maps that are close-to-convex
    "cardioid_r":      ("rat(1/2; 0,2,-1; 1)", "T1", True, False, None),
    "cardioid":        ("rat(1/2; 0,2,1; 1)", "T1", True, False, None),
    "halfplane_avg":   ("rat(1/2; 0,2,-1; 1,-1)", "T1", True, True, None),
    "halfplane_avg_r": ("rat(1/2; 0,2,1; 1,1)", "T1", True, True, None),
    "vslits_avg":      ("rat(1/2; 0,2,0,-1; 1,0,-1)", "T1", False, True, None),
    "hslits_avg":      ("rat(1/2; 0,2,0,1; 1,0,1)", "T1", True, False, None),
    "offset_vslits":   ("rat(1/2; 0,2,-1; 1,0,-1)", "T1", False, True,
                        BoundaryDescriptor(_SLIT, (_surd(F(1, 4)), _surd(0, F(1, 4))))),
    "offset_vslits_r": ("rat(1/2; 0,2,1; 1,0,-1)", "T1", False, True,
                        BoundaryDescriptor(_SLIT, (_surd(F(-1, 4)), _surd(0, F(1, 4))))),
    "parabola":        ("rat(1/2; 0,2,-1; 1,-2,1)", "T1", True, False,
                        BoundaryDescriptor("parabola", (_surd(8), _surd(16), _surd(3)))),
    "parabola_r":      ("rat(1/2; 0,2,1; 1,2,1)", "T1", True, False,
                        BoundaryDescriptor("parabola", (_surd(-8), _surd(16), _surd(3)))),
    # the two half-integer maps that are not close-to-convex
    "hslits_wide_avg":   ("rat(1/2; 0,2,-1,1; 1,-1,1)", "T2", False, False, None),
    "hslits_wide_avg_r": ("rat(1/2; 0,2,1,1; 1,1,1)", "T2", False, False, None),
}
_H = _parsed({cid: row[0] for cid, row in _CONFORMAL.items()})


def _convex_ids(families: tuple[str, ...], direction: str) -> tuple[str, ...]:
    """``_CONFORMAL`` ids in ``families`` flagged convex in ``direction``."""
    col = 2 if direction == "real" else 3
    return tuple(cid for cid, row in _CONFORMAL.items()
                 if row[1] in families and row[col])


_S1 = _convex_ids(("S_Z",), "real")
_T3 = _convex_ids(("T1",), "real")
_T5 = _convex_ids(("S_Z", "T1"), "imag")

# proof shear id tag -> (family, axis, shear sources in case-analysis order: 15
# real-direction, 9 imaginary-direction); id f<k> + tag, 1 <= k <= 2 len(sources)
_SHEARS = {"_cv1": ("PROOF_CV1", "real", _S1 + _T3), "_cvi": ("PROOF_CVI", "imag", _T5)}

# The non-conformal half-integer maps, each stated once.  T4 (convex in the
# real direction): id suffix -> (h as a conformal id, g, shear source, omega
# sign, cv_imag, starlike).  T6 (convex in the imaginary direction): id
# suffix -> (shear source, omega sign); h and g are those of the T4 row with
# the same suffix.
_T4 = {
    "re_koebe_im_halfplane": ("parabola", "rat(1/2; 0,0,1; 1,-2,1)",
                              "halfplane", +1, False, False),
    "re_koebe_r_im_halfplane_r": ("parabola_r", "rat(-1/2; 0,0,1; 1,2,1)",
                                  "halfplane_r", -1, False, None),
    "re_halfplane_im_koebe": ("parabola", "rat(-1/2; 0,0,1; 1,-2,1)",
                              "koebe", -1, True, None),
    "re_halfplane_r_im_koebe_r": ("parabola_r", "rat(1/2; 0,0,1; 1,2,1)",
                                  "koebe_r", +1, True, None),
    "conj_sq_plus": ("identity", "rat(1/2; 0,0,1; 1)", "cardioid_r", +1, False, None),
    "conj_sq_minus": ("identity", "rat(-1/2; 0,0,1; 1)", "cardioid", -1, False, None),
}
_T4_G = _parsed({suffix: row[1] for suffix, row in _T4.items()})
_T6 = {
    "re_halfplane_im_koebe": ("halfplane", -1),
    "re_halfplane_r_im_koebe_r": ("halfplane_r", +1),
}

# closed forms for h taken from the hand integrations on record; a shear
# with a T4/T6 twin takes the twin's h instead
_CV1_H_EXPRS = {
    1: "log(-1; 1,-1)",
    2: "log(1; 1,1)",
    4: "rat(1/2; 0,1; 1,-1) + log(1/4; 1,1) + log(-1/4; 1,-1)",
    5: "rat(1/2; 0,1; 1,1) + log(1/4; 1,1) + log(-1/4; 1,-1)",
    7: "rat(1/2; 0,0,1; 1,0,1) + rat(1/2; 0,1; 1,0,1)"
       " + log(-1/4 i; 1,i) + log(1/4 i; 1,-i)",
    8: "rat(-1/2; 0,0,1; 1,0,1) + rat(1/2; 0,1; 1,0,1)"
       " + log(-1/4 i; 1,i) + log(1/4 i; 1,-i)",
    9: "rat(1; 0,1,-1/2,1/6; 1,-3,3,-1)",
    12: "rat(1; 0,1,1/2,1/6; 1,3,3,1)",
    18: "log(2; 1,1) + rat(-1; 0,1; 1)",
    19: "log(-2; 1,-1) + rat(-1; 0,1; 1)",
    21: "log(-1/2; 1,-1) + rat(1/4; 1; 1,-2,1) + rat(-1/4; 1; 1)",
    22: "log(5/8; 1,1) + log(-1/8; 1,-1) + rat(1/4; 1; 1,-1) + rat(-1/4; 1; 1)",
    23: "log(1/8; 1,1) + log(-5/8; 1,-1) + rat(1/4; 0,1; 1,1)",
    24: "log(1/2; 1,1) + rat(-1/4; 1; 1,2,1) + rat(1/4; 1; 1)",
    27: "rat(1/3; 1; 1,-3,3,-1) + rat(-1/3; 1; 1)",
    28: "rat(1/4; 1; 1,-2,1) + rat(1/4; 1; 1,-1) + rat(-1/2; 1; 1)"
        " + log(1/8; 1,1) + log(-1/8; 1,-1)",
    29: "rat(-1/4; 1; 1,2,1) + rat(-1/4; 1; 1,1) + rat(1/2; 1; 1)"
        " + log(1/8; 1,1) + log(-1/8; 1,-1)",
    30: "rat(-1/3; 1; 1,3,3,1) + rat(1/3; 1; 1)",
}

_CVI_H_EXPRS = {
    1: "log(1; 1,1)",
    2: "log(-1; 1,-1)",
    3: "rat(1/2; 0,1; 1,-1) + log(1/4; 1,1) + log(-1/4; 1,-1)",
    6: "rat(1/2; 0,1; 1,1) + log(1/4; 1,1) + log(-1/4; 1,-1)",
    9: "log(5/8; 1,1) + log(-1/8; 1,-1) + rat(1/4; 0,1; 1,-1)",
    10: "rat(1/4; 1; 1,-2,1) + log(-1/2; 1,-1) + rat(-1/4; 1; 1)",
    11: "rat(-1/4; 1; 1,2,1) + log(1/2; 1,1) + rat(1/4; 1; 1)",
    12: "log(1/8; 1,1) + log(-5/8; 1,-1) + rat(1/4; 0,1; 1,1)",
    13: "rat(-1/8; 1; 1,2,1) + rat(1/8; 1; 1,-1) + log(-1/16; 1,-1) + log(9/16; 1,1)",
    14: "rat(1/8; 1; 1,-2,1) + rat(-1/8; 1; 1,1) + log(1/16; 1,1) + log(-9/16; 1,-1)",
    15: "log(1/16; 1,1) + log(-1/16; 1,-1) + rat(1/8; 1; 1,-1)"
        " + rat(-3/8; 1; 1,2,1) + rat(1/4; 1; 1)",
    16: "log(3/16; 1,1) + log(-3/16; 1,-1) + rat(1/8; 1; 1,-2,1)"
        " + rat(-3/8; 1; 1,1) + rat(1/4; 1; 1)",
    17: "log(3/16; 1,1) + log(-3/16; 1,-1) + rat(-1/8; 1; 1,2,1)"
        " + rat(3/8; 1; 1,-1) + rat(-1/4; 1; 1)",
    18: "log(1/16; 1,1) + log(-1/16; 1,-1) + rat(3/8; 1; 1,-2,1)"
        " + rat(-1/8; 1; 1,1) + rat(-1/4; 1; 1)",
}

_SHEAR_H = {"real": _parsed(_CV1_H_EXPRS), "imag": _parsed(_CVI_H_EXPRS)}

_ALIASES = {
    "harmonic_koebe": "f9_cv1",
    "f_plus": "hslits_wide_avg",
    "f_minus": "hslits_wide_avg_r",
}


def _nonconformal_entry(entry_id, family, suffix) -> CatalogEntry:
    """A T4 row, or a T6 row with the h and g of its T4 namesake."""
    h_id, _, src, sign, cv_imag, starlike = _T4[suffix]
    if family == "T6":
        (src, sign), cv_imag, starlike = _T6[suffix], True, None
    return CatalogEntry(
        id=entry_id, family=family, h=_H[h_id], g=_T4_G[suffix],
        expected=FlagSet(False, True, cv_real=True, cv_imag=cv_imag,
                         starlike=starlike),
        recipe=ShearRecipe(src, sign, "real" if family == "T4" else "imag"),
    )


def _proof_entry(entry_id, family, k) -> CatalogEntry:
    """Shear number ``k`` of the case analysis along the id's axis.

    A shear whose recipe is that of a T4/T6 entry, its twin, is that map:
    it takes the twin's h and expected flags.
    """
    _, axis, sources = _SHEARS[entry_id[-4:]]
    source_id, sign = sources[(k - 1) // 2], (1 if k % 2 else -1)
    twin_id = _TWINS.get((source_id, sign, axis))
    twin = None if twin_id is None else catalog_lookup(twin_id)
    h = twin.h if twin is not None else _SHEAR_H[axis].get(k)
    g = None
    if h is not None:
        source_expr = _H[source_id]
        g = h - source_expr if axis == "real" else source_expr - h
    flags = (twin.expected if twin is not None
             else FlagSet(False, False, **{f"cv_{axis}": True}))
    return CatalogEntry(id=entry_id, family=family, h=h, g=g, expected=flags,
                        recipe=ShearRecipe(source_id, sign, axis), twin=twin_id)


def _conformal_entry(entry_id, family, cid) -> CatalogEntry:
    _, base_family, cv_r, cv_i, boundary = _CONFORMAL[cid]
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
    return CatalogEntry(id=entry_id, family=family, h=_H[cid], g=_ZERO, expected=flags)


# The ids past the bare conformal ones, in catalog order: prefix -> (family,
# suffixes, builder); then the proof shears of ``_SHEARS``.
_PREFIXED = {"s1_": ("S1", _S1, _conformal_entry), "t3_": ("T3", _T3, _conformal_entry),
             "t5_": ("T5", _T5, _conformal_entry),
             "t4_": ("T4", _T4, _nonconformal_entry), "t6_": ("T6", _T6, _nonconformal_entry)}
# each T4/T6 recipe (source, sign, axis) -> its id
_TWINS = ({(row[2], row[3], "real"): "t4_" + suffix for suffix, row in _T4.items()}
          | {(src, sign, "imag"): "t6_" + suffix for suffix, (src, sign) in _T6.items()})


def _decode(entry_id: str) -> tuple:
    """(builder, family, key) of an id, read off its shape; ``UnknownId``
    for a string of no shape."""
    row = _CONFORMAL.get(entry_id)
    if row is not None:
        return _conformal_entry, row[1], entry_id
    family, suffixes, make = _PREFIXED.get(entry_id[:3], (None, (), None))
    if entry_id[3:] in suffixes:
        return make, family, entry_id[3:]
    family, _, sources = _SHEARS.get(entry_id[-4:], (None, None, ()))
    digits, top = entry_id[1:-4], 2 * len(sources)
    # k in ASCII digits, no leading zero, 1 <= k <= top; int() reads no long numeral
    if (entry_id[:1] == "f" and len(digits) <= len(str(top)) and digits.isascii()
            and digits.isdigit() and digits[0] != "0" and int(digits) <= top):
        return _proof_entry, family, int(digits)
    raise UnknownId(entry_id)


@functools.cache
def _families() -> dict:
    """Every id ``_decode`` reads, in catalog order: id -> family."""
    ids = {cid: row[1] for cid, row in _CONFORMAL.items()}
    for prefix, (family, suffixes, _) in _PREFIXED.items():
        ids.update((prefix + suffix, family) for suffix in suffixes)
    for tag, (family, _, sources) in _SHEARS.items():
        ids.update((f"f{k}{tag}", family) for k in range(1, 2 * len(sources) + 1))
    return ids


_INDEX: dict[str, CatalogEntry] = {}  # every entry built so far, by id


def catalog_build() -> tuple[CatalogEntry, ...]:
    """The full immutable catalog, in catalog order: every id looked up."""
    return tuple(map(catalog_lookup, _families()))


def catalog_lookup(entry_id: str) -> CatalogEntry:
    """The entry of an id or alias, built and indexed on its first lookup:
    the id is decoded from its shape (module doc); else ``UnknownId``."""
    entry_id = _ALIASES.get(entry_id, entry_id)
    entry = _INDEX.get(entry_id)
    if entry is None:
        make, family, key = _decode(entry_id)
        entry = _INDEX[entry_id] = make(entry_id, family, key)
    return entry


def catalog_ids(family: str | None = None) -> list[str]:
    """Ids in catalog order, of one family if given; builds no entry.  The
    ids the lookup decodes are written out once, on the first call.
    ``ValueError`` names the known families when no id is of ``family``."""
    families = _families()
    ids = [eid for eid, fam in families.items() if family is None or fam == family]
    if not ids:
        known = ", ".join(dict.fromkeys(families.values()))
        raise ValueError(f"unknown family {family!r}; known families: {known}")
    return ids


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
