"""Closed-form analytic expressions on the unit disk.

An :class:`AnalyticExpr` is a finite sum of rational terms ``c * P(z)/Q(z)``
and logarithmic terms ``c * log(L(z))`` with Gaussian-rational coefficients.
The term language is deliberately small: it covers every closed form the
catalog needs while keeping series expansion exact (rational terms expand by
exact division, log terms by integrating L'/L).

Construction enforces the invariants the rest of the package relies on:

* denominators and log arguments are zero-free on the open unit disk
  (a numeric check rejects roots with |z| < 1 - ``_DISK_MARGIN`` =
  1 - 1e-4, so a root closer to the circle passes; the roots are the
  companion-matrix roots of the squarefree factors, see ``_poly_roots``);
* rational terms are normalized so the denominator does not vanish at 0
  (common z^k factors cancel, otherwise ``PoleAtOrigin``);
* log arguments satisfy L(0) = 1 exactly, so their series have constant
  term 0 and the principal branch is the one being expanded;
* L stays off the branch cut (-inf, 0] on the disk, so the principal log
  is the analytic branch the series expands.  With L(0) = 1, L is the
  product of (1 - z/a) over its roots a; each factor has positive real
  part on the disk, so the sum A of their principal arguments is arg L
  continued from A(0) = 0, and the principal log agrees with it exactly
  where |A| < pi.  A is harmonic, so it is sampled on circles (720 angles
  on each of four, out to |z| = 0.999), and |A| >= pi - 1e-9 rejects.
  This rejects (1+z)^3, which crosses the cut at |z| = 0.87 (its ``eval``
  would be off by 2 pi i from its series), and accepts (1+z)^2 and
  (1 + (3+4i) z/5)^2, which pass within 1e-6 of 0 near the circle
  without crossing.  A test on neighbouring samples of L alone cannot
  tell such a pass between two samples from a crossing.

Logs are principal-branch throughout.  No simplification is done on term
sums; equality of expressions is tested through their series.

A point within ``EPS_POLE`` of a denominator or log-argument root raises
``NearPole`` in ``eval`` and is masked out by ``eval_masked``.  The test is
screened by radius: a pole p is tested only when |p| - max|z| <= 2 EPS_POLE
max(1, |p|).  A point within EPS_POLE of p has |p| - |z| < EPS_POLE (the
triangle inequality), and the second EPS_POLE, scaled with |p|, is far above
the rounding of |p| and |z| (below 1e-15 |p|).  So a skipped pole is farther
than EPS_POLE from every point, and mask and decision are those of testing
every pole.  With a NaN or infinite point every pole is tested.  No catalog
pole lies within the 0.95 disk a render samples, so a render tests none.

Expressions summed at the same points, such as h and g of a shear (g
repeats h's terms), pass ``eval`` one ``shared`` dict from
:func:`shared_values`, so the polynomial values and logs they have in
common are computed once; every value is bit for bit the same.

Series are cached at two levels: each expression keeps its sums by order
(``_series_cache``), and ``_term_series`` keeps, for the life of the process,
the series of each unscaled term keyed by its polynomials ((num, den) or
(arg,)) and the order, at most 256 keys, least recently used out first.
Catalog expressions share terms (a proof shear's g is h minus its source),
so each distinct term is expanded once.  ``Poly`` and ``Series`` are
immutable, so a cached series is safe to share: it is only read.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import InvalidExpression, NearPole, PoleAtOrigin
from .numkernel import GaussRational, Series, gauss

__all__ = ["Poly", "RationalTerm", "LogTerm", "AnalyticExpr"]

EPS_POLE = 1e-6
# The inside-the-disk rejection's slack for rounded roots; the roots of
# squarefree factors are accurate to about machine epsilon, so an exact
# zero-free test can replace it.
_DISK_MARGIN = 1e-4


class Poly:
    """Dense univariate polynomial over Q(i), coefficients in ascending degree."""

    __slots__ = ("coeffs", "_floats", "_hash")

    def __init__(self, coeffs):
        cs = [gauss(c) for c in coeffs]
        while cs and cs[-1].is_zero:
            cs.pop()
        self.coeffs = tuple(cs)
        self._floats = None  # complex(c) of coeffs, highest degree first, on first call
        self._hash = None

    @classmethod
    def zero(cls) -> "Poly":
        return cls(())

    @classmethod
    def one(cls) -> "Poly":
        return cls((1,))

    @classmethod
    def var(cls) -> "Poly":
        return cls((0, 1))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, n: int) -> GaussRational:
        if 0 <= n <= self.degree:
            return self.coeffs[n]
        return GaussRational(0)

    def valuation(self) -> int | None:
        """Smallest n with a nonzero coefficient; None for the zero polynomial."""
        for n, c in enumerate(self.coeffs):
            if not c.is_zero:
                return n
        return None

    def shift_down(self, k: int) -> "Poly":
        """Divide by z^k; requires the low k coefficients to vanish."""
        if any(not c.is_zero for c in self.coeffs[:k]):
            raise ValueError("polynomial not divisible by z^k")
        return Poly(self.coeffs[k:])

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self.coeff(k) + other.coeff(k) for k in range(n)])

    def __sub__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self.coeff(k) - other.coeff(k) for k in range(n)])

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero or other.is_zero:
            return Poly.zero()
        out = [GaussRational(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(out)

    def scale(self, c) -> "Poly":
        c = gauss(c)
        return Poly([c * x for x in self.coeffs])

    def derivative(self) -> "Poly":
        return Poly([self.coeffs[n] * n for n in range(1, len(self.coeffs))])

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """Quotient and remainder of the division by a nonzero polynomial."""
        rem, top = list(self.coeffs), other.degree
        inv = _ONE_GR / other.coeff(top)  # ZeroDivisionError for the zero poly
        quot = [GaussRational(0)] * max(len(rem) - top, 0)
        for k in range(len(quot) - 1, -1, -1):
            c = quot[k] = rem[k + top] * inv
            for i, o in enumerate(other.coeffs):
                rem[k + i] = rem[k + i] - c * o
        return Poly(quot), Poly(rem[:top])

    def gcd(self, other: "Poly") -> "Poly":
        """Monic gcd over Q(i) by Euclid's algorithm (zero for two zeros)."""
        a, b = self, other
        while not b.is_zero:
            a, b = b, divmod(a, b)[1]
        return a if a.is_zero else a.scale(_ONE_GR / a.coeffs[-1])

    def compose_linear(self, c) -> "Poly":
        """Substitute z -> c*z."""
        c = gauss(c)
        out, power = [], GaussRational(1)
        for coeff in self.coeffs:
            out.append(power * coeff)
            power = power * c
        return Poly(out)

    def to_series(self, order: int) -> Series:
        return Series(self.coeffs, order=order)

    # -- evaluation -------------------------------------------------------

    def __call__(self, z):
        """Horner evaluation at a complex scalar or numpy array."""
        if self._floats is None:
            self._floats = tuple(complex(c) for c in reversed(self.coeffs))
        acc = 0j if not hasattr(z, "shape") else z * 0j
        # out of place on purpose: on some numpy builds (AVX-512) an in-place
        # complex multiply rounds differently in the last bit, and a value
        # would then depend on the array around it
        for c in self._floats:
            acc = acc * z + c
        return acc

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        # the lowest-terms triples: a non-integer GaussRational hashes a Fraction
        if self._hash is None:
            self._hash = hash(tuple((c._a, c._b, c._d) for c in self.coeffs))
        return self._hash

    def __repr__(self):
        return f"Poly({[str(c) for c in self.coeffs]})"


class RationalTerm(NamedTuple):
    c: GaussRational
    num: Poly
    den: Poly


class LogTerm(NamedTuple):
    c: GaussRational
    arg: Poly


_ONE_GR = GaussRational(1)
_NEG_I = GaussRational(0, -1)
_I = GaussRational(0, 1)

# Sampling used for the construction-time branch-cut assertion on log args:
# _BRANCH_ANGLES points on each circle, all circles in one array.
_BRANCH_RADII = (0.3, 0.7, 0.95, 0.999)
_BRANCH_ANGLES = 720
_BRANCH_POINTS = np.outer(
    _BRANCH_RADII, np.exp(2j * np.pi * np.arange(_BRANCH_ANGLES) / _BRANCH_ANGLES)
).ravel()


@lru_cache(maxsize=256)  # the catalog has 39 distinct terms at one order
def _term_series(polys: tuple, order: int) -> Series:
    """Series of num/den for polys (num, den), of log(arg) for (arg,)."""
    if len(polys) == 2:
        num, den = polys
        return num.to_series(order) * den.to_series(order).reciprocal()
    (arg,) = polys
    if order == 0:
        return Series.zero(0)
    return (arg.derivative().to_series(order - 1)
            * arg.to_series(order - 1).reciprocal()).antiderivative()


def near_pole(z, poles: np.ndarray) -> np.ndarray:
    """Mask, shaped like z, of the points within ``EPS_POLE`` of a pole.
    The poles the radius screen (module doc) keeps are tested one at a
    time, so no points x poles array is built."""
    zz = np.asarray(z, dtype=complex)
    near = np.zeros(zz.shape, dtype=bool)
    if zz.size and poles.size:
        reach = np.max(np.abs(zz))
        if np.isfinite(reach):  # else a NaN or infinite point: test every pole
            size = np.abs(poles)
            poles = poles[size - reach <= 2 * EPS_POLE * np.maximum(size, 1.0)]
        for p in poles:
            near |= np.abs(zz - p) < EPS_POLE
    return near


def masked_values(fn, zs, poles: np.ndarray):
    """``(values, ok_mask)``: fn runs once, on all of zs, with 0 in place of
    a point near a pole (every term is finite at 0: Q(0) != 0, L(0) = 1)
    and NaN as that point's value; ok marks the finite values.  With no
    point near a pole, zs reaches fn uncopied."""
    zs = np.asarray(zs, dtype=complex)
    near = near_pole(zs, poles)
    vals = np.asarray(fn(np.where(near, 0, zs) if near.any() else zs))
    vals[near] = np.nan
    return vals, np.isfinite(vals)


def shared_values(*exprs) -> dict:
    """The ``shared`` argument of ``AnalyticExpr.eval`` for exprs evaluated
    at the same points: a key for each value their terms use more than
    once, a ``Poly`` for p(z) and ``(L,)`` for log(L(z)).  Keys compare by
    polynomial equality, so equal polynomials parsed apart share."""
    terms = [t for e in exprs for t in e.terms]
    logs = Counter(t.arg for t in terms if isinstance(t, LogTerm))
    polys = Counter(logs.keys())  # a shared log evaluates its argument once
    polys.update(p for t in terms if isinstance(t, RationalTerm) for p in t[1:])
    shared = {p: None for p, n in polys.items() if n > 1}
    shared.update(((arg,), None) for arg, n in logs.items() if n > 1)
    return shared


def _value(key, z, shared: dict):
    """p(z) for a Poly key, log(L(z)) for (L,); kept in shared if a key."""
    v = shared.get(key)
    if v is None:
        v = key(z) if isinstance(key, Poly) else np.log(_value(key[0], z, shared))
        if key in shared:
            shared[key] = v
    return v


@lru_cache(maxsize=256)  # the catalog's 311 denominators and log arguments are 13 polynomials
def _poly_roots(p: Poly) -> np.ndarray:
    """The p.degree roots of p, each repeated by its multiplicity (read-only).

    Each root comes from a factor of Yun's squarefree factorization, whose
    roots are simple, so ``np.roots`` finds them to about machine epsilon;
    on p itself it scatters an m-fold root by about eps**(1/m)."""
    roots = [np.empty(0, dtype=complex)]
    if p.degree > 0:
        g = p.gcd(p.derivative())
        b = divmod(p, g)[0]
        d = divmod(p.derivative(), g)[0] - b.derivative()
        m = 1
        while b.degree > 0:  # b: the product of the factors of multiplicity >= m
            a = b.gcd(d)  # the factor of multiplicity m
            if a.degree > 0:
                roots += [np.roots([complex(c) for c in reversed(a.coeffs)])] * m
            b = divmod(b, a)[0]
            d = divmod(d, a)[0] - b.derivative()
            m += 1
    out = np.concatenate(roots)
    out.flags.writeable = False
    return out


class AnalyticExpr:
    """Finite sum of rational and logarithmic closed-form terms."""

    __slots__ = ("terms", "_pole_points", "_deriv", "_series_cache", "_floats")

    def __init__(self, terms, validate: bool = True):
        normalized = []
        for t in terms:
            if isinstance(t, RationalTerm):
                normalized.append(self._normalize_rational(t))
            elif isinstance(t, LogTerm):
                if validate and t.arg.coeff(0) != _ONE_GR:
                    raise InvalidExpression("log argument must equal 1 at z = 0")
                normalized.append(t)
            else:
                raise TypeError(f"unknown term type {type(t).__name__}")
        self.terms = tuple(normalized)
        self._pole_points = None
        self._deriv = None
        self._series_cache = {}
        self._floats = None  # complex(t.c) of each term, on the first eval
        if validate:
            self._validate()

    @staticmethod
    def _normalize_rational(t: RationalTerm) -> RationalTerm:
        num, den = t.num, t.den
        if den.is_zero:
            raise InvalidExpression("zero denominator")
        vd = den.valuation()
        if vd:
            vn = num.valuation()
            if num.is_zero:
                den = Poly.one()
            elif vn is not None and vn >= vd:
                num = num.shift_down(vd)
                den = den.shift_down(vd)
            else:
                raise PoleAtOrigin("denominator vanishes at 0 and does not cancel")
        return RationalTerm(t.c, num, den)

    def _validate(self):
        roots = self.pole_points
        if roots.size and np.min(np.abs(roots)) < 1.0 - _DISK_MARGIN:
            raise InvalidExpression(
                "denominator or log argument vanishes inside the unit disk"
            )
        start = 0  # pole_points holds each term's roots in turn, deg many
        for t in self.terms:
            p = t.den if isinstance(t, RationalTerm) else t.arg
            end = start + max(p.degree, 0)
            if isinstance(t, LogTerm) and end > start:
                # arg L, continuous from L(0) = 1, as the sum over L's roots a
                # of the principal argument of 1 - z/a
                arg = np.angle(1 - _BRANCH_POINTS[:, None] / roots[None, start:end])
                if np.max(np.abs(arg.sum(axis=1))) >= np.pi - 1e-9:
                    raise InvalidExpression("log argument meets the branch cut on the disk")
            start = end

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "AnalyticExpr":
        return cls(())

    @classmethod
    def rational(cls, c, num: Poly, den: Poly | None = None) -> "AnalyticExpr":
        return cls((RationalTerm(gauss(c), num, den or Poly.one()),))

    @classmethod
    def log(cls, c, arg: Poly) -> "AnalyticExpr":
        return cls((LogTerm(gauss(c), arg),))

    # -- combination (no simplification, terms concatenate) -----------------

    def __add__(self, other: "AnalyticExpr") -> "AnalyticExpr":
        return AnalyticExpr(self.terms + other.terms, validate=False)

    def __sub__(self, other: "AnalyticExpr") -> "AnalyticExpr":
        return self + (-other)

    def __neg__(self) -> "AnalyticExpr":
        return self.scale(-1)

    def scale(self, c) -> "AnalyticExpr":
        c = gauss(c)
        out = []
        for t in self.terms:
            if isinstance(t, RationalTerm):
                out.append(RationalTerm(c * t.c, t.num, t.den))
            else:
                out.append(LogTerm(c * t.c, t.arg))
        return AnalyticExpr(out, validate=False)

    # -- analysis ------------------------------------------------------------

    @property
    def pole_points(self) -> np.ndarray:
        if self._pole_points is None:
            pts = [_poly_roots(t.den if isinstance(t, RationalTerm) else t.arg)
                   for t in self.terms]
            self._pole_points = (
                np.concatenate(pts) if pts else np.empty(0, dtype=complex)
            )
        return self._pole_points

    def eval(self, z, check: bool = True, *, shared: dict | None = None):
        """Principal-branch evaluation at complex scalars or numpy arrays.

        Raises :class:`NearPole` when a point is within ``EPS_POLE`` of a
        denominator or log-argument root; the radius screen of the module
        doc skips only poles farther than that from every point.
        ``shared`` (:func:`shared_values`) carries values between calls at
        the same z: each key is computed on first use, then reused.
        """
        if check and np.any(near_pole(z, self.pole_points)):
            raise NearPole(f"evaluation within {EPS_POLE} of a pole")
        if self._floats is None:
            self._floats = tuple(complex(t.c) for t in self.terms)
        shared = {} if shared is None else shared
        acc = 0j if not hasattr(z, "shape") else z * 0j
        # out of place, as in Poly.__call__: an in-place complex multiply can
        # round differently, and in-place sums measured slower on `verify all`
        for t, c in zip(self.terms, self._floats):
            if isinstance(t, RationalTerm):
                acc = acc + c * _value(t.num, z, shared) / _value(t.den, z, shared)
            else:
                acc = acc + c * _value((t.arg,), z, shared)
        return acc

    def eval_masked(self, zs: np.ndarray):
        """Vectorized evaluation returning ``(values, ok_mask)``.

        Points within ``EPS_POLE`` of a pole (``eval``'s screened test) are
        masked out instead of raising, and so are non-finite values.
        """
        return masked_values(lambda w: self.eval(w, check=False), zs,
                             self.pole_points)

    def derivative(self) -> "AnalyticExpr":
        """Termwise symbolic derivative, (P'Q - PQ')/Q^2 for P/Q and L'/L for
        log L, each divided by its numerator's and denominator's monic gcd:
        uncancelled, a k-fold pole becomes a 2k-fold root of Q^2 whose
        computed roots scatter and whose values lose digits near the circle."""
        if self._deriv is None:
            out = []
            for t in self.terms:
                if isinstance(t, RationalTerm):
                    num = t.num.derivative() * t.den - t.num * t.den.derivative()
                    den = t.den * t.den
                else:
                    num, den = t.arg.derivative(), t.arg
                g = num.gcd(den)
                out.append(RationalTerm(t.c, divmod(num, g)[0], divmod(den, g)[0]))
            self._deriv = AnalyticExpr(out, validate=False)
        return self._deriv

    def series(self, order: int) -> Series:
        """Exact Taylor coefficients to the given order: the shared term
        series combined with the term coefficients (``Series.combination``),
        kept in ``_series_cache`` (see the module doc)."""
        cached = self._series_cache.get(order)
        if cached is not None:
            return cached
        acc = Series.combination([t.c for t in self.terms],
                                 [_term_series(t[1:], order) for t in self.terms]
                                 ) if self.terms else Series.zero(order)
        self._series_cache[order] = acc
        return acc

    def transform(self, kind: str) -> "AnalyticExpr":
        """Exact coefficient-level substitutions.

        ``neg_reflect``  returns -e(-z);  ``rot_i_conj`` returns -i*e(iz).
        """
        if kind == "neg_reflect":
            factor, sub = GaussRational(-1), GaussRational(-1)
        elif kind == "rot_i_conj":
            factor, sub = _NEG_I, _I
        else:
            raise ValueError(f"unknown transform kind {kind!r}")
        out = []
        for t in self.terms:
            if isinstance(t, RationalTerm):
                out.append(RationalTerm(factor * t.c,
                                        t.num.compose_linear(sub),
                                        t.den.compose_linear(sub)))
            else:
                out.append(LogTerm(factor * t.c, t.arg.compose_linear(sub)))
        return AnalyticExpr(out)

    def __repr__(self):
        return f"AnalyticExpr({len(self.terms)} terms)"
