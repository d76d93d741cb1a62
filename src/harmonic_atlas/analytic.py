"""Closed-form analytic expressions on the unit disk.

An :class:`AnalyticExpr` is a finite sum of rational terms ``c * P(z)/Q(z)``
and logarithmic terms ``c * log(L(z))`` with Gaussian-rational coefficients.
The term language is deliberately small: it covers every closed form the
catalog needs while keeping series expansion exact (rational terms expand by
exact division, log terms by integrating L'/L).

Construction enforces the invariants the rest of the package relies on:

* denominators and log arguments are zero-free on the open unit disk
  (a numeric companion-matrix root check rejects roots with
  |z| < 1 - ``_DISK_MARGIN`` = 1 - 1e-4, so a root closer to the circle
  passes);
* rational terms are normalized so the denominator does not vanish at 0
  (common z^k factors cancel, otherwise ``PoleAtOrigin``);
* log arguments satisfy L(0) = 1 exactly, so their series have constant
  term 0 and the principal branch is the one being expanded; a sampling
  grid additionally asserts that L avoids the branch cut (-inf, 0].

Logs are principal-branch throughout.  No simplification is done on term
sums; equality of expressions is tested through their series.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import InvalidExpression, NearPole, PoleAtOrigin
from .numkernel import GaussRational, Series, gauss

__all__ = ["Poly", "RationalTerm", "LogTerm", "AnalyticExpr"]

EPS_POLE = 1e-6
# Companion-matrix roots of a multiplicity-m factor scatter by ~eps^(1/m)
# (about 1e-5 for the cubes the catalog uses), so the inside-the-disk
# rejection needs a coarser margin than the evaluation pole guard.
_DISK_MARGIN = 1e-4


class Poly:
    """Dense univariate polynomial over Q(i), coefficients in ascending degree."""

    __slots__ = ("coeffs", "_floats")

    def __init__(self, coeffs):
        cs = [gauss(c) for c in coeffs]
        while cs and cs[-1].is_zero:
            cs.pop()
        self.coeffs = tuple(cs)
        self._floats = None  # complex(c) of coeffs, highest degree first, on first call

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

    def eval_exact(self, z: GaussRational) -> GaussRational:
        acc = GaussRational(0)
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def __call__(self, z):
        """Horner evaluation at a complex scalar or numpy array."""
        if self._floats is None:
            self._floats = tuple(complex(c) for c in reversed(self.coeffs))
        acc = 0j if not hasattr(z, "shape") else z * 0j
        for c in self._floats:
            acc = acc * z + c
        return acc

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

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

# Sampling used for the construction-time branch-cut assertion on log args.
_BRANCH_RADII = (0.3, 0.7, 0.95, 0.999)
_BRANCH_ANGLES = 720


def _poly_roots(p: Poly) -> np.ndarray:
    if p.degree < 1:
        return np.empty(0, dtype=complex)
    coeffs = [complex(c) for c in reversed(p.coeffs)]
    return np.roots(coeffs)


class AnalyticExpr:
    """Finite sum of rational and logarithmic closed-form terms."""

    __slots__ = ("terms", "_pole_points", "_deriv", "_series_cache")

    def __init__(self, terms, validate: bool = True):
        normalized = []
        for t in terms:
            if isinstance(t, RationalTerm):
                normalized.append(self._normalize_rational(t))
            elif isinstance(t, LogTerm):
                if validate and t.arg.eval_exact(GaussRational(0)) != _ONE_GR:
                    raise InvalidExpression("log argument must equal 1 at z = 0")
                normalized.append(t)
            else:
                raise TypeError(f"unknown term type {type(t).__name__}")
        self.terms = tuple(normalized)
        self._pole_points = None
        self._deriv = None
        self._series_cache = {}
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
        for t in self.terms:
            p = t.den if isinstance(t, RationalTerm) else t.arg
            roots = _poly_roots(p)
            if roots.size and np.min(np.abs(roots)) < 1.0 - _DISK_MARGIN:
                raise InvalidExpression(
                    "denominator or log argument vanishes inside the unit disk"
                )
        for t in self.terms:
            if isinstance(t, LogTerm):
                for r in _BRANCH_RADII:
                    zs = r * np.exp(2j * np.pi * np.arange(_BRANCH_ANGLES) / _BRANCH_ANGLES)
                    vals = t.arg(zs)
                    on_cut = (vals.real <= 0) & (np.abs(vals.imag) <= 1e-9)
                    if np.any(on_cut):
                        raise InvalidExpression("log argument meets the branch cut on the disk")

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

    def eval(self, z, eps_pole: float = EPS_POLE, check: bool = True):
        """Principal-branch evaluation at complex scalars or numpy arrays.

        Raises :class:`NearPole` when a point is within ``eps_pole`` of a
        denominator or log-argument root.
        """
        if check and self.pole_points.size:
            zz = np.asarray(z, dtype=complex)
            d = np.abs(zz[..., None] - self.pole_points[None, :]) if zz.ndim else \
                np.abs(zz - self.pole_points)
            if np.min(d) < eps_pole:
                raise NearPole(f"evaluation within {eps_pole} of a pole")
        acc = 0j if not hasattr(z, "shape") else z * 0j
        for t in self.terms:
            if isinstance(t, RationalTerm):
                acc = acc + complex(t.c) * t.num(z) / t.den(z)
            else:
                acc = acc + complex(t.c) * np.log(t.arg(z))
        return acc

    def eval_masked(self, zs: np.ndarray, eps_pole: float = EPS_POLE):
        """Vectorized evaluation returning ``(values, ok_mask)``.

        Points within ``eps_pole`` of a pole are masked out instead of
        raising; their values are NaN.
        """
        zs = np.asarray(zs, dtype=complex)
        ok = np.ones(zs.shape, dtype=bool)
        if self.pole_points.size:
            d = np.min(np.abs(zs[..., None] - self.pole_points[None, :]), axis=-1)
            ok = d >= eps_pole
        vals = np.full(zs.shape, np.nan + 0j)
        if np.any(ok):
            vals[ok] = self.eval(zs[ok], check=False)
        return vals, ok

    def value_at_zero(self) -> GaussRational:
        acc = GaussRational(0)
        for t in self.terms:
            if isinstance(t, RationalTerm):
                acc = acc + t.c * (t.num.eval_exact(GaussRational(0))
                                   / t.den.eval_exact(GaussRational(0)))
            # log terms contribute log(1) = 0 exactly
        return acc

    def derivative(self) -> "AnalyticExpr":
        """Termwise symbolic derivative; log terms become rational terms L'/L."""
        if self._deriv is None:
            out = []
            for t in self.terms:
                if isinstance(t, RationalTerm):
                    num = t.num.derivative() * t.den - t.num * t.den.derivative()
                    out.append(RationalTerm(t.c, num, t.den * t.den))
                else:
                    out.append(RationalTerm(t.c, t.arg.derivative(), t.arg))
            self._deriv = AnalyticExpr(out, validate=False)
        return self._deriv

    def series(self, order: int) -> Series:
        """Exact Taylor coefficients to the given order."""
        cached = self._series_cache.get(order)
        if cached is not None:
            return cached
        acc = Series.zero(order)
        for t in self.terms:
            if isinstance(t, RationalTerm):
                s = t.num.to_series(order) * t.den.to_series(order).reciprocal()
            else:
                if order == 0:
                    s = Series.zero(0)
                else:
                    la = t.arg.to_series(order - 1)
                    s = (t.arg.derivative().to_series(order - 1)
                         * la.reciprocal()).antiderivative()
            acc = acc + s.scale(t.c)
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
