"""Closed-form analytic expressions on the unit disk.

An :class:`AnalyticExpr` is a finite sum of rational terms ``c * P(z)/Q(z)``
and logarithmic terms ``c * log(L(z))`` with Gaussian-rational coefficients.
The term language is deliberately small: it covers every closed form the
catalog needs while keeping series expansion exact (rational terms expand by
exact division, log terms by integrating L'/L).

Construction enforces the invariants the rest of the package relies on:

* denominators and log arguments are zero-free on the open unit disk,
  by the exact count of each squarefree factor
  (``realalg.disk_zero_count``; ``_vanishes_in_disk``, once per distinct
  polynomial), so a root at 1 - 1e-30 is rejected and one at 1 + 1e-30
  accepted, with no float step;
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
  on each of four, out to |z| = 0.999), and |A| >= pi - 1e-9 rejects;
  the samples are taken once per distinct L (``_meets_branch_cut``).
  This rejects (1+z)^3, which crosses the cut at |z| = 0.87 (its ``eval``
  would be off by 2 pi i from its series), and accepts (1+z)^2 and
  (1 + (3+4i) z/5)^2, which pass within 1e-6 of 0 near the circle
  without crossing.  A test on neighbouring samples of L alone cannot
  tell such a pass between two samples from a crossing.

Logs are principal-branch throughout.  Terms are kept as written, for the
atlas text and ``eval``; a series sums the rational ones into one quotient.

A point within ``EPS_POLE`` of a denominator or log-argument root raises
``NearPole`` in ``eval``; ``HarmonicMap.eval_masked`` masks it instead.
The test is screened by radius: a pole p is tested only when |p| - max|z|
<= 2 EPS_POLE max(1, |p|).  A point within EPS_POLE of p has |p| - |z| <
EPS_POLE (the triangle inequality), and the second EPS_POLE, scaled with
|p|, is far above the rounding of |p| and |z| (below 1e-15 |p|).  So a
skipped pole is farther than EPS_POLE from every point, and mask and
decision are those of testing every pole.  With a NaN or infinite point
every pole is tested.  No catalog pole lies within the 0.95 disk a render
samples, so a render tests none.

``eval`` sums the terms in order, ``acc + c*P(z)/Q(z)`` and ``acc +
c*log(L(z))``.  Given a ``memo`` dict, it keeps every polynomial value
p(z) (key p) and log(L(z)) (key ``(L,)``) it computes there and reads any
it finds, so expressions evaluated at the same points, such as h and g of
a shear (g repeats h's terms), compute the values they have in common
once; keys compare by polynomial equality, so equal polynomials parsed
apart share.  A value does not depend on where it came from, so every
result is bit for bit that of evaluating alone, which keeps nothing.

An expression is its rational part, the rational terms summed into one
unreduced :class:`RatFunc` P/Q (``rational_part``, kept), plus its log
part, c log L for each distinct L with c summed over its terms
(``log_part``, kept read-only).  A series multiplies P by 1/Q (what
perfbench times as ``numkernel.mul`` and ``numkernel.reciprocal``), or
expands P alone where Q is 1 (a polynomial plus logs, the zero
expression), and adds each c log L, the integral of L'/L, whose series
``_log_series`` keeps by (L, order) for the life of the process (the
catalog has 4 distinct L; the orders are those at which maps are built
and checked).  Each expression keeps its series by order
(``_series_cache``).  ``Poly`` and ``Series`` are immutable, so a cached
series is safe to share: it is only read.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .errors import InvalidExpression, NearPole, PoleAtOrigin
from .numkernel import GaussRational, Series, coeff_product, gauss
from .realalg import (
    disk_zero_count, pderivative, pdivmod, pgcd, pscale, psub, ptrim, squarefree,
)

__all__ = ["Poly", "RatFunc", "RationalTerm", "LogTerm", "AnalyticExpr"]

EPS_POLE = 1e-6

_ONE_GR = GaussRational(1)
_UNIT = (_ONE_GR,)  # the coefficients of the polynomial 1


class Poly:
    """Dense univariate polynomial over Q(i), coefficients in ascending degree.
    Immutable, so an operand may be the result: a product by 1 or 0, a sum
    with 0, a division by 1 and ``scale(1)`` compute nothing.  Results built
    from trimmed ``GaussRational``s skip coercion and trimming (``_of``)."""

    __slots__ = ("coeffs", "_floats", "_hash")

    def __init__(self, coeffs):
        self.coeffs = ptrim(gauss(c) for c in coeffs)
        self._floats = None  # complex(c) of coeffs, highest degree first, on first call
        self._hash = None

    @classmethod
    def _of(cls, coeffs: tuple) -> "Poly":
        """A polynomial over a trimmed tuple of GaussRationals, as it is."""
        p = object.__new__(cls)
        p.coeffs, p._floats, p._hash = coeffs, None, None
        return p

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
        xs, ys = self.coeffs, other.coeffs
        if not ys or not xs:
            return self if not ys else other
        if len(xs) < len(ys):
            xs, ys = ys, xs
        return Poly._of(ptrim([x + y for x, y in zip(xs, ys)] + list(xs[len(ys):])))

    def __sub__(self, other: "Poly") -> "Poly":
        return Poly._of(psub(self.coeffs, other.coeffs))

    def __neg__(self) -> "Poly":
        return Poly._of(tuple(-c for c in self.coeffs))

    def __mul__(self, other: "Poly") -> "Poly":
        xs, ys = self.coeffs, other.coeffs
        if ys == _UNIT or not xs:
            return self
        if xs == _UNIT or not ys:
            return other
        return Poly._of(tuple(coeff_product(xs, ys, len(xs) + len(ys) - 2)))

    def scale(self, c) -> "Poly":
        c = gauss(c)
        return self if c == _ONE_GR else Poly._of(pscale(self.coeffs, c))

    def derivative(self) -> "Poly":
        return Poly._of(pderivative(self.coeffs))

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """Quotient and remainder of the division by a nonzero polynomial."""
        if other.coeffs == _UNIT:
            return self, Poly._of(())
        quot, rem = pdivmod(self.coeffs, other.coeffs)
        return Poly._of(quot), Poly._of(rem)

    def gcd(self, other: "Poly") -> "Poly":
        """Monic gcd (zero for two zeros), by ``realalg.pgcd``."""
        return Poly._of(pgcd(self.coeffs, other.coeffs))

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


class RatFunc:
    """Quotient num/den of polynomials, den nonzero.  ``+ * /`` and ``-x``
    leave the result unreduced: a sum adds the numerators over an equal
    denominator and cross-multiplies otherwise.  :meth:`reduced` divides
    num and den by their monic gcd, so den keeps its leading coefficient,
    and returns ``self`` where the gcd is 1."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly | None = None):
        self.num, self.den = num, Poly.one() if den is None else den

    def __add__(self, o: "RatFunc") -> "RatFunc":
        if self.den == o.den:
            return RatFunc(self.num + o.num, self.den)
        return RatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    def __mul__(self, o: "RatFunc") -> "RatFunc":
        return RatFunc(self.num * o.num, self.den * o.den)

    def __truediv__(self, o: "RatFunc") -> "RatFunc":
        if o.num.is_zero:
            raise ZeroDivisionError("division by zero")
        return RatFunc(self.num * o.den, self.den * o.num)

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den)

    def reduced(self) -> "RatFunc":
        g = self.num.gcd(self.den)
        if g.coeffs == _UNIT:
            return self
        return RatFunc(divmod(self.num, g)[0], divmod(self.den, g)[0])


class RationalTerm(namedtuple("RationalTerm", "c num den")):
    """The term c num/den: c a ``GaussRational``, num and den ``Poly``."""
    __slots__ = ()


class LogTerm(namedtuple("LogTerm", "c arg")):
    """The term c log(arg): c a ``GaussRational``, arg a ``Poly``."""
    __slots__ = ()


# Sampling used for the construction-time branch-cut assertion on log args:
# _BRANCH_ANGLES points on each circle, all circles in one array.
_BRANCH_RADII = (0.3, 0.7, 0.95, 0.999)
_BRANCH_ANGLES = 720
_BRANCH_POINTS = np.outer(
    _BRANCH_RADII, np.exp(2j * np.pi * np.arange(_BRANCH_ANGLES) / _BRANCH_ANGLES)
).ravel()


# keys (L, order): the catalog's 4 distinct L at the orders of the series
# that hold them (in `verify`, only where a shear has no closed form)
@lru_cache(maxsize=64)
def _log_series(arg: Poly, order: int) -> Series:
    """Series of log(arg), the integral of arg'/arg."""
    quot = arg.derivative().to_series(order) * arg.to_series(order).reciprocal()
    return quot.antiderivative().truncate(order)


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


def _value(key, z, memo: dict | None):
    """p(z) for a Poly key, log(L(z)) for (L,); read from and kept in memo
    if one is given."""
    v = None if memo is None else memo.get(key)
    if v is None:
        v = key(z) if isinstance(key, Poly) else np.log(_value(key[0], z, memo))
        if memo is not None:
            memo[key] = v
    return v


@lru_cache(maxsize=256)
def _squarefree(p: Poly) -> tuple:
    """Yun's squarefree factors (a, m) of p (``realalg.squarefree``), found
    once for its roots and its disk test."""
    return tuple(squarefree(p.coeffs)) if p.degree > 0 else ()


@lru_cache(maxsize=256)  # the catalog's 311 denominators and log arguments are 13 polynomials
def _poly_roots(p: Poly) -> np.ndarray:
    """The p.degree roots of p, each repeated by its multiplicity
    (read-only), for ``pole_points`` and ``_meets_branch_cut``.

    Each root comes from a factor of Yun's squarefree factorization, whose
    roots are simple, so ``np.roots`` finds them to about machine epsilon;
    on p itself it scatters an m-fold root by about eps**(1/m).  A
    squarefree p (gcd(p, p') = 1) is its own only factor, p made monic
    (``_squarefree``)."""
    roots = [np.empty(0, dtype=complex)]
    for a, m in _squarefree(p):
        roots += [np.roots([complex(c) for c in reversed(a)])] * m
    out = np.concatenate(roots)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=256)
def _vanishes_in_disk(p: Poly) -> bool:
    """Whether p has a root in the open unit disk: the exact count of each
    squarefree factor (module doc).  The factors keep the count small: on
    (1 - 20001 z/20000)^200 itself its coefficients grow past any time
    limit."""
    return any(disk_zero_count(a) for a, _ in _squarefree(p))


@lru_cache(maxsize=64)  # the catalog's 46 log terms have 4 distinct arguments
def _meets_branch_cut(arg: Poly) -> bool:
    """Whether log(arg) leaves the principal branch on the sampled circles
    (module doc); once per distinct argument."""
    if arg.degree <= 0:
        return False
    # arg L, continuous from L(0) = 1, as the sum over L's roots a (with
    # multiplicity) of the principal argument of 1 - z/a
    arg_l = np.angle(1 - _BRANCH_POINTS[:, None] / _poly_roots(arg)).sum(axis=1)
    return bool(np.max(np.abs(arg_l)) >= np.pi - 1e-9)


class AnalyticExpr:
    """Finite sum of rational and logarithmic closed-form terms."""

    __slots__ = ("terms", "_pole_points", "_deriv", "_series_cache", "_floats", "_rational",
                 "_logs")

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
        self._rational = None  # rational_part(), on first use
        self._logs = None  # log_part(), on first use
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
        if any(_vanishes_in_disk(p) for p in {t[-1] for t in self.terms}):
            raise InvalidExpression(
                "denominator or log argument vanishes inside the unit disk"
            )
        if any(isinstance(t, LogTerm) and _meets_branch_cut(t.arg) for t in self.terms):
            raise InvalidExpression("log argument meets the branch cut on the disk")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "AnalyticExpr":
        """The empty sum, one object per process, so its series are kept once."""
        return _ZERO_EXPR

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
        """The distinct roots of the denominators and log arguments (deduplicated
        in Python: ``np.unique`` would import ``numpy.ma``, about 1 MB)."""
        if self._pole_points is None:
            roots = (p for t in self.terms for p in _poly_roots(t[-1]).tolist())
            self._pole_points = np.array(list(dict.fromkeys(roots)), dtype=complex)
        return self._pole_points

    def eval(self, z, check: bool = True, *, memo: dict | None = None):
        """Principal-branch evaluation at complex scalars or numpy arrays.

        Raises :class:`NearPole` when a point is within ``EPS_POLE`` of a
        denominator or log-argument root; the radius screen of the module
        doc skips only poles farther than that from every point.  ``memo``
        carries values between calls at the same z (module doc).  A
        denominator whose float value cancels to 0 farther out gives numpy's
        inf or nan at a scalar point, as at an array.
        """
        if check and np.any(near_pole(z, self.pole_points)):
            raise NearPole(f"evaluation within {EPS_POLE} of a pole")
        if self._floats is None:
            self._floats = tuple(complex(t.c) for t in self.terms)
        scalar = not hasattr(z, "shape")
        acc = 0j if scalar else z * 0j
        # out of place, as in Poly.__call__: an in-place complex multiply can
        # round differently, and in-place sums measured slower on `verify all`
        for t, c in zip(self.terms, self._floats):
            if isinstance(t, RationalTerm):
                num, den = _value(t.num, z, memo), _value(t.den, z, memo)
                if scalar and den == 0:  # Python's complex division would raise
                    den = np.complex128(den)
                acc = acc + c * num / den
            else:
                acc = acc + c * _value((t.arg,), z, memo)
        return acc

    def derivative(self) -> "AnalyticExpr":
        """Termwise symbolic derivative, (P'Q - PQ')/Q^2 for P/Q and L'/L for
        log L, each in lowest terms (``RatFunc.reduced``): uncancelled, a
        k-fold pole becomes a 2k-fold root of Q^2 whose computed roots
        scatter and whose values lose digits near the circle."""
        if self._deriv is None:
            out = []
            for t in self.terms:
                if isinstance(t, RationalTerm):
                    q = RatFunc(t.num.derivative() * t.den - t.num * t.den.derivative(),
                                t.den * t.den)
                else:
                    q = RatFunc(t.arg.derivative(), t.arg)
                q = q.reduced()
                out.append(RationalTerm(t.c, q.num, q.den))
            self._deriv = AnalyticExpr(out, validate=False)
        return self._deriv

    def rational_part(self) -> RatFunc:
        """The rational terms summed into one unreduced quotient P/Q, kept:
        the series expands it, and the exact tests of ``classify``,
        ``shear`` and ``verify`` read it."""
        if self._rational is None:
            q = RatFunc(Poly.zero())
            for t in self.terms:
                if isinstance(t, RationalTerm):
                    q = q + RatFunc(t.num.scale(t.c), t.den)
            self._rational = q
        return self._rational

    def log_part(self) -> MappingProxyType:
        """The summed coefficient of each log argument, L -> c, where c is
        nonzero and L is not 1: the expression is ``rational_part()`` plus
        the sum of c log L.  Kept, as a read-only mapping."""
        if self._logs is None:
            out = {}
            for t in self.terms:
                if isinstance(t, LogTerm) and t.arg.degree > 0:
                    out[t.arg] = out.get(t.arg, GaussRational(0)) + t.c
            self._logs = MappingProxyType({arg: c for arg, c in out.items() if not c.is_zero})
        return self._logs

    def series(self, order: int) -> Series:
        """Exact Taylor coefficients to the given order: ``rational_part()``
        expanded once (P times 1/Q, or P alone for Q = 1), plus c log L for
        each entry of ``log_part()``, kept in ``_series_cache`` (see the
        module doc)."""
        cached = self._series_cache.get(order)
        if cached is not None:
            return cached
        q = self.rational_part()
        acc = q.num.to_series(order)
        if q.den.coeffs != _UNIT:
            acc = acc * q.den.to_series(order).reciprocal()
        for arg, c in self.log_part().items():
            acc = acc + _log_series(arg, order).scale(c)
        self._series_cache[order] = acc
        return acc

    def __repr__(self):
        return f"AnalyticExpr({len(self.terms)} terms)"


_ZERO_EXPR = AnalyticExpr(())
