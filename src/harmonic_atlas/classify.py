"""Exact coefficient classification and the |b2| necessary condition.

A series is integer class when every coefficient is a rational integer,
half-integer class when every doubled coefficient is.  ``coeff_class``
reads c0..cN of a truncated series off the reduced denominator d of each
real coefficient (d = 1, resp. d <= 2), so no ``Fraction`` is built.

A closed form is classified for every n (``expr_class``), on the terms:

* no log part: the rational part P/Q, unreduced and scaled so that
  Q(0) = 1.  If Q has Gaussian-integer coefficients, 1/Q does too, so kf
  has Gaussian-integer coefficients exactly when kP does, and the first
  coefficient of kf that is not one sits where kP's first one does.  f has
  real coefficients exactly when P conj(Q) = conj(P) Q (conj on
  coefficients).
  So the class is decided, and so is the index of a ``neither``'s first
  violation: where 2P first leaves the Gaussian integers, or where f
  first differs from its conjugate (Fatou's setting; k = 1 and 2);
* a nonzero log part on distinct arguments 1 + a z with |a| <= 1: f' has
  residue c != 0 at -1/a, and a rational function's derivative has none,
  so f is not rational.  If kf had Gaussian-integer coefficients, so would
  D kf, D being Q with its denominators cleared; D kf is singular only at
  the roots -1/a, none inside the disk, and continues across the rest of
  the circle.  By the Polya-Carlson theorem (on its real and imaginary
  parts; a radius above 1 makes them polynomials) it would be rational,
  and so would f.  So f is ``neither``; its witness is read in the
  series, to ``_WITNESS_ORDER`` where N shows none;
* anything else (Q not over the Gaussian integers, a nonlinear or larger
  log argument) falls back to ``coeff_class`` of the order-N series.

``classify_harmonic`` classifies each closed form a map has this way, and
reads an order-N series only for h or g without one (the 8 catalog shears
that have no closed form, and every map the ``shear`` command builds).
No tolerance and no floating point appear anywhere in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .analytic import AnalyticExpr, Poly
from .numkernel import GaussRational, Series
from .shear import HarmonicMap

__all__ = ["CoeffClassReport", "coeff_class", "expr_class", "classify_harmonic",
           "b2_bound_check"]

INTEGER = "integer"
HALF_INTEGER = "half_integer"
NEITHER = "neither"
# The order a log part's witness is searched to past a series that shows
# none: the CLI's cap on orders.
_WITNESS_ORDER = 1024


@dataclass(frozen=True)
class CoeffClassReport:
    klass: str
    first_violation: tuple[int, GaussRational] | None = None

    @property
    def is_integer(self) -> bool:
        return self.klass == INTEGER

    @property
    def is_half_integer(self) -> bool:
        """True for both the integer and the half-integer class."""
        return self.klass in (INTEGER, HALF_INTEGER)

    def to_json(self) -> dict:
        out = {"class": self.klass}
        if self.first_violation is not None:
            n, c = self.first_violation
            out["first_violation"] = {"index": n, "value": c.literal()}
        return out


def coeff_class(s: Series) -> CoeffClassReport:
    """Classify the coefficients c0..cN as integer / half-integer / neither.

    A complex coefficient is a violation at its index.  The first
    violation is reported only for the ``neither`` class.
    """
    integer = True
    for n, c in enumerate(s.coeffs):
        if not c.is_real or c.denominator > 2:
            return CoeffClassReport(NEITHER, (n, c))
        if c.denominator != 1:
            integer = False
    return CoeffClassReport(INTEGER if integer else HALF_INTEGER)


def _conj(p: Poly) -> Poly:
    return Poly([c.conjugate() for c in p.coeffs])


def _exact_class(expr: AnalyticExpr) -> tuple[str | None, int | None]:
    """(class for every n, index of a rational ``neither``'s first
    violation) by the rules of the module doc; (None, None) outside them."""
    logs = expr.log_part()
    if logs:
        # each L = 1 + a z with |a| <= 1: its root on or outside the circle
        linear = all(arg.degree == 1 and arg.coeffs[1].abs2() <= 1 for arg in logs)
        return (NEITHER, None) if linear else (None, None)
    q = expr.rational_part()
    num, den = q.num, q.den
    if den.coeffs[0] != 1:
        scale = GaussRational(1) / den.coeffs[0]
        num, den = num.scale(scale), den.scale(scale)
    if any(c.denominator != 1 for c in den.coeffs):
        return None, None
    # the first index where 2P, so 2f, leaves the Gaussian integers, and
    # the first where f differs from its conjugate (f - conj f has the
    # valuation of P conj(Q) - conj(P) Q, since Q conj(Q) starts with 1)
    first = [n for n, c in enumerate(num.coeffs) if c.denominator > 2][:1]
    if not all(c.is_real for c in num.coeffs + den.coeffs):
        unreal = (num * _conj(den) - _conj(num) * den).valuation()
        first += [] if unreal is None else [unreal]
    if first:
        return NEITHER, min(first)
    integer = all(c.denominator == 1 for c in num.coeffs)
    return (INTEGER if integer else HALF_INTEGER), None


def expr_class(expr: AnalyticExpr, series: Series) -> CoeffClassReport:
    """The class of a closed form's coefficients for every n (module doc).

    ``series`` is expr's series to some order N, a map's for instance.  A
    ``neither`` class comes with its first violation, read in ``series``
    and, past N, in the closed form's series: at the index the rational
    part gives, or for a log part the first one to ``_WITNESS_ORDER``
    (none if it lies further).  Outside the exact rules the class is
    ``coeff_class(series)``."""
    klass, index = _exact_class(expr)
    if klass is None:
        return coeff_class(series)
    if klass != NEITHER:
        return CoeffClassReport(klass)
    if index is not None:
        s = series if index <= series.order else expr.series(index)
        return CoeffClassReport(NEITHER, (index, s.coeff(index)))
    report = coeff_class(series)
    if report.klass != NEITHER and series.order < _WITNESS_ORDER:
        report = coeff_class(expr.series(_WITNESS_ORDER))
    return CoeffClassReport(NEITHER, report.first_violation)


def classify_harmonic(F: HarmonicMap):
    """Reports for the analytic and co-analytic part: ``expr_class`` of
    each closed form the map has, read with the map's series, else
    ``coeff_class`` of its series.

    The map has half-integer coefficients exactly when both reports land
    in the half-integer (or integer) class.
    """
    return tuple(coeff_class(s) if e is None else expr_class(e, s)
                 for e, s in ((F.h_expr, F.h_series), (F.g_expr, F.g_series)))


def b2_bound_check(F: HarmonicMap) -> Fraction:
    """|b2|^2 as an exact rational; compare against 1/4.

    Sense-preserving normalized maps satisfy |b2| <= 1/2, with equality
    exactly for linear-in-z dilatations, so a value above 1/4 refutes
    membership in the normalized sense-preserving class.
    """
    if F.g_series.order < 2:
        return Fraction(0)
    return F.g_series.coeff(2).abs2()
