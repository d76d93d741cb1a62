"""Exact coefficient classification and the |b2| necessary condition.

Coefficient classes are decided on exact rationals: a series is integer
class when every coefficient is a rational integer, half-integer class
when every doubled coefficient is.  No tolerance and no floating point
appear anywhere in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .numkernel import GaussRational, Series
from .shear import HarmonicMap

__all__ = ["CoeffClassReport", "coeff_class", "classify_harmonic", "b2_bound_check"]

INTEGER = "integer"
HALF_INTEGER = "half_integer"
NEITHER = "neither"


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


def coeff_class(s: Series, upto: int | None = None) -> CoeffClassReport:
    """Classify coefficients c0..c_upto as integer / half-integer / neither.

    A complex coefficient is a violation at its index.  The first
    violation is reported only for the ``neither`` class.
    """
    if upto is None:
        upto = s.order
    if upto > s.order:
        raise ValueError("upto exceeds the series order")
    integer = True
    for n in range(upto + 1):
        c = s.coeff(n)
        if not c.is_real or (2 * c.re).denominator != 1:
            return CoeffClassReport(NEITHER, (n, c))
        if c.re.denominator != 1:
            integer = False
    return CoeffClassReport(INTEGER if integer else HALF_INTEGER)


def classify_harmonic(F: HarmonicMap, upto: int | None = None):
    """Reports for the analytic and co-analytic part.

    The map has half-integer coefficients exactly when both reports land
    in the half-integer (or integer) class.
    """
    return coeff_class(F.h_series, upto), coeff_class(F.g_series, upto)


def b2_bound_check(F: HarmonicMap) -> Fraction:
    """|b2|^2 as an exact rational; compare against 1/4.

    Sense-preserving normalized maps satisfy |b2| <= 1/2, with equality
    exactly for linear-in-z dilatations, so a value above 1/4 refutes
    membership in the normalized sense-preserving class.
    """
    if F.g_series.order < 2:
        return Fraction(0)
    return F.g_series.coeff(2).abs2()
