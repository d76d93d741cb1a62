"""Exact coefficient classification and the |b2| necessary condition.

Coefficient classes are decided on exact rationals: a series is integer
class when every coefficient is a rational integer, half-integer class
when every doubled coefficient is.  Both are read off the reduced
denominator d of each real coefficient (d = 1, resp. d <= 2), so no
``Fraction`` is built.  No tolerance and no floating point appear anywhere
in this module.
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


def classify_harmonic(F: HarmonicMap):
    """Reports for the analytic and co-analytic part.

    The map has half-integer coefficients exactly when both reports land
    in the half-integer (or integer) class.
    """
    return coeff_class(F.h_series), coeff_class(F.g_series)


def b2_bound_check(F: HarmonicMap) -> Fraction:
    """|b2|^2 as an exact rational; compare against 1/4.

    Sense-preserving normalized maps satisfy |b2| <= 1/2, with equality
    exactly for linear-in-z dilatations, so a value above 1/4 refutes
    membership in the normalized sense-preserving class.
    """
    if F.g_series.order < 2:
        return Fraction(0)
    return F.g_series.coeff(2).abs2()
