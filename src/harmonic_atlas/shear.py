"""Shear construction of harmonic maps from direction-convex conformal maps.

A sense-preserving harmonic map f = h + conj(g) is built from a conformal
map that is convex in one direction plus a dilatation omega = g'/h':

* real direction:  phi = h - g,  h = integral of phi'/(1 - omega);
* imaginary direction:  psi = h + g,  h = integral of psi'/(1 + omega).

The integration is carried out on exact truncated series, so the returned
map satisfies h - g = phi (resp. h + g = psi) and g' = omega * h' exactly
to the working order.  With omega = P/Q (``rational_part``) and s = -1
(real) or +1 (imag), h' = source' Q/(Q + s P): one division by a
polynomial, O(N * deg), where dividing by the series 1 + s omega would
cost O(N^2) and grow its coefficients; omega is never expanded.  Closed
forms for h and g are attached afterwards where they are known, and
``HarmonicMap`` proves each of them.

That proof is one rational identity, with no series.  The shear's h' =
source'/(1 + s omega) and g' = omega h', so a closed form E of h or g is
right for every n exactly when E(0) = 0 and E' (1 + s omega) = w source',
w = 1 for h and omega for g; times Q, E' (Q + s P) = W source' with W = Q
for h and P for g.  E' and source' are rational, as (c log L)' = c L'/L;
each is built as one unreduced quotient, once per expression object
(``_derivative``), and the identity is compared cross-multiplied
(``_identity``).  A g written as
s (source - h) term for term, as every proof shear's is, is proved with h
and not checked apart: it is the shear's g whenever h is the shear's h.
Only the 8 hand-typed g of T4 and T6 have their own identity.  Without a
source (conformal or hand-built maps), the check compares to the map's
order-N series.

omega is rational (``HarmonicMap`` refuses a log term in it), and a shear
decides |omega| < 1 on the disk exactly, once per omega object
(``_omega_bounded``); a refusal names a point z1 of the disk where
|omega(z1)| > 1.  Also decided for every n: the closed forms of a map with
a source (above), and ``dilatation_check`` on a map with closed forms for
h and g.  A map without closed forms, such as the 8 catalog shears that
have none or any map the ``shear`` command builds, has only its order-N
series: its identities and classes hold to N.

Values of h and g come from closed forms only.  A truncated series is
wrong well inside the disk: at order 32 the catalog shear f7_cvi is off by
0.58 at |z| = 0.85 and by 6.0 at |z| = 0.9.  So a map without a closed
form raises ``NoClosedForm`` rather than evaluate its series.  h' (and
g' = omega h') may also come from the shear recipe, source'/(1 -/+ omega),
which is exact everywhere in the disk.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .analytic import _UNIT, EPS_POLE, AnalyticExpr, LogTerm, Poly, RatFunc, near_pole
from .errors import (
    DilatationTooLarge, Frozen, InvalidExpression, NearPole, NoClosedForm, NotNormalized,
    SeriesMismatch,
)
from .numkernel import GaussRational, Series
from .realalg import bounded_by_one, pqeval

__all__ = ["HarmonicMap", "shear_real", "shear_imag", "dilatation_check"]

_BLOCK = 4096  # points per block of eval_masked: 64 KiB of complex


class HarmonicMap(Frozen):
    """Pair (h, g) with dilatation omega; f = h + conj(g).

    omega is rational: one with a log term raises ``InvalidExpression``.
    ``source`` holds the conformal map the shear was built from (phi for
    axis="real", psi for axis="imag") when the map came out of a shear.
    Only ``_shear`` sets it, and a map with a source carries that recipe's
    series: h' = source'/(1 + s omega) and g = s (source - h), s = -1 for
    axis="real", +1 for "imag".  A closed form for h or g of a map with a
    source is proved for every n by the shear's identity (module doc); a
    g that is s (source - h) term for term goes with h.  Without a source
    a closed form is compared with its series at the map's order N.
    ``replace`` builds a new map and checks it the same way, so an omega
    other than the recipe's fails the identity: a map given another omega
    drops its source.  A map given another series drops it by itself.
    """

    __slots__ = ("h_series", "g_series", "omega", "h_expr", "g_expr", "source", "axis")

    def __init__(self, h_series: Series, g_series: Series, omega: AnalyticExpr,
                 h_expr: AnalyticExpr | None = None, g_expr: AnalyticExpr | None = None,
                 source: AnalyticExpr | None = None, axis: str = "real"):
        if h_series.coeff(0) != 0 or h_series.coeff(1) != 1:
            raise NotNormalized("h must satisfy h(0)=0, h'(0)=1")
        if g_series.coeff(0) != 0:
            raise NotNormalized("g must satisfy g(0)=0")
        w = _rational(omega)
        for name, expr, series in (("h", h_expr, h_series), ("g", g_expr, g_series)):
            if expr is None or (name == "g" and source is not None and h_expr is not None
                                and expr.terms == _g_terms(h_expr, source, axis)):
                continue
            if source is None:
                if expr.series(h_series.order) != series:
                    raise SeriesMismatch(f"closed form for {name} disagrees with its series")
            elif not _identity(expr, w.den if name == "h" else w.num, source, w, axis):
                raise SeriesMismatch(f"closed form for {name} is not the shear's {name}")
        object.__setattr__(self, "h_series", h_series)
        object.__setattr__(self, "g_series", g_series)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "h_expr", h_expr)
        object.__setattr__(self, "g_expr", g_expr)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "axis", axis)

    def replace(self, **changes) -> "HarmonicMap":
        """This map with the fields in ``changes`` replaced, checked anew.
        A replaced series is no longer the recipe's, so unless ``source`` is
        given too the source is dropped, and the closed forms are compared
        with the new series at their order."""
        fields = {name: getattr(self, name) for name in self.__slots__}
        if changes.keys() & {"h_series", "g_series"}:
            fields["source"] = None
        fields.update(changes)
        return HarmonicMap(**fields)

    @classmethod
    def conformal(cls, h: AnalyticExpr, order: int) -> "HarmonicMap":
        """The conformal map h as a harmonic map: g = 0 and omega = 0."""
        return cls(h.series(order), Series.zero(order), AnalyticExpr.zero(),
                   h_expr=h, g_expr=AnalyticExpr.zero())

    @property
    def order(self) -> int:
        return self.h_series.order

    # -- evaluation routes --------------------------------------------------

    def _closed(self, name: str) -> AnalyticExpr:
        expr = getattr(self, f"{name}_expr")
        if expr is None:
            raise NoClosedForm(f"{name} has no closed form; its truncated "
                               "series is not evaluated in its place")
        return expr

    def eval(self, z):
        """f(z) = h(z) + conj(g(z)); raises ``NearPole`` within ``EPS_POLE``
        of a pole of h or g."""
        h, g = self._closed("h"), self._closed("g")
        if np.any(near_pole(z, np.concatenate([h.pole_points, g.pole_points]))):
            raise NearPole(f"evaluation within {EPS_POLE} of a pole")
        return self._f(h, g, z, {})

    def eval_masked(self, zs: np.ndarray, logs: dict | None = None):
        """Vectorized f(z) returning ``(values, ok_mask)``, for plotting.

        One pole mask covers h and g; a point near a pole is evaluated at 0
        (every term is finite there: Q(0) != 0, L(0) = 1) and its value set
        to NaN, and a point whose value is not finite is masked too.  h and
        g run together on blocks of ``_BLOCK`` points, one memo per block
        (``AnalyticExpr.eval``), into one preallocated output.  A value
        depends only on its own point (no ``out=`` aliases an input, see
        ``Poly.__call__``), so blocks give bit for bit one call's values.

        ``logs`` memoizes log L(zs) by log argument L for the caller, who
        keeps it with zs (``render`` keeps one per grid).  When no point is
        near a pole, each log of h and g is read from it, or computed in
        the pass and added to it, read-only; otherwise it is left alone.
        """
        h, g = self._closed("h"), self._closed("g")
        zs = np.asarray(zs, dtype=complex)
        near = near_pole(zs, np.concatenate([h.pole_points, g.pole_points]))
        if near.any():
            zs, logs = np.where(near, 0, zs), None
        args = {t.arg for t in h.terms + g.terms if isinstance(t, LogTerm)}
        known = set() if logs is None else args & logs.keys()
        fill = {} if logs is None else {arg: np.empty(zs.size, dtype=complex)
                                        for arg in args - known}
        vals = np.empty(zs.shape, dtype=complex)
        w, flat = zs.ravel(), vals.reshape(-1)
        for a in range(0, w.size, _BLOCK):
            part = slice(a, a + _BLOCK)
            memo = {(arg,): logs[arg][part] for arg in known}
            flat[part] = self._f(h, g, w[part], memo)
            for arg, out in fill.items():
                out[part] = memo[(arg,)]
        vals[near] = np.nan
        for arg, out in fill.items():
            out.flags.writeable = False
            logs[arg] = out
        return vals, np.isfinite(vals)

    @staticmethod
    def _f(h: AnalyticExpr, g: AnalyticExpr, z, memo: dict):
        """h(z) + conj(g(z)) unchecked; h and g share the values in memo."""
        hv = h.eval(z, check=False, memo=memo)
        gv = g.eval(z, check=False, memo=memo)
        return hv + np.conjugate(gv)

    def h_prime(self, z):
        """h' from the closed form of h, else source'/(1 -/+ omega)."""
        if self.h_expr is None and self.source is not None:
            sp = self.source.derivative().eval(z)
            om = self.omega.eval(z)
            return sp / (1 - om) if self.axis == "real" else sp / (1 + om)
        return self._closed("h").derivative().eval(z)

    def g_prime(self, z):
        if self.g_expr is not None:
            return self.g_expr.derivative().eval(z)
        return self.omega.eval(z) * self.h_prime(z)

    def curvature_term(self, z):
        """1 + z h''(z)/h'(z), the quantity bounded below in the M(theta) class."""
        d1 = self._closed("h").derivative()
        return 1 + z * d1.derivative().eval(z) / d1.eval(z)


def _g_terms(h_expr: AnalyticExpr, source: AnalyticExpr, axis: str) -> tuple:
    """The terms of h - source (axis="real") or source - h, as ``-`` writes
    them: the first operand's, then the second's with negated c."""
    first, second = (h_expr, source) if axis == "real" else (source, h_expr)
    return first.terms + tuple(t._replace(c=-t.c) for t in second.terms)


@lru_cache(maxsize=256)  # by object: a source serves each of its shears
def _derivative(expr: AnalyticExpr) -> RatFunc:
    """expr' as one unreduced quotient: (P'Q - PQ')/Q^2 for the rational
    part P/Q, plus c L'/L for each log term (``log_part``).  Unlike
    ``AnalyticExpr.derivative`` it takes no gcd: an identity compared
    cross-multiplied does not need lowest terms."""
    q = expr.rational_part()
    d = RatFunc(q.num.derivative() * q.den - q.num * q.den.derivative(), q.den * q.den)
    for arg, c in expr.log_part().items():
        d = d + RatFunc(arg.derivative().scale(c), arg)
    return d


def _identity(expr: AnalyticExpr, w: Poly, source: AnalyticExpr, omega: RatFunc,
              axis: str) -> bool:
    """Whether expr(0) = 0 and expr' (Q + s P) = w source', for omega = P/Q
    and s = -1 (axis="real") or +1, compared cross-multiplied: expr is the
    shear's h (w = Q) or g (w = P) for every n (module doc).  expr(0) is
    the rational part's P(0)/Q(0), as log L(0) = 0."""
    if not expr.rational_part().num.coeff(0).is_zero:
        return False
    de, ds = _derivative(expr), _derivative(source)
    shear = omega.den + (omega.num if axis == "imag" else -omega.num)
    return de.num * shear * ds.den == ds.num * de.den * w


def _rational(omega: AnalyticExpr):
    """omega's rational part; a log term in omega raises ``InvalidExpression``."""
    if omega.log_part():
        raise InvalidExpression("omega must be rational: it has a log term")
    return omega.rational_part()


@lru_cache(maxsize=64)  # the catalog's shears have two: +z and -z
def _omega_bounded(omega: AnalyticExpr) -> tuple[bool, GaussRational | None]:
    """``realalg.bounded_by_one`` on omega = P/Q in lowest terms: |omega| <=
    1 on the open disk, below 1 there as omega(0) = 0 (maximum modulus),
    or the point z1 that refutes it."""
    w = _rational(omega).reduced()
    return bounded_by_one(w.num.coeffs, w.den.coeffs)


def _check_shear_inputs(conformal: AnalyticExpr, omega: AnalyticExpr, order: int):
    if order < 1:
        raise ValueError("shear order must be >= 1")
    s = conformal.series(order)
    if s.coeff(0) != 0 or s.coeff(1) != 1:
        raise NotNormalized("conformal input must satisfy f(0)=0, f'(0)=1")
    # omega(0) = P(0)/Q(0), as log L(0) = 0 and Q(0) != 0
    if omega.rational_part().num.coeff(0) != 0:
        raise NotNormalized("dilatation must satisfy omega(0)=0")
    bounded, z1 = _omega_bounded(omega)
    if not bounded:
        w = _rational(omega)
        raise DilatationTooLarge(
            "|omega| < 1 is not proved on the unit disk" if z1 is None else
            "|omega| < 1 fails on the unit disk: |omega(z1)|^2 = "
            f"{pqeval(w.num.coeffs, w.den.coeffs, z1).abs2()} at z1 = {z1}")
    return s


def _shear(source: AnalyticExpr, omega: AnalyticExpr, order: int, s: int) -> HarmonicMap:
    """h' = source'/(1 + s omega) and g = s (source - h), for s = -1 or +1.
    With omega = P/Q (``rational_part``), h' = source' Q/(Q + s P): one
    division by a polynomial, O(N * deg) (``Series.__truediv__``), and no
    product for Q = 1.  Q + s P has constant term Q(0) != 0, as P(0) = 0."""
    src = _check_shear_inputs(source, omega, order)
    n1 = order - 1
    w = _rational(omega)
    quot = src.derivative()
    if w.den.coeffs != _UNIT:
        quot = quot * w.den.to_series(n1)
    h = (quot / (w.den + (w.num if s > 0 else -w.num)).to_series(n1)).antiderivative()
    g = src - h if s > 0 else h - src
    return HarmonicMap(h, g, omega, source=source, axis="imag" if s > 0 else "real")


def shear_real(phi: AnalyticExpr, omega: AnalyticExpr, order: int = 64) -> HarmonicMap:
    """Shear along the real direction: h - g = phi, g' = omega h'.

    h is the exact series antiderivative of phi'/(1 - omega) = phi' Q/(Q - P)
    for omega = P/Q, one division by a polynomial, O(N * deg); g = h - phi.
    """
    return _shear(phi, omega, order, -1)


def shear_imag(psi: AnalyticExpr, omega: AnalyticExpr, order: int = 64) -> HarmonicMap:
    """Shear along the imaginary direction: h + g = psi, g' = omega h'.

    h is the exact series antiderivative of psi'/(1 + omega) = psi' Q/(Q + P)
    for omega = P/Q, one division by a polynomial, O(N * deg); g = psi - h.
    """
    return _shear(psi, omega, order, +1)


def dilatation_check(F: HarmonicMap) -> bool:
    """g' = omega h', exactly.  The truncated series decide first, as g' Q =
    P h' for omega = P/Q (``rational_part``; Q(0) != 0, so the two agree to
    the same order): two products by a polynomial, O(N * deg), and omega is
    never expanded.  A coefficient that differs is a no for every n.  With
    closed forms for h and g, the identity is then decided for every n, on
    h' and g' as unreduced quotients (``_derivative``), cross-multiplied.
    Otherwise the series are the answer, to the map's order."""
    n1 = max(min(F.h_series.order, F.g_series.order) - 1, 0)
    w = F.omega.rational_part()
    lhs = F.g_series.derivative().truncate(n1) * w.den.to_series(n1)
    rhs = F.h_series.derivative().truncate(n1) * w.num.to_series(n1)
    if lhs != rhs or F.h_expr is None or F.g_expr is None:
        return lhs == rhs
    dh, dg = _derivative(F.h_expr), _derivative(F.g_expr)
    return dg.num * w.den * dh.den == w.num * dh.num * dg.den
