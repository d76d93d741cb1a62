"""Numeric geometric verifiers: certificates and falsifiers on sampling grids.

Everything here is evidence, not proof.  A positivity margin computed over
a finite grid certifies an inequality only on the sampled set.  A
convexity probe traces the circle |z| = r; a test line it finds crossed
more than twice (up to the sampling resolution of the traced curve)
refutes direction convexity of f(|z| < r) only.  Direction convexity of
the image of the disk need not pass to the images of subdisks |z| < r for
r > sqrt(2) - 1 (Goodman & Saff, 1979), so a crossing at r = 0.999 does
not refute it for the disk itself.  A probe that finds nothing proves
nothing.  Certificates record the grid minimum and the witness point
attaining it.

``u_class_margin``, ``jacobian_min``, ``rz_search``,
``starlike_derivative`` and ``direction_convexity_probe`` decide no row:
each is only the test oracle of ``verify``'s exact rows of the same
quantity, and stays here because ``perfbench/spans.py`` binds it by name.
Only ``m_theta_check`` decides rows (REMARK's two M(theta) margins).

The direction-convexity machinery:

* ``rz_certificate`` evaluates Re{e^{i mu}(1 - 2 z e^{-i mu} cos nu
  + z^2 e^{-2i mu}) phi'(z)} (real direction) or the same with leading
  factor -i e^{i mu} (imaginary direction); nonnegativity on the disk is
  the classical slope criterion for convexity in that direction.
* ``rz_search`` scans a (mu, nu) lattice, 4 x 6 by default, for the best
  margin, one ``rz_certificate`` per lattice point.
* ``direction_convexity_probe`` traces the image of a near-boundary circle
  and counts sign changes of the coordinate orthogonal to test lines.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache

import numpy as np

from .analytic import AnalyticExpr
from .errors import Frozen, ZeroValue
from .shear import HarmonicMap

__all__ = [
    "Grid", "RZParams", "Certificate", "default_grid",
    "jacobian_min", "rz_certificate", "rz_search",
    "direction_convexity_probe", "starlike_derivative",
    "u_class_margin", "m_theta_check", "boundary_trace",
]

TOL_MARGIN = 1e-9  # how far below 0 a certificate's margin may fall
R_MAX = 0.999  # the outer radius of the default grid and of the probe's circle
DEADBAND = 1e-8


class Grid(Frozen):
    """Polar sampling grid: radii x equally spaced angles.  Grids with the
    same radii and angle count are equal and hash alike: a grid keys the
    caches of phi' (``_phi_prime``)."""

    __slots__ = ("radii", "angles_count")

    def __init__(self, radii: tuple[float, ...], angles_count: int):
        if not radii:
            raise ValueError("radii must not be empty")
        if angles_count < 1:
            raise ValueError("angles_count must be at least 1")
        if list(radii) != sorted(radii):
            raise ValueError("radii must be sorted ascending")
        if not (0 < radii[0] and radii[-1] < 1):
            raise ValueError("radii must lie in (0, 1)")
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "angles_count", angles_count)

    def __eq__(self, other):
        if other.__class__ is not Grid:
            return NotImplemented
        return (self.radii, self.angles_count) == (other.radii, other.angles_count)

    def __hash__(self):
        return hash((self.radii, self.angles_count))

    @property
    def points(self) -> np.ndarray:
        return _grid_points(self.radii, self.angles_count)


@lru_cache(maxsize=32)
def _grid_points(radii: tuple, angles_count: int) -> np.ndarray:
    angles = np.exp(2j * np.pi * np.arange(angles_count) / angles_count)
    points = (np.asarray(radii)[:, None] * angles[None, :]).ravel()
    points.flags.writeable = False  # cached: shared by equal grids
    return points


def default_grid(radii_count: int = 64, angles: int = 256,
                 r_max: float = R_MAX) -> Grid:
    radii = tuple(r_max * (k + 1) / radii_count for k in range(radii_count))
    return Grid(radii, angles)


class RZParams(Frozen):
    """One (mu, nu) choice of the slope criterion.  Equal choices are equal
    and hash alike, so certificates compare by value."""

    __slots__ = ("mu", "nu")

    def __init__(self, mu: float, nu: float):
        if not (0 <= mu < 2 * math.pi and 0 <= nu <= math.pi):
            raise ValueError("mu in [0, 2pi), nu in [0, pi] required")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "nu", nu)

    def __eq__(self, other):
        if other.__class__ is not RZParams:
            return NotImplemented
        return (self.mu, self.nu) == (other.mu, other.nu)

    def __hash__(self):
        return hash((self.mu, self.nu))


class Certificate(namedtuple("Certificate", "kind margin witness params",
                             defaults=(None, None))):
    """Grid minimum of a defining quantity (a float ``margin``) plus the
    point attaining it (complex ``witness``) and, for a slope criterion,
    its ``RZParams``."""
    __slots__ = ()


def _min_certificate(kind, values, zs, params=None) -> Certificate:
    i = int(np.argmin(values))
    return Certificate(kind, float(values[i]), complex(zs[i]), params)


def jacobian_min(F: HarmonicMap, grid: Grid) -> Certificate:
    """Grid minimum of |h'|^2 - |g'|^2; positive means sense-preserving
    on the sampled set."""
    zs = grid.points
    hp = F.h_prime(zs)
    gp = F.g_prime(zs)
    vals = np.abs(hp) ** 2 - np.abs(gp) ** 2
    return _min_certificate("jacobian", vals, zs)


@lru_cache(maxsize=1)
def _phi_prime(phi: AnalyticExpr, grid: Grid) -> np.ndarray:
    """phi' on the grid, read-only.  Kept for the last (phi, grid) only, so
    the two axes of one map evaluate phi' once."""
    pp = phi.derivative().eval(grid.points)
    pp.flags.writeable = False
    return pp


def rz_certificate(phi: AnalyticExpr, p: RZParams, axis: str,
                   grid: Grid) -> Certificate:
    """Slope-criterion margin for one (mu, nu) choice: the grid minimum of
    cos(mu) a + sin(mu) b - 2 cos(nu) c, with a, b and c read off phi',
    z phi' and z^2 phi'."""
    if axis not in ("real", "imag"):
        raise ValueError("axis must be 'real' or 'imag'")
    zs, pp = grid.points, _phi_prime(phi, grid)
    p0, p1, p2 = pp, zs * pp, zs * zs * pp
    if axis == "real":
        a, b, c = p0.real + p2.real, p2.imag - p0.imag, p1.real
    else:
        a, b, c = p0.imag + p2.imag, p0.real - p2.real, p1.imag
    vals = math.cos(p.mu) * a + math.sin(p.mu) * b - 2 * math.cos(p.nu) * c
    return _min_certificate(f"rz_{axis}", vals, zs, p)


def rz_search(phi: AnalyticExpr, axis: str, grid: Grid,
              mu_steps: int = 4, nu_steps: int = 6,
              tol: float = TOL_MARGIN) -> Certificate | None:
    """Scan the (mu, nu) lattice with ``rz_certificate``; return the
    best-margin certificate if its margin clears -tol, else None.

    The lattice has ``mu_steps`` points on [0, 2pi) and ``nu_steps``
    intervals on [0, pi] (endpoints included).  The default 4 x 6 lattice
    holds the classical choices mu in {0, pi/2} and nu in {0, pi/3, pi/2,
    2pi/3, pi}, where every catalog certificate peaks; it is a subset of
    the finer 96 x 48 lattice, float for float, so it never certifies more.
    Lattice points are visited mu-major and a later point replaces the
    best only with a strictly larger margin, so a NaN margin at the first
    point stays the best and the result is None.
    """
    if mu_steps < 1 or nu_steps < 1:
        raise ValueError("mu_steps and nu_steps must be at least 1")
    best = None
    for i in range(mu_steps):
        for j in range(nu_steps + 1):
            p = RZParams(2 * math.pi * i / mu_steps, math.pi * j / nu_steps)
            cert = rz_certificate(phi, p, axis, grid)
            if best is None or cert.margin > best.margin:
                best = cert
    return best if best.margin >= -tol else None


def direction_convexity_probe(F, direction: str, r: float = R_MAX,
                              lines: int = 64, samples: int = 4096) -> bool:
    """Falsifier for convexity in the given direction.

    Traces F on |z| = r, 0 < r < 1, and, for test lines parallel to the
    direction placed at quantiles of the orthogonal coordinate, counts
    cyclic sign changes of that coordinate along the curve.  More than two sign
    changes on some line means the line meets the image in more than one
    chord: returns False.  True means "not falsified", never a proof.
    """
    if direction not in ("real", "imag"):
        raise ValueError("direction must be 'real' or 'imag'")
    w = boundary_trace(F, r, samples)
    coord = w.imag if direction == "real" else w.real
    levels = np.quantile(coord, (np.arange(lines) + 0.5) / lines)
    for c in levels:
        v = coord - c
        sig = v[np.abs(v) > DEADBAND]
        if sig.size < 2:
            continue
        signs = np.sign(sig)
        changes = int(np.sum(signs != np.roll(signs, 1)))
        if changes > 2:
            return False
    return True


def starlike_derivative(F: HarmonicMap, t: float, r: float) -> float:
    """Re{Df(z)/f(z)} at z = r e^{it}, Df = z f_z - conj(z) f_zbar.

    As r -> 1 this approximates the boundary derivative of arg f(e^{it});
    a negative value near the boundary refutes starlikeness there.
    """
    z = r * complex(math.cos(t), math.sin(t))
    val = F.eval(z)
    if abs(val) < 1e-12:
        raise ZeroValue("f(z) vanishes at the sample point")
    df = z * F.h_prime(z) - np.conjugate(z * F.g_prime(z))
    return float((df / val).real)


def u_class_margin(f: AnalyticExpr, grid: Grid) -> Certificate:
    """Grid minimum of 1 - |f'(z) (z/f(z))^2 - 1|.

    A positive margin is consistent with membership in the class of maps
    with |f'(z)(z/f(z))^2 - 1| < 1; a negative margin refutes it.
    """
    zs = grid.points
    fv = f.eval(zs)
    if np.min(np.abs(fv)) < 1e-14:
        raise ZeroValue("f vanishes on the grid away from the origin")
    fp = f.derivative().eval(zs)
    vals = 1.0 - np.abs(fp * (zs / fv) ** 2 - 1.0)
    return _min_certificate("u_class", vals, zs)


def m_theta_check(F: HarmonicMap, grid: Grid) -> Certificate:
    """Grid minimum of Re(1 + z h''/h') + 1/2, the margin of the
    M(theta) classes' condition Re(1 + z h''/h') > -1/2.  The identity
    g' = e^{i theta} z h' is decided apart, by ``dilatation_check``."""
    zs = grid.points
    vals = np.asarray(F.curvature_term(zs)).real + 0.5
    return _min_certificate("m_theta", vals, zs)


def boundary_trace(F, r: float, samples: int = 1024) -> np.ndarray:
    """Closed polyline F(r e^{2 pi i k / samples}), k = 0..samples-1."""
    if not (0 < r < 1):
        raise ValueError("trace radius must lie in (0, 1)")
    zs = r * np.exp(2j * np.pi * np.arange(samples) / samples)
    return np.asarray(F.eval(zs))
