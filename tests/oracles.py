"""Independent reference computations for the tests.

These deliberately avoid the package's Series/AnalyticExpr code paths:
plain Fraction lists and textbook recurrences only, so that an agreement
between a library result and an oracle value is a genuine cross-check.
The numeric oracles are references that a faster route must reproduce
exactly: ``rz_search_bruteforce``, the plain lattice scan behind the pruned
``rz_search``, and ``path_data_reference``, the per-point loop behind the
run-at-a-time SVG path formatter.  They import numpy only when called, so
importing this module (as perfbench does at set-up) loads neither numpy nor
the package.
"""

import math
from fractions import Fraction
from math import comb


def long_division_series(num, den, order):
    """Coefficients of num(z)/den(z) to the given order by long division.

    num, den: lists of Fractions (ascending degree), den[0] != 0.
    """
    num = [Fraction(c) for c in num] + [Fraction(0)] * (order + 1)
    den = [Fraction(c) for c in den]
    assert den[0] != 0
    out = []
    for n in range(order + 1):
        c = num[n]
        for k in range(1, min(n, len(den) - 1) + 1):
            c -= den[k] * out[n - k]
        out.append(c / den[0])
    return out


def binomial_inverse_power(a, m, order):
    """Coefficients of (1 + a z)^(-m) for integer m >= 1, exact."""
    a = Fraction(a)
    return [comb(n + m - 1, m - 1) * (-a) ** n for n in range(order + 1)]


def quotient_rule(num, den):
    """(P/Q)' as (P'Q - PQ', Q^2) on Fraction coefficient lists."""
    def deriv(p):
        return [Fraction(k) * p[k] for k in range(1, len(p))] or [Fraction(0)]

    def mul(p, q):
        out = [Fraction(0)] * (len(p) + len(q) - 1)
        for i, a in enumerate(p):
            for j, b in enumerate(q):
                out[i + j] += a * b
        return out

    def sub(p, q):
        n = max(len(p), len(q))
        p = p + [Fraction(0)] * (n - len(p))
        q = q + [Fraction(0)] * (n - len(q))
        return [a - b for a, b in zip(p, q)]

    num = [Fraction(c) for c in num]
    den = [Fraction(c) for c in den]
    return sub(mul(deriv(num), den), mul(num, deriv(den))), mul(den, den)


def gaussian_long_division(num, den, order):
    """Coefficients of num(z)/den(z) over Q(i), by real long division.

    num, den: lists of (re, im) pairs (ascending degree), den[0] != 0.
    Multiplying top and bottom by den with conjugated coefficients makes
    the denominator real (its n-th coefficient sum_{j+k=n} d_j conj(d_k)
    is its own conjugate), so the real and imaginary parts of the
    quotient each come from :func:`long_division_series`.
    """
    def mul(p, q):
        out = [(Fraction(0), Fraction(0))] * (len(p) + len(q) - 1)
        for i, (a, b) in enumerate(p):
            for j, (c, d) in enumerate(q):
                re, im = out[i + j]
                out[i + j] = (re + a * c - b * d, im + a * d + b * c)
        return out

    num = [(Fraction(a), Fraction(b)) for a, b in num]
    den = [(Fraction(a), Fraction(b)) for a, b in den]
    conj = [(a, -b) for a, b in den]
    real_den = mul(den, conj)
    assert all(im == 0 for _, im in real_den)
    top = mul(num, conj)
    re = long_division_series([a for a, _ in top], [a for a, _ in real_den], order)
    im = long_division_series([b for _, b in top], [a for a, _ in real_den], order)
    return list(zip(re, im))


def rz_search_bruteforce(phi, axis, grid, mu_steps=96, nu_steps=48,
                         tol=1e-9):
    """The unpruned slope-criterion lattice scan: every (mu, nu) point is
    evaluated on the whole grid.  Returns (margin, witness, mu, nu) of the
    best margin if it clears -tol, else None."""
    import numpy as np

    zs = grid.points
    pp = phi.derivative().eval(zs)
    p0, p1, p2 = pp, zs * pp, zs * zs * pp
    if axis == "real":
        a, b = p0.real + p2.real, p2.imag - p0.imag
        c = p1.real
    else:
        a, b = p0.imag + p2.imag, p0.real - p2.real
        c = p1.imag
    best = None
    for i in range(mu_steps):
        mu = 2 * math.pi * i / mu_steps
        base = math.cos(mu) * a + math.sin(mu) * b
        for j in range(nu_steps + 1):
            nu = math.pi * j / nu_steps
            vals = base - 2 * math.cos(nu) * c
            k = int(np.argmin(vals))
            margin = float(vals[k])
            if best is None or margin > best[0]:
                best = (margin, complex(zs[k]), mu, nu)
    if best is not None and best[0] >= -tol:
        return best
    return None


def path_data_reference(vals, ok, close):
    """SVG polyline path data one point at a time: an ``M`` after every gap,
    an ``L`` otherwise; ``close`` repeats the first point at the end."""
    import numpy as np

    if close and ok.size:
        vals = np.concatenate([vals, vals[:1]])
        ok = np.concatenate([ok, ok[:1]])
    parts = []
    pen_down = False
    for v, good in zip(vals, ok):
        if not good:
            pen_down = False
            continue
        cmd = "L" if pen_down else "M"
        parts.append(f"{cmd}{v.real:.6f},{-v.imag:.6f}")
        pen_down = True
    return " ".join(parts)
