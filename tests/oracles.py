"""Independent reference computations for the tests.

These deliberately avoid the package's Series/AnalyticExpr code paths:
plain Fraction lists and textbook recurrences only, so that an agreement
between a library result and an oracle value is a genuine cross-check.
The numeric oracles are references that the package's route must
reproduce exactly: ``rz_search_bruteforce``, the lattice scan that
``rz_search`` makes with ``rz_certificate``, written apart;
``path_data_reference``, the per-point loop behind the run-at-a-time SVG
path formatter; and ``pole_mask_bruteforce``, the every-pole test behind
the radius-screened pole guard.  ``shear_series_reference`` shears by
long division on the series of 1 + s omega, the route the package took
before it divided by a polynomial.  ``disk_preimage_count`` counts the roots
of P - wQ inside the disk with ``np.roots``, the float check of the exact
falsifiers' witnesses.  ``monic_gcd`` is Euclid's algorithm over a
field, each remainder made monic: the package's gcd before it ran the
subresultant sequence on Gaussian integers.
They import numpy only when called, so importing this module (as perfbench
does at set-up) loads neither numpy nor the package.  ``GaussRational``
here is the Fraction-pair class the package used before its integer-triple
representation, kept as the reference the triple must match value for
value.
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


def shear_series_reference(source, omega, s):
    """(h, g) of the shear of ``source`` by ``omega``: h the antiderivative
    of source'/(1 + s omega), by long division on the series, and g =
    s (source - h), for s = -1 (real) or +1 (imag).  The shear's route
    before it divided by the polynomial Q + s P of omega = P/Q.

    source: coefficients 0..N; omega: coefficients 0..N-1 with omega[0] =
    0.  Any exact coefficients with ``+ - * /`` (Fractions, the package's
    GaussRationals) will do.
    """
    deriv = [k * c for k, c in enumerate(source) if k]
    den = [1 + s * omega[0]] + [s * w for w in omega[1:]]
    quot = []
    for n, c in enumerate(deriv):
        for k in range(1, n + 1):
            c = c - den[k] * quot[n - k]
        quot.append(c / den[0])
    h = [0 * source[0]] + [c / (n + 1) for n, c in enumerate(quot)]
    g = [s * (a - b) for a, b in zip(source, h)]
    return h, g


def compose_linear(coeffs, c):
    """Coefficients of f(c z) from those of f(z): the n-th picks up c**n."""
    out, power = [], 1
    for coeff in coeffs:
        out.append(coeff * power)
        power = power * c
    return out


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


def monic_gcd(a, b):
    """The monic gcd of two polynomials over a field (coefficient sequences,
    lowest degree first, of Fractions or the package's GaussRationals),
    empty for two zeros: Euclid's algorithm, each remainder made monic
    before it divides."""
    def trim(p):
        p = list(p)
        while p and not p[-1]:
            p.pop()
        return p

    def monic(p):
        inv = 1 / p[-1]
        return [c * inv for c in p]

    def rem(a, b):
        a, inv = list(a), 1 / b[-1]
        for k in range(len(a) - len(b), -1, -1):
            c = a[k + len(b) - 1] * inv
            for i, o in enumerate(b):
                a[k + i] = a[k + i] - c * o
        return trim(a[:len(b) - 1])

    a, b = trim(a), trim(b)
    while b:
        r = rem(a, b)
        a, b = b, monic(r) if r else r
    return tuple(monic(a)) if a else ()


def disk_preimage_count(p, q, w, margin=1e-6):
    """The roots of P - wQ with |z| < 1 - margin, by ``np.roots``: the
    points of the disk that f = P/Q maps to w, counted in floats.  p and q
    are complex coefficient lists, lowest degree first; a root within
    margin of the circle is not counted."""
    import numpy as np

    c = np.polysub(np.array(p[::-1], dtype=complex), w * np.array(q[::-1], dtype=complex))
    assert np.any(c), "the zero polynomial"
    return int(np.sum(np.abs(np.roots(c)) < 1 - margin))


def rz_search_bruteforce(phi, axis, grid, mu_steps=96, nu_steps=48,
                         tol=1e-9):
    """The slope-criterion lattice scan: every (mu, nu) point is evaluated
    on the whole grid.  Returns (margin, witness, mu, nu) of the
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


def pole_mask_bruteforce(z, poles, eps):
    """Mask, shaped like z, of the points within eps of a pole: every pole
    is tested against every point, one pole at a time."""
    import numpy as np

    zz = np.asarray(z, dtype=complex)
    near = np.zeros(zz.shape, dtype=bool)
    for p in poles:
        near |= np.abs(zz - p) < eps
    return near


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


# -- the Fraction-pair GaussRational ------------------------------------------
# The package's GaussRational as it was before it moved to one reduced integer
# triple (a + b i)/d: a pair of Fractions, each operation built from Fraction
# arithmetic.  Kept verbatim as the reference the triple must reproduce value
# for value (hash, complex() bits and literal text included).

def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class GaussRational:
    """Exact complex number with rational real and imaginary parts.

    Instances are immutable by convention: no method mutates ``re``/``im``
    after construction, so values can be shared freely across threads.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _frac(re)
        self.im = _frac(im)

    # -- arithmetic ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, GaussRational):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussRational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by zero GaussRational")
        return GaussRational(
            (self.re * o.re + self.im * o.im) / d,
            (self.im * o.re - self.re * o.im) / d,
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return GaussRational(-self.re, -self.im)

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers are supported")
        result = GaussRational(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- structure -----------------------------------------------------

    def conjugate(self) -> "GaussRational":
        return GaussRational(self.re, -self.im)

    def abs2(self) -> Fraction:
        """|self|^2, exact."""
        return self.re * self.re + self.im * self.im

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    @property
    def is_real(self) -> bool:
        return self.im == 0

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return not self.is_zero

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def literal(self) -> str:
        """Exact text form: ``p/q``, ``r/s i`` or ``p/q+r/s i``."""
        def frac_str(f: Fraction) -> str:
            return str(f)

        if self.im == 0:
            return frac_str(self.re)
        imag = f"{frac_str(abs(self.im))} i" if abs(self.im) != 1 else "i"
        sign = "-" if self.im < 0 else ""
        if self.re == 0:
            return sign + imag
        joiner = "-" if self.im < 0 else "+"
        return f"{frac_str(self.re)}{joiner}{imag}"

    def __str__(self):
        return self.literal()

    def __repr__(self):
        return f"GaussRational({self.re!r}, {self.im!r})"
