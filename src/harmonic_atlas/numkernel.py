"""Exact arithmetic kernel: Gaussian rationals and truncated Taylor series.

Everything in this module is exact.  Coefficients live in Q(i): a
:class:`GaussRational` is one integer triple (a, b, d) with value
(a + b i)/d, kept in lowest terms (d > 0, gcd(a, b, d) = 1).  Each
operation on it is a few integer products and sums plus at most one
three-argument gcd, and builds no ``fractions.Fraction``; ``re`` and ``im``
hand out Fractions on request.  A :class:`Series` keeps coefficients c0..cN
for a fixed truncation order N; arithmetic never extends the trustworthy
range, so mixed-order operands truncate to the minimum order.  Products
and quotients sum each output coefficient on plain integers and build it
with one gcd, however many products it sums.  They touch only nonzero
coefficients: a product (:func:`coeff_product`, also behind
``analytic.Poly``) costs O(nonzero pairs) and a quotient O(N * nonzeros of
the denominator), so expanding a rational function P/Q to order N costs
O(N * deg Q).  A product by z^k alone is a shift, O(N) with nothing
multiplied, and a sum or difference hands out the other coefficient
wherever one side is zero.  Floating point enters only through the
explicit ``complex()`` conversions used by callers that sample values
numerically.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import ZeroConstantTerm

__all__ = ["GaussRational", "Series", "gauss"]


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


_new = object.__new__


def _triple(a: int, b: int, d: int) -> "GaussRational":
    """(a + b i)/d as stored, for a, b, d already in lowest terms, d > 0."""
    z = _new(GaussRational)
    z._a = a
    z._b = b
    z._d = d
    return z


def _reduced(a: int, b: int, d: int) -> "GaussRational":
    """(a + b i)/d for d > 0, brought to lowest terms by one gcd."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    z = _new(GaussRational)  # _triple inlined: this is the hot path
    z._a = a
    z._b = b
    z._d = d
    return z


def _ratio(p: int, q: int) -> str:
    """str(Fraction(p, q)) for q > 0, by one gcd."""
    g = gcd(p, q) if q != 1 else 1
    return str(p // g) if g == q else f"{p // g}/{q // g}"


def _coerce(x):
    """x as a GaussRational if it is an int, Fraction or GaussRational."""
    if isinstance(x, GaussRational):
        return x
    if isinstance(x, int):
        return _triple(int(x), 0, 1)
    if isinstance(x, Fraction):
        return _triple(x.numerator, 0, x.denominator)
    return None


class GaussRational:
    """Exact complex number (a + b i)/d with integers a, b and d.

    The triple is stored in lowest terms: d > 0 and gcd(a, b, d) = 1, so
    each value has exactly one triple (zero is (0, 0, 1)) and equality is
    a comparison of triples.  Each operation builds its result from
    integer products and sums and reduces it with one three-argument gcd,
    skipped when the new denominator is 1:

    * ``+``, ``-``: two integer sums over a shared denominator, four
      products and one more for the denominator when they differ;
    * ``*``: four products for the numerator, one for the denominator;
    * ``/``: nine products, |divisor|^2 included;
    * ``-x`` and ``conjugate()``: no arithmetic and no gcd.

    ``re`` and ``im`` are the two parts as ``Fraction``s, built on demand,
    and ``denominator`` is d itself;
    ``complex()`` divides the integers directly, correctly rounded, as
    ``float(Fraction)`` does.  Instances are immutable, so values can be
    shared freely across threads.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self._a, self._b, self._d = re, im, 1
            return
        re, im = _frac(re), _frac(im)
        q, s = re.denominator, im.denominator
        d = q // gcd(q, s) * s  # lcm: gcd(a, b, d) = 1 follows from re, im reduced
        self._a = re.numerator * (d // q)
        self._b = im.numerator * (d // s)
        self._d = d

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    @property
    def denominator(self) -> int:
        """The d of (a + b i)/d in lowest terms."""
        return self._d

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        o = other if type(other) is GaussRational else _coerce(other)
        if o is None:
            return NotImplemented
        d, e = self._d, o._d
        if d == e:
            return _reduced(self._a + o._a, self._b + o._b, d)
        return _reduced(self._a * e + o._a * d, self._b * e + o._b * d, d * e)

    __radd__ = __add__

    def __sub__(self, other):
        o = other if type(other) is GaussRational else _coerce(other)
        if o is None:
            return NotImplemented
        d, e = self._d, o._d
        if d == e:
            return _reduced(self._a - o._a, self._b - o._b, d)
        return _reduced(self._a * e - o._a * d, self._b * e - o._b * d, d * e)

    def __rsub__(self, other):
        o = other if type(other) is GaussRational else _coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = other if type(other) is GaussRational else _coerce(other)
        if o is None:
            return NotImplemented
        a, b, c, e = self._a, self._b, o._a, o._b
        return _reduced(a * c - b * e, a * e + b * c, self._d * o._d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = other if type(other) is GaussRational else _coerce(other)
        if o is None:
            return NotImplemented
        c, e = o._a, o._b
        n = c * c + e * e
        if n == 0:
            raise ZeroDivisionError("division by zero GaussRational")
        # (a + b i)/d / ((c + e i)/f) = (a + b i)(c - e i) f / (d (c^2 + e^2))
        a, b, f = self._a, self._b, o._d
        return _reduced((a * c + b * e) * f, (b * c - a * e) * f, self._d * n)

    def __rtruediv__(self, other):
        o = other if type(other) is GaussRational else _coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return _triple(-self._a, -self._b, self._d)

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
        return _triple(self._a, -self._b, self._d)

    def abs2(self) -> Fraction:
        """|self|^2, exact."""
        return Fraction(self._a * self._a + self._b * self._b, self._d * self._d)

    @property
    def is_zero(self) -> bool:
        return not (self._a or self._b)

    @property
    def is_real(self) -> bool:
        return not self._b

    def __eq__(self, other):
        o = other if type(other) is GaussRational else _coerce(other)
        if o is None:
            return NotImplemented
        return self._a == o._a and self._b == o._b and self._d == o._d

    def __hash__(self):
        # the hash of the equal int or Fraction for a real value
        if self._b == 0:
            return hash(self._a) if self._d == 1 else hash(Fraction(self._a, self._d))
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self._a or self._b)

    def __complex__(self):
        return complex(self._a / self._d, self._b / self._d)

    def literal(self) -> str:
        """Exact text form: ``p/q``, ``r/s i`` or ``p/q+r/s i``, each part
        written as ``str(Fraction)`` writes it.  A real integer (b = 0, d =
        1), half of a catalog table, is ``str(a)`` with no gcd."""
        a, b, d = self._a, self._b, self._d
        if not b:
            return str(a) if d == 1 else _ratio(a, d)
        imag = "i" if abs(b) == d else f"{_ratio(abs(b), d)} i"
        if not a:
            return "-" + imag if b < 0 else imag
        return f"{_ratio(a, d)}{'-' if b < 0 else '+'}{imag}"

    def __str__(self):
        return self.literal()

    def __repr__(self):
        return f"GaussRational({self.re!r}, {self.im!r})"


def gauss(x) -> GaussRational:
    """Coerce an int, Fraction or GaussRational to GaussRational."""
    if type(x) is GaussRational:
        return x
    z = _coerce(x)
    if z is None:
        raise TypeError(f"expected int or Fraction, got {type(x).__name__}")
    return z


_ZERO = GaussRational(0)
_ONE = GaussRational(1)


def _nonzero_terms(coeffs) -> list:
    """(index, coefficient) for the nonzero coefficients, indices ascending."""
    return [(k, c) for k, c in enumerate(coeffs) if c._a or c._b]


def _convolve(terms, seq, n: int, heads=None, inv=None) -> list:
    """Coefficients 0..n of (heads + sum over (k, x) in terms of x z^k seq) * inv.

    ``terms`` holds (k, x), k ascending, x nonzero; ``heads`` and ``inv``
    default to 0 and 1.  With ``seq`` None the sum runs over the output
    itself (every k >= 1): the triangular recurrence of a quotient.  Each
    coefficient is one unreduced triple (A + B i)/D until one gcd reduces
    it: a product whose denominator is D adds to A and B, any other is
    cross-multiplied in, a zero seq entry is skipped.  Triples are
    canonical, so the result is what reducing every step would give.
    """
    out = []
    seq = out if seq is None else seq
    for m in range(n + 1):
        y = _ZERO if heads is None else heads[m]
        A, B, D = y._a, y._b, y._d
        for k, x in terms:
            if k > m:
                break
            y = seq[m - k]
            c, e = y._a, y._b
            if c or e:
                a, b = x._a, x._b
                f = x._d * y._d
                if f == D:
                    A += a * c - b * e
                    B += a * e + b * c
                else:
                    A = A * f + (a * c - b * e) * D
                    B = B * f + (a * e + b * c) * D
                    D *= f
        q = _reduced(A, B, D) if A or B else _ZERO
        out.append(q if inv is None else q * inv)
    return out


def coeff_product(xs, ys, n: int) -> list:
    """Coefficients 0..n of the product of the coefficient sequences xs and
    ys (GaussRationals, index = degree), as :func:`_convolve` sums them over
    the nonzero terms of the sparser one: O(nonzero pairs).  A sparser one
    that is z^k alone shifts the other and multiplies nothing."""
    a, b = _nonzero_terms(xs), _nonzero_terms(ys)
    terms, seq = (a, ys) if len(a) <= len(b) else (b, xs)
    if len(seq) <= n:
        seq = list(seq) + [_ZERO] * (n + 1 - len(seq))
    if len(terms) == 1 and terms[0][1] == _ONE:
        k = terms[0][0]
        return [_ZERO] * min(k, n + 1) + list(seq[: max(n + 1 - k, 0)])
    return _convolve(terms, seq, n)


class Series:
    """Truncated Taylor series c0 + c1 z + ... + cN z^N over Q(i).

    The order N is ``len(coeffs) - 1``.  Results of binary operations
    carry the minimum of the operand orders; nothing ever silently
    extends the range a result is exact on.  Instances are immutable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs, order: int | None = None):
        cs = [gauss(c) for c in coeffs]
        if order is not None:
            if order < 0:
                raise ValueError("order must be >= 0")
            cs = cs[: order + 1]
            cs += [_ZERO] * (order + 1 - len(cs))
        elif not cs:
            raise ValueError("empty coefficients without explicit order")
        self.coeffs = tuple(cs)

    # -- constructors ----------------------------------------------------

    @classmethod
    def _of(cls, coeffs) -> "Series":
        """A series over nonempty GaussRational coefficients, taken as they
        are: the kernel's own results need no coercion or checks."""
        s = object.__new__(cls)
        s.coeffs = tuple(coeffs)
        return s

    @classmethod
    def zero(cls, order: int) -> "Series":
        return cls([], order=order)

    @classmethod
    def one(cls, order: int) -> "Series":
        return cls([_ONE], order=order)

    # -- basics ----------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, n: int) -> GaussRational:
        if n < 0 or n > self.order:
            raise IndexError(f"coefficient index {n} outside order {self.order}")
        return self.coeffs[n]

    def truncate(self, order: int) -> "Series":
        if order > self.order:
            raise ValueError("truncate cannot extend the order")
        return Series._of(self.coeffs[: order + 1])

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        # zip stops at the smaller order; where one side is zero, the sum
        # is the other coefficient itself
        return Series._of([x if not (y._a or y._b) else y if not (x._a or x._b)
                           else x + y for x, y in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return Series._of([x if not (y._a or y._b) else -y if not (x._a or x._b)
                           else x - y for x, y in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return Series._of([-c for c in self.coeffs])

    def __mul__(self, other):
        """Product truncated to the smaller order, or a scalar multiple.

        Coefficient m sums x_j y_(m-j) over the nonzero x_j of the sparser
        operand and the nonzero y_(m-j) (:func:`coeff_product`), so the cost
        is O(nonzero pairs): O(N * deg) when one operand is a polynomial.
        """
        if isinstance(other, (int, Fraction, GaussRational)):
            return self.scale(other)
        if not isinstance(other, Series):
            return NotImplemented
        n = min(self.order, other.order)
        return Series._of(coeff_product(self.coeffs[: n + 1], other.coeffs[: n + 1], n))

    __rmul__ = __mul__

    def scale(self, c) -> "Series":
        c = gauss(c)
        return Series._of([c * x for x in self.coeffs])

    def __truediv__(self, den):
        """Quotient self/den, truncated to the smaller order.

        Runs the triangular recurrence
        q_n = (a_n - sum_{k>=1, d_k != 0} d_k q_{n-k}) / d_0
        (:func:`_convolve`) over the nonzero coefficients of ``den`` only,
        so the cost is O(N * nonzeros of den): O(N * deg Q) for a
        polynomial Q.  The division by d_0 is skipped when d_0 = 1, as it is
        for every denominator the catalog and the shear produce.
        """
        if not isinstance(den, Series):
            return NotImplemented
        n = min(self.order, den.order)
        d0 = den.coeffs[0]
        if d0.is_zero:
            raise ZeroConstantTerm("division by a series with zero constant term")
        inv0 = None if d0 == _ONE else _ONE / d0
        tail = [(k, -d) for k, d in _nonzero_terms(den.coeffs[: n + 1])[1:]]
        return Series._of(_convolve(tail, None, n, self.coeffs, inv0))

    def reciprocal(self) -> "Series":
        """Multiplicative inverse up to the series order, as 1/self.

        Costs O(N * nonzeros of self), see :meth:`__truediv__`.
        """
        return Series.one(self.order) / self

    def derivative(self) -> "Series":
        """Termwise d/dz; the order drops by one (a constant stays order 0)."""
        if self.order == 0:
            return Series.zero(0)
        # n c as (n a + n b i)/d in lowest terms: one gcd, no coercion
        return Series._of([_reduced(c._a * n, c._b * n, c._d)
                           for n, c in enumerate(self.coeffs[1:], 1)])

    def antiderivative(self) -> "Series":
        """Termwise integral from 0; constant term 0, order grows by one.

        Any information the operand lacked above its own order is simply
        absent from the result's top coefficient; callers that need order
        N in the result should provide an integrand of order N-1.
        """
        # c / n as (a + b i)/(d n) in lowest terms: one gcd, no division
        out = [_ZERO]
        for n, c in enumerate(self.coeffs, 1):
            out.append(_reduced(c._a, c._b, c._d * n))
        return Series._of(out)

    def __repr__(self):
        shown = ", ".join(str(c) for c in self.coeffs[:8])
        more = ", ..." if self.order > 7 else ""
        return f"Series([{shown}{more}], order={self.order})"
