"""Exact arithmetic kernel: Gaussian rationals and truncated Taylor series.

Everything in this module is exact.  Coefficients live in Q(i), complex
numbers whose real and imaginary parts are arbitrary-precision rationals
(`fractions.Fraction`).  A :class:`Series` keeps coefficients c0..cN for a
fixed truncation order N; arithmetic never extends the trustworthy range,
so mixed-order operands truncate to the minimum order.  Products and
quotients touch only nonzero coefficients: a product costs O(nonzero
pairs) and a quotient O(N * nonzeros of the denominator), so expanding a
rational function P/Q to order N costs O(N * deg Q).  Floating point
enters only through the explicit ``complex()`` conversions used by callers
that sample values numerically.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ZeroConstantTerm

__all__ = ["GaussRational", "Series", "gauss"]


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


def gauss(x) -> GaussRational:
    """Coerce an int, Fraction or GaussRational to GaussRational."""
    if isinstance(x, GaussRational):
        return x
    return GaussRational(_frac(x))


_ZERO = GaussRational(0)
_ONE = GaussRational(1)


def _nonzero_terms(coeffs) -> list:
    """(index, coefficient) for the nonzero coefficients, indices ascending."""
    return [(k, c) for k, c in enumerate(coeffs) if c]


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

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.coeffs)

    def truncate(self, order: int) -> "Series":
        if order > self.order:
            raise ValueError("truncate cannot extend the order")
        return Series(self.coeffs[: order + 1])

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
        n = min(self.order, other.order)
        return Series([self.coeffs[k] + other.coeffs[k] for k in range(n + 1)])

    def __sub__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        n = min(self.order, other.order)
        return Series([self.coeffs[k] - other.coeffs[k] for k in range(n + 1)])

    def __neg__(self):
        return Series([-c for c in self.coeffs])

    def __mul__(self, other):
        """Product truncated to the smaller order, or a scalar multiple.

        Only pairs of nonzero coefficients are multiplied, so the cost is
        O(nonzero pairs): O(N * deg) when one operand is a polynomial.
        """
        if isinstance(other, (int, Fraction, GaussRational)):
            return self.scale(other)
        if not isinstance(other, Series):
            return NotImplemented
        n = min(self.order, other.order)
        b = _nonzero_terms(other.coeffs[: n + 1])
        out = [_ZERO] * (n + 1)
        for j, x in _nonzero_terms(self.coeffs[: n + 1]):
            for k, y in b:
                if j + k > n:
                    break
                out[j + k] = out[j + k] + x * y
        return Series(out)

    __rmul__ = __mul__

    def scale(self, c) -> "Series":
        c = gauss(c)
        return Series([c * x for x in self.coeffs])

    def __truediv__(self, den):
        """Quotient self/den, truncated to the smaller order.

        Runs the triangular recurrence
        q_n = (a_n - sum_{k>=1, d_k != 0} d_k q_{n-k}) / d_0
        over the nonzero coefficients of ``den`` only, so the cost is
        O(N * nonzeros of den): O(N * deg Q) for a polynomial Q.  The
        division by d_0 is skipped when d_0 = 1, as it is for every
        denominator the catalog and the shear produce.
        """
        if not isinstance(den, Series):
            return NotImplemented
        n = min(self.order, den.order)
        d0 = den.coeffs[0]
        if d0.is_zero:
            raise ZeroConstantTerm("division by a series with zero constant term")
        inv0 = None if d0 == _ONE else _ONE / d0
        tail = _nonzero_terms(den.coeffs[: n + 1])[1:]  # d0 heads the list
        out = []
        for m in range(n + 1):
            acc = self.coeffs[m]
            for k, d in tail:
                if k > m:
                    break
                acc = acc - d * out[m - k]
            out.append(acc if inv0 is None else acc * inv0)
        return Series(out)

    def reciprocal(self) -> "Series":
        """Multiplicative inverse up to the series order, as 1/self.

        Costs O(N * nonzeros of self), see :meth:`__truediv__`.
        """
        return Series.one(self.order) / self

    def derivative(self) -> "Series":
        """Termwise d/dz; the order drops by one (a constant stays order 0)."""
        if self.order == 0:
            return Series.zero(0)
        return Series([self.coeffs[n] * n for n in range(1, self.order + 1)])

    def antiderivative(self) -> "Series":
        """Termwise integral from 0; constant term 0, order grows by one.

        Any information the operand lacked above its own order is simply
        absent from the result's top coefficient; callers that need order
        N in the result should provide an integrand of order N-1.
        """
        out = [_ZERO]
        for n, c in enumerate(self.coeffs):
            out.append(c / (n + 1))
        return Series(out)

    def compose_linear(self, c) -> "Series":
        """Substitute z -> c*z: coefficient n picks up a factor c^n."""
        c = gauss(c)
        out = []
        power = _ONE
        for coeff in self.coeffs:
            out.append(power * coeff)
            power = power * c
        return Series(out)

    def __repr__(self):
        shown = ", ".join(str(c) for c in self.coeffs[:8])
        more = ", ..." if self.order > 7 else ""
        return f"Series([{shown}{more}], order={self.order})"
