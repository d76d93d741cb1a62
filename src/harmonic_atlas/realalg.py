"""Exact polynomial algebra: arithmetic, division, squarefree factors, the
sign on the real line, the Cayley map and the Schur-Cohn count of zeros in
the unit disk.

A polynomial here is its coefficient sequence over Q(i), lowest degree
first, as ``analytic.Poly`` holds it (``Poly.coeffs``); ``Poly``'s
trimming, subtraction, scaling, derivative, division and gcd are the
functions here.  "Real" means every coefficient has imaginary part 0.
Every result is exact, and the module imports no numpy.

* ``nonnegative(p)`` is p >= 0 on the real line, for a real p: a positive
  leading coefficient and no real root of odd multiplicity (the
  odd-multiplicity factors of ``squarefree``, each with no sign variation
  between its Sturm sequence's ends at -inf and +inf).
* ``cayley(p, n)`` is (1 - it)^n p((1 + it)/(1 - it)), a polynomial in t
  for n >= deg p.  As t runs over the real line, z = (1 + it)/(1 - it)
  runs over the unit circle but z = -1, and |1 - it|^2 = 1 + t^2 > 0.
* ``disk_zero_count(p)`` is the number of zeros of p in the open unit
  disk, with multiplicity, by the Schur-Cohn recursion (Basu, Pollack &
  Roy, ch. 2; Henrici vol. 1, 6.8), or None where the recursion is
  singular.  With p* (z) = z^n conj(p(1/conj z)) and n = deg p, the Schur
  transform Tp = conj(p(0)) p - a_n p* has degree below n and Tp(0) =
  |p(0)|^2 - |a_n|^2 = gamma.  On the circle |p*| = |p|, so for gamma > 0
  Rouche gives p and Tp the same count, and for gamma < 0 it gives Tp the
  count of p*, which is n less that of p.  A zero of p on the circle is
  one of p* and so of every transform; the recursion ends in a nonzero
  constant only if no gamma is 0, so a regular run also shows that p has
  no zero on the circle.  Every polynomial whose zeros all lie on the
  circle (each catalog denominator) is singular at once: |p(0)| = |a_n|.
  Each transform is made monic before the next step: T(cp) = |c|^2 Tp, so
  the count is unchanged and the coefficients stay small.
"""

from __future__ import annotations

from functools import lru_cache

from .numkernel import GaussRational, coeff_product

__all__ = ["ptrim", "psub", "pscale", "pderivative", "pdivmod", "pgcd", "squarefree",
           "nonnegative", "cayley", "disk_zero_count"]

_ZERO = GaussRational(0)
_ONE = GaussRational(1)


def ptrim(cs) -> tuple:
    """The coefficients without trailing zeros."""
    cs = list(cs)
    while cs and cs[-1].is_zero:
        cs.pop()
    return tuple(cs)


def psub(x, y) -> tuple:
    n = max(len(x), len(y))
    return ptrim((x[k] if k < len(x) else _ZERO) - (y[k] if k < len(y) else _ZERO)
                 for k in range(n))


def pscale(p, c: GaussRational) -> tuple:
    return ptrim(c * x for x in p)


def pderivative(p) -> tuple:
    return tuple(p[n] * n for n in range(1, len(p)))


def _monic(p) -> tuple:
    return pscale(p, _ONE / p[-1])


def pdivmod(a, b) -> tuple[tuple, tuple]:
    """Quotient and remainder of a by b (b nonzero, else ZeroDivisionError)."""
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    rem, top = list(a), len(b) - 1
    inv = _ONE / b[top]
    quot = [_ZERO] * max(len(rem) - top, 0)
    for k in range(len(quot) - 1, -1, -1):
        c = quot[k] = rem[k + top] * inv
        for i, o in enumerate(b):
            rem[k + i] = rem[k + i] - c * o
    return ptrim(quot), ptrim(rem[:top])


def pgcd(a, b) -> tuple:
    """Monic gcd by Euclid's algorithm (empty for two zeros)."""
    a, b = ptrim(a), ptrim(b)
    while b:
        a, b = b, pdivmod(a, b)[1]
    return _monic(a) if a else a


def squarefree(p) -> list[tuple[tuple, int]]:
    """Yun's squarefree factorization: (a, m) for each monic factor a of
    degree >= 1 whose roots are the roots of p of multiplicity exactly m,
    m ascending."""
    p = ptrim(p)
    g = pgcd(p, pderivative(p))
    if len(g) == 1:  # squarefree: p made monic is the one factor
        return [(_monic(p), 1)] if len(p) > 1 else []
    b = pdivmod(p, g)[0]
    d = psub(pdivmod(pderivative(p), g)[0], pderivative(b))
    out, m = [], 1
    while len(b) > 1:  # b: the product of the factors of multiplicity >= m
        a = pgcd(b, d)
        if len(a) > 1:
            out.append((a, m))
        b = pdivmod(b, a)[0]
        d = psub(pdivmod(d, a)[0], pderivative(b))
        m += 1
    return out


def _sign(c: GaussRational) -> int:
    re = c.re
    return (re > 0) - (re < 0)


def _sturm_variations(q) -> int:
    """V(-inf) - V(+inf) over the Sturm sequence of a squarefree q: its
    number of real roots.  Each member is scaled by a positive constant,
    which keeps its signs; a sign at an infinite end is that of the
    leading coefficient, flipped at -inf for an odd degree."""
    seq = [q, pderivative(q)]
    while len(seq[-1]) > 1:
        r = pdivmod(seq[-2], seq[-1])[1]
        if not r:
            break
        lead = r[-1] if _sign(r[-1]) > 0 else -r[-1]
        seq.append(tuple(-c / lead for c in r))

    def variations(lower):
        signs = [_sign(f[-1]) * (-1 if lower and len(f) % 2 == 0 else 1) for f in seq if f]
        return sum(s != t for s, t in zip(signs, signs[1:]))

    return variations(True) - variations(False)


def nonnegative(p) -> bool:
    """p >= 0 on the whole real line, for a real p."""
    p = ptrim(p)
    if not p:
        return True
    if _sign(p[-1]) < 0:
        return False
    return all(_sturm_variations(a) == 0 for a, m in squarefree(p) if m % 2)


@lru_cache(maxsize=16)
def _cayley_basis(n: int) -> tuple:
    """(1 + it)^k (1 - it)^(n - k) in t, for k = 0..n."""
    plus, minus = (_ONE, GaussRational(0, 1)), (_ONE, GaussRational(0, -1))
    rise, fall = [(_ONE,)], [(_ONE,)]
    for j in range(1, n + 1):
        rise.append(tuple(coeff_product(rise[-1], plus, j)))
        fall.append(tuple(coeff_product(fall[-1], minus, j)))
    return tuple(tuple(coeff_product(rise[k], fall[n - k], n)) for k in range(n + 1))


def cayley(p, n: int) -> tuple:
    """(1 - it)^n p((1 + it)/(1 - it)) in t, for n >= deg p."""
    p = ptrim(p)
    if len(p) > n + 1:
        raise ValueError("n must be at least the degree")
    out = [_ZERO] * (n + 1)
    for c, basis in zip(p, _cayley_basis(n)):
        out = [o + c * b for o, b in zip(out, basis)]
    return ptrim(out)


def disk_zero_count(p) -> int | None:
    """The number of zeros of p in the open unit disk, with multiplicity,
    or None where the Schur-Cohn recursion is singular (module doc): p is
    0, or some transform has gamma = 0, as when p has a zero on the
    circle."""
    p = ptrim(p)
    if not p:
        return None
    steps = []  # (gamma > 0, degree) of each polynomial of the recursion
    while len(p) > 1:
        n = len(p) - 1
        gamma = p[0].abs2() - p[n].abs2()
        if gamma == 0:
            return None
        head, lead = p[0].conjugate(), p[n]
        steps.append((gamma > 0, n))
        p = _monic(ptrim(head * p[k] - lead * p[n - k].conjugate() for k in range(n)))
    count = 0  # a nonzero constant has no zeros
    for same, n in reversed(steps):
        count = count if same else n - count
    return count
