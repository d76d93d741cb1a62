"""Exact polynomial algebra: arithmetic, division, evaluation, squarefree
factors, the sign on the real line, the Cayley map, the count of zeros in
the unit disk and the tests Re(a/d) >= 0 and |p/q| <= 1 there.

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
* ``re_nonnegative(a, d)`` is Re(a/d) >= 0 on the open disk, that is
  |(a - d)/(a + d)| <= 1, for ``verify``'s slope certificates, and
  ``bounded_by_one(p, q)`` is |p/q| <= 1 there, for ``shear``'s |omega| <
  1 and ``verify``'s distortion class, with a point where it fails.
* ``disk_zero_count(p)`` is the number of zeros of p in the open unit
  disk, with multiplicity.  With n = deg p and p*(z) = z^n conj(p(1/conj
  z)), g = gcd(p, p*) holds the zeros on the circle, counted by a Sturm
  count of the Cayley image of each squarefree factor of g, and the pairs
  alpha, 1/conj alpha, half of them inside.  p/g goes to the Schur-Cohn
  recursion (Basu, Pollack & Roy, ch. 2; Henrici vol. 1, 6.8): Tp =
  conj(p(0)) p - a_n p* has degree below n and Tp(0) = |p(0)|^2 - |a_n|^2
  = gamma.  On the circle |p*| = |p|, so for gamma > 0 Rouche gives p and
  Tp the same count, and for gamma < 0 it gives Tp the count of p*, n
  less that of p.  A gamma of 0, as for (z - 2)(z - i/2), leaves the
  count None.  Each transform is made monic: T(cp) = |c|^2 Tp, so the
  count is unchanged and the coefficients stay small.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain

from .numkernel import GaussRational, coeff_product

__all__ = ["ptrim", "psub", "pscale", "pderivative", "pdivmod", "pgcd", "squarefree", "peval",
           "nonnegative", "cayley", "re_nonnegative", "bounded_by_one", "disk_zero_count"]

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
    """Monic gcd by Euclid's algorithm (empty for two zeros).  Each remainder
    is made monic before it divides, which keeps the coefficients small."""
    a, b = ptrim(a), ptrim(b)
    while b:
        r = pdivmod(a, b)[1]
        a, b = b, _monic(r) if r else r
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
    return (c._a > 0) - (c._a < 0)  # Re c = a/d with d > 0; no Fraction built


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


def peval(p, z: GaussRational) -> GaussRational:
    """p(z), exactly (Horner): the one exact evaluation."""
    acc = _ZERO
    for c in reversed(p):
        acc = acc * z + c
    return acc


def re_nonnegative(a, d) -> bool:
    """Re(a/d) >= 0 on the open disk, proved as |Phi| <= 1 there for Phi =
    (a - d)/(a + d) (``bounded_by_one``): a/d = (1 + Phi)/(1 - Phi) has Re
    = (1 - |Phi|^2)/|1 - Phi|^2.  Poles of a/d on the circle are allowed."""
    return bounded_by_one(psub(a, d), psub(a, [-c for c in d]))[0]


def bounded_by_one(p, q) -> tuple[bool, GaussRational | None]:
    """|p/q| <= 1 on the open disk, for q != 0, proved: q has no zero in the
    disk (``disk_zero_count``) and 2 (|q|^2 - |p|^2) = 2 Re((q + p) conj(q
    - p)) >= 0 on the circle (``cayley``, then ``nonnegative``); so p/q is
    analytic in the disk, bounded on the circle and so pole-free there, and
    at most 1 (maximum modulus).  Returns (True, None), or (False, z1) with
    |z1| < 1 and |p(z1)| > |q(z1)| > 0: z = (1 + it)/(1 - it) at the first
    t of a scan where the circle polynomial is negative, pulled in to (1 -
    2^-k) z; or (False, None) where neither is found."""
    n = max(len(p), len(q)) - 1
    a, d = cayley(psub(q, [-c for c in p]), n), cayley(psub(q, p), n)
    circle = [c + c.conjugate() for c in coeff_product(a, [c.conjugate() for c in d], 2 * n)]
    if not q or nonnegative(circle):  # a count of None for q = 0
        return disk_zero_count(q) == 0, None
    # t = 0 (z = 1), then -+m/2^k and +-2^k/m for odd m <= 2^k, k = 0..10
    # (z = -i, i, ...): up to k, the points are 2^(1 - k) apart in angle
    scan = chain([0], (Fraction(u, v) for k in range(11) for m in range(1, 2**k + 1, 2)
                       for u, v in ((-m, 2**k), (m, 2**k), (2**k, m), (-2**k, m))))
    t = next((t for t in scan if _sign(peval(circle, t)) < 0), None)
    if t is None:
        return False, None
    z, rho = GaussRational(1, t) / GaussRational(1, -t), Fraction(1, 2)
    while True:  # |p| > |q| at z, so at rho z for rho = 1 - 2^-k near enough 1
        z1 = z * rho
        below = peval(q, z1).abs2()
        if below and peval(p, z1).abs2() > below:
            return False, z1
        rho = (1 + rho) / 2


def disk_zero_count(p) -> int | None:
    """The number of zeros of p in the open unit disk, with multiplicity,
    or None where it cannot tell (module doc): p is 0, or the Schur-Cohn
    recursion on p/gcd(p, p*) meets gamma = 0."""
    p = ptrim(p)
    if not p:
        return None
    g = pgcd(p, tuple(c.conjugate() for c in reversed(p)))
    paired = sum(m * _paired_count(a) for a, m in squarefree(g))
    p, steps = pdivmod(p, g)[0], []  # (gamma > 0, degree) of each step
    while len(p) > 1:
        n = len(p) - 1
        head, lead = p[0].conjugate(), p[n]
        gamma = _sign(p[0] * head - lead * lead.conjugate())  # |p(0)|^2 - |a_n|^2
        if not gamma:
            return None
        steps.append((gamma > 0, n))
        p = _monic(ptrim(head * p[k] - lead * p[n - k].conjugate() for k in range(n)))
    count = 0  # a nonzero constant has no zeros
    for same, n in reversed(steps):
        count = count if same else n - count
    return paired + count


def _paired_count(a) -> int:
    """The zeros in the open disk of a squarefree a whose zeros lie on the
    circle or in pairs alpha, 1/conj alpha: half of those off the circle.
    Those on it are the real roots of cayley(a), real once divided by a
    coefficient, and -1 where cayley(a) loses degree."""
    t = cayley(a, len(a) - 1)
    on_circle = _sturm_variations(tuple(c / t[-1] for c in t)) + len(a) - len(t)
    return (len(a) - 1 - on_circle) // 2
