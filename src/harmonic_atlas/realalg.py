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
  disk, with multiplicity, for every p but 0.  q = ``cayley(p, deg p)``,
  made monic, has a zero with Im t > 0 for each zero of p in the disk, a
  real zero for each on the circle but -1, and loses a degree for each at
  -1.  With q = (A + iB)/2 for real A and B, deg B < deg A, one signed
  remainder sequence of (A, B) gives the Cauchy index Ind(B/A) (Basu,
  Pollack & Roy, ch. 2) and, as its last member, g = gcd(A, B): the real
  zeros of q and its pairs t, conj t (from the pairs alpha, 1/conj alpha
  of p).  On q/g the argument principle counts (deg A - deg g - Ind)/2
  zeros with Im t > 0, and g, real, has half of its non-real zeros there:
  for each squarefree factor (f, m), m (deg f - its real roots)/2.
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
_I = GaussRational(0, 1)


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


def _sturm_variations(f, g) -> tuple[int, tuple]:
    """V(-inf) - V(+inf) over the signed remainder sequence of real f and
    g, deg g < deg f: the Cauchy index of g/f on the real line, and the
    sequence's last member, a gcd of f and g.  For g = f' the index is the
    number of distinct real roots of f.  Each remainder is scaled by a
    positive constant, which keeps its signs; a sign at an infinite end is
    that of the leading coefficient, flipped at -inf for an odd degree."""
    seq, r = [f], g
    while r:
        seq.append(r)
        r = pdivmod(seq[-2], r)[1]
        if r:
            lead = r[-1] if _sign(r[-1]) > 0 else -r[-1]
            r = tuple(-c / lead for c in r)

    def variations(lower):
        signs = [_sign(h[-1]) * (-1 if lower and len(h) % 2 == 0 else 1) for h in seq]
        return sum(s != t for s, t in zip(signs, signs[1:]))

    return variations(True) - variations(False), seq[-1]


def nonnegative(p) -> bool:
    """p >= 0 on the whole real line, for a real p."""
    p = ptrim(p)
    if not p:
        return True
    if _sign(p[-1]) < 0:
        return False
    return all(_sturm_variations(a, pderivative(a))[0] == 0
               for a, m in squarefree(p) if m % 2)


@lru_cache(maxsize=16)
def _cayley_basis(n: int) -> tuple:
    """(1 + it)^k (1 - it)^(n - k) in t, for k = 0..n."""
    plus, minus = (_ONE, _I), (_ONE, -_I)
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
    by the Cauchy index on the Cayley image (module doc); None for p = 0."""
    p = ptrim(p)
    if not p:
        return None
    q = _monic(cayley(p, len(p) - 1))
    a = tuple(c + c.conjugate() for c in q)
    b = ptrim(_I * (c.conjugate() - c) for c in q)
    index, g = _sturm_variations(a, b)
    count = len(a) - len(g) - index
    for f, m in squarefree(g):
        count += m * (len(f) - 1 - _sturm_variations(f, pderivative(f))[0])
    return count // 2
