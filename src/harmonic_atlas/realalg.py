"""Exact polynomial algebra: arithmetic, division, evaluation, squarefree
factors, the sign on the real line, the Cayley map, the count of zeros in
the unit disk and the tests Re(a/d) >= 0 and |p/q| <= 1 there.

A polynomial here is its coefficient sequence over Q(i), lowest degree
first, as ``analytic.Poly`` holds it (``Poly.coeffs``); ``Poly``'s
trimming, subtraction, scaling, derivative, division and gcd are the
functions here, since ``analytic`` needs the factors themselves; all but
the gcd run on Q(i).  The gcd runs the subresultant remainder sequence
(Collins, J. ACM 1967; Brown & Traub, J. ACM 1971) on Gaussian integers:
each pseudo-remainder divides exactly in Z[i], so the coefficients grow
only polynomially, and the last is made monic once, the unique monic gcd.
"Real" means every coefficient has imaginary part 0.  Every result is
exact, and the module imports no numpy.

The sign tests need only signs on the real line, so they run on integer
lists: p enters as the real and imaginary parts of L p, L > 0 the lcm of
its denominators, and every later rescaling is by a positive integer,
which moves no sign, root or Cauchy index.  The signed remainder sequence
takes |lc g|^k rem(f, g), negated and divided by its content, for -rem(f,
g).  The gcd chain h_0 = h, h_(k+1) = gcd(h_k, h_k') divides nothing: the
sequence of (h_k, h_k') has as its index n_k, the number of distinct real
roots of h of multiplicity > k, and as its last member h_(k+1).  So h has
sum n_k real roots with multiplicity, sum (-1)^k n_k of odd multiplicity.

* ``nonnegative(p)``, p >= 0 on the real line for a real p, is a positive
  lead and no real root of odd multiplicity.
* ``cayley(p, n)`` is (1 - it)^n p((1 + it)/(1 - it)) in t, n >= deg p:
  for real t, z = (1 + it)/(1 - it) runs over the unit circle but -1.
* ``re_nonnegative(a, d)`` is Re(a/d) >= 0 on the open disk (``verify``'s
  slope certificates), and ``bounded_by_one(p, q)`` is |p/q| <= 1 there
  (``shear``'s |omega| < 1, ``verify``'s distortion class) or a witness.
* ``disk_zero_count(p)`` is the number of zeros of p in the open unit
  disk, with multiplicity, for every p but 0.  q = ``cayley(p, deg p)``
  times conj(lc q) has a positive lead, a zero with Im t > 0 for each zero
  of p in the disk, a real one for each on the circle but -1, and one
  degree less for each at -1.  For q = A + iB, A and B real, one signed
  remainder sequence gives the Cauchy index Ind(B/A) (Basu, Pollack & Roy,
  ch. 2) and g = gcd(A, B): the real zeros of q and its pairs t, conj t
  (from the pairs alpha, 1/conj alpha of p).  q/g has (deg A - deg g -
  Ind)/2 zeros with Im t > 0 (argument principle), and the real g half of
  its non-real ones: (deg A - Ind - sum n_k)/2 in all, n_k of g.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import comb, gcd, lcm

from .numkernel import GaussRational

__all__ = ["ptrim", "psub", "pscale", "pderivative", "pdivmod", "pgcd", "squarefree", "peval",
           "pqeval", "nonnegative", "cayley", "re_nonnegative", "bounded_by_one",
           "disk_zero_count"]

_ZERO = GaussRational(0)
_ONE = GaussRational(1)


def ptrim(cs) -> tuple:
    """The coefficients without trailing zeros."""
    cs = list(cs)
    while cs and not cs[-1]:
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


def _gprem(f: list, g: list) -> list:
    """lc(g)^(deg f - deg g + 1) f mod g, trimmed, for f and g lists of
    Gaussian integers as (re, im) pairs, deg f >= deg g >= 1."""
    r, top, (u, v) = list(f), len(g) - 1, g[-1]
    for k in range(len(f) - 1 - top, -1, -1):
        c, e = r.pop()  # r = lc(g) r - c z^k g, in length k + top
        r = [(u * x - v * y, u * y + v * x) for x, y in r]
        r[k:] = [(s - c * x + e * y, t - c * y - e * x) for (s, t), (x, y) in zip(r[k:], g)]
    while r and r[-1] == (0, 0):
        r.pop()
    return r


def pgcd(a, b) -> tuple:
    """Monic gcd (empty for two zeros); past a zero or constant operand, by
    the subresultant sequence (module doc) on the cleared operands: each
    pseudo-remainder of f by g is divided by lc h^delta, delta = deg f - deg
    g, then lc becomes g's lead and h lc^delta/h^(delta - 1); both start at 1."""
    a, b = ptrim(a), ptrim(b)
    if len(a) < len(b):
        a, b = b, a
    if len(b) < 2:  # gcd(a, 0) is a made monic, and gcd(a, c) = 1 for a constant c != 0
        return (_ONE,) if b else _monic(a) if a else a
    f, g = (list(zip(*_cleared(p))) for p in (a, b))
    lc = h = _ONE
    while len(r := _gprem(f, g)) > 1:  # else g divides f, or the gcd is 1
        delta = len(f) - len(g)
        d = lc * h ** delta  # a Gaussian integer, as lc and h are
        u, v, n = d._a, d._b, d._a ** 2 + d._b ** 2
        f, g = g, [((x * u + y * v) // n, (y * u - x * v) // n) for x, y in r]
        lc = GaussRational(*f[-1])
        h = lc ** delta / h ** (delta - 1) if delta else h
    return (_ONE,) if r else _monic(tuple(GaussRational(x, y) for x, y in g))


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
        if len(a) > 1:  # else a = 1, and b and d stay
            out.append((a, m))
            b, d = pdivmod(b, a)[0], pdivmod(d, a)[0]
        d = psub(d, pderivative(b))
        m += 1
    return out


def peval(p, z: GaussRational) -> GaussRational:
    """p(z), exactly (Horner): the one exact evaluation."""
    acc = _ZERO
    for c in reversed(p):
        acc = acc * z + c
    return acc


def pqeval(p, q, z: GaussRational) -> GaussRational | None:
    """p(z)/q(z), exactly; None where q(z) = 0."""
    d = peval(q, z)
    return peval(p, z) / d if d else None


def _cleared(p) -> tuple[list, list]:
    """The real and imaginary parts of L p, for L the lcm of p's denominators."""
    m = lcm(*(c._d for c in p))
    return [c._a * (m // c._d) for c in p], [c._b * (m // c._d) for c in p]


def _sturm_variations(f: list, g: list) -> tuple[int, list]:
    """V(-inf) - V(+inf) over the signed remainder sequence of real f and
    g, deg g < deg f: the Cauchy index of g/f on the real line, and the
    sequence's last member, a gcd of f and g.  For g = f' the index is the
    number of distinct real roots of f.  Each pseudo-division step takes
    |lc g| r - sign(lc g) lc(r) g.  A sign at an infinite end is that of the
    leading coefficient, flipped at -inf for an odd degree."""
    seq, r = [f], g
    while r:
        seq.append(r)
        g, r, top = r, list(seq[-2]), len(r) - 1
        scale, sign = abs(g[-1]), (g[-1] > 0) - (g[-1] < 0)
        for k in range(len(r) - 1 - top, -1, -1):
            c = r.pop() * sign
            if c:
                r = [scale * x for x in r]
                for i in range(top):
                    r[k + i] -= c * g[i]
        content = gcd(*r)  # 0 for r = 0
        r = ptrim(-x // content for x in r) if content else ()

    def variations(lower):
        signs = [(h[-1] > 0) != (lower and len(h) % 2 == 0) for h in seq]
        return sum(s != t for s, t in zip(signs, signs[1:]))

    return variations(True) - variations(False), seq[-1]


def _root_counts(h: list) -> list:
    """n_k, the number of distinct real roots of h of multiplicity > k, for
    k = 0, 1, ... up to the largest such multiplicity (module doc)."""
    counts = []
    while len(h) > 1:
        n, h = _sturm_variations(h, [k * h[k] for k in range(1, len(h))])
        counts.append(n)
    return counts


def _nonnegative(p: list) -> bool:
    counts = _root_counts(p)  # n_0 - n_1 + ...: the real roots of odd multiplicity
    return not p or p[-1] > 0 and sum(counts[::2]) == sum(counts[1::2])


def nonnegative(p) -> bool:
    """p >= 0 on the whole real line, for a real p (else ValueError)."""
    re, im = _cleared(ptrim(p))
    if any(im):
        raise ValueError("the sign on the real line needs a real polynomial")
    return _nonnegative(re)


@lru_cache(maxsize=16)
def _cayley_basis(n: int) -> tuple:
    """s_k with (1 + it)^k (1 - it)^(n - k) = sum_j s_k[j] (it)^j, k = 0..n."""
    return tuple([sum((-1) ** (j - a) * comb(k, a) * comb(n - k, j - a) for a in range(j + 1))
                  for j in range(n + 1)] for k in range(n + 1))


def _int_cayley(p, n: int) -> tuple[list, list]:
    """``cayley`` of L p (``_cleared``): the integer lists of the real and
    imaginary parts of its coefficients 0..n."""
    x, y = [0] * (n + 1), [0] * (n + 1)
    for u, v, s in zip(*_cleared(p), _cayley_basis(n)):
        for j, c in enumerate(s):
            x[j] += u * c
            y[j] += v * c
    turns = list(enumerate(zip(x, y)))  # times i^j
    return ([(a, -b, -a, b)[j % 4] for j, (a, b) in turns],
            [(b, a, -b, -a)[j % 4] for j, (a, b) in turns])


def cayley(p, n: int) -> tuple:
    """(1 - it)^n p((1 + it)/(1 - it)) in t, for n >= deg p."""
    if len(ptrim(p)) > n + 1:
        raise ValueError("n must be at least the degree")
    m = lcm(*(c._d for c in p))
    return ptrim(GaussRational(x, y) / m for x, y in zip(*_int_cayley(p, n)))


def re_nonnegative(a, d) -> bool:
    """Re(a/d) >= 0 on the open disk, proved as |Phi| <= 1 there for Phi =
    (a - d)/(a + d) by ``bounded_by_one``'s proof, with no witness search:
    a/d = (1 + Phi)/(1 - Phi) has Re = (1 - |Phi|^2)/|1 - Phi|^2.  Poles
    of a/d on the circle are allowed."""
    return _nonnegative(_circle(a, d)) and disk_zero_count(psub(a, [-c for c in d])) == 0


def _circle(a, d) -> list:
    """Re(a conj d) on the circle, in t (``cayley``), times a positive
    integer."""
    n = max(len(a), len(d)) - 1
    (ar, ai), (dr, di) = _int_cayley(a, n), _int_cayley(d, n)
    out = [0] * max(len(ar) + len(dr) - 1, 0)
    for i, (u, w) in enumerate(zip(ar, ai)):
        for j, (v, s) in enumerate(zip(dr, di)):
            out[i + j] += u * v + w * s
    return ptrim(out)


def _sign_at(p: list, u: int, v: int) -> int:
    """The sign of p(u/v) for v > 0: that of v^deg p p(u/v), in integers."""
    acc = sum(c * u**j * v**(len(p) - 1 - j) for j, c in enumerate(p))
    return (acc > 0) - (acc < 0)


def bounded_by_one(p, q) -> tuple[bool, GaussRational | None]:
    """|p/q| <= 1 on the open disk, for q != 0, proved: q has no zero in the
    disk (``disk_zero_count``) and 2 (|q|^2 - |p|^2) = 2 Re((q + p) conj(q
    - p)) >= 0 on the circle (``cayley``, then ``nonnegative``); so p/q is
    analytic in the disk, bounded on the circle and so pole-free there, and
    at most 1 (maximum modulus).  Returns (True, None), or (False, z1) with
    |z1| < 1 and |p(z1)| > |q(z1)| > 0: z = (1 + it)/(1 - it) at the first
    t of a scan where the circle polynomial is negative, pulled in to (1 -
    2^-k) z; or (False, None) where neither is found.

    A monomial over a nonzero constant, p = c z^k and q = q0, has |p/q| =
    |c/q0| |z|^k, so the answer is yes when |c|^2 <= |q0|^2, compared on
    the integer triples; a no takes the proof above for its witness."""
    if len(q) == 1 and q[0] and p and not any(p[:-1]):
        c, q0 = p[-1], q[0]
        if (c._a ** 2 + c._b ** 2) * q0._d ** 2 <= (q0._a ** 2 + q0._b ** 2) * c._d ** 2:
            return True, None
    circle = _circle(psub(q, [-c for c in p]), psub(q, p))
    if not q or _nonnegative(circle):  # a count of None for q = 0
        return disk_zero_count(q) == 0, None
    # t = 0 (z = 1), then -+m/2^k and +-2^k/m for odd m <= 2^k, k = 0..10
    # (z = -i, i, ...): up to k, the points are 2^(1 - k) apart in angle
    scan = chain([(0, 1)], ((u, v) for k in range(11) for m in range(1, 2**k + 1, 2)
                            for u, v in ((-m, 2**k), (m, 2**k), (2**k, m), (-2**k, m))))
    t = next((t for t in scan if _sign_at(circle, *t) < 0), None)
    if t is None:
        return False, None
    z, rho = GaussRational(t[1], t[0]) / GaussRational(t[1], -t[0]), Fraction(1, 2)
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
    if len(p) < 2:  # a constant has no zero
        return 0 if p else None
    qr, qi = _int_cayley(p, len(p) - 1)
    x, y = next((u, v) for u, v in zip(qr[::-1], qi[::-1]) if u or v)  # times conj(lc q)
    a = ptrim([u * x + v * y for u, v in zip(qr, qi)])
    index, g = _sturm_variations(a, ptrim([v * x - u * y for u, v in zip(qr, qi)]))
    return (len(a) - 1 - index - sum(_root_counts(g))) // 2
