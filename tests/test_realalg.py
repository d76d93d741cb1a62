"""Exact real algebra: the sign on the line, the Cayley map and the zero count
in the disk (a Cauchy index on the Cayley image)."""

import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import harmonic_atlas
from harmonic_atlas import realalg
from harmonic_atlas.numkernel import GaussRational, coeff_product
from oracles import monic_gcd

F = Fraction
G = GaussRational
ONE = (G(1),)


def from_roots(roots, lead=G(1)):
    """lead * prod (z - r), coefficients ascending."""
    p = (lead,)
    for r in roots:
        p = tuple(coeff_product(p, (-gauss(r), G(1)), len(p)))
    return p


def gauss(x):
    return x if isinstance(x, GaussRational) else G(x)


def at(p, x):
    acc = G(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


small = st.fractions(min_value=-3, max_value=3, max_denominator=12)
gaussian = st.builds(G, small, small)


# -- the zero count in the disk ----------------------------------------------

@settings(max_examples=150, deadline=None)
@given(roots=st.lists(gaussian, min_size=1, max_size=7), lead=gaussian)
def test_disk_zero_count_against_np_roots(roots, lead):
    # roots at least 1e-3 from the circle, pairs r, 1/conj r included:
    # every count is exact
    assume(not lead.is_zero)
    assume(all(abs(abs(complex(r)) - 1) >= 1e-3 for r in roots))
    p = from_roots(roots, lead)
    count = realalg.disk_zero_count(p)
    floats = np.roots([complex(c) for c in reversed(p)])
    assert count == int(np.sum(np.abs(floats) < 1))
    assert count == sum(r.abs2() < 1 for r in roots)


inner = st.fractions(min_value=F(-2, 3), max_value=F(2, 3), max_denominator=6)
in_disk = st.builds(G, inner, inner)  # |r| <= 0.95
outer = st.fractions(min_value=F(-3), max_value=F(3), max_denominator=6)
out_disk = st.builds(G, outer, outer).filter(lambda r: r.abs2() > 1)
CIRCLE = [1, -1, G(0, 1), G(0, -1), G(F(3, 5), F(4, 5)), G(F(-5, 13), F(12, 13))]


@settings(max_examples=150, deadline=None)
@given(inside=st.lists(in_disk, max_size=3), paired=st.lists(in_disk, max_size=2),
       circle=st.lists(st.sampled_from(CIRCLE), max_size=3),
       outside=st.lists(out_disk, max_size=2),
       unpaired=st.lists(st.tuples(in_disk, st.sampled_from(CIRCLE[1:])), max_size=2))
def test_disk_zero_count_with_roots_on_the_circle(inside, paired, circle, outside, unpaired):
    # roots on the circle (repeated or not), pairs r, 1/conj r, roots
    # outside, and unpaired r, u/conj r with u on the circle but 1 (|p(0)|
    # = |a_n| for each such factor, the singular case of a Schur-Cohn
    # recursion) beside roots inside: every such p is counted
    assume(all(not r.is_zero for r in paired + [r for r, _ in unpaired]))
    roots = inside + paired + [G(1) / r.conjugate() for r in paired] + circle + outside
    roots += [x for r, u in unpaired for x in (r, u / r.conjugate())]
    count = realalg.disk_zero_count(from_roots(roots))
    assert count == sum(gauss(r).abs2() < 1 for r in roots)


def test_disk_zero_count_examples():
    assert realalg.disk_zero_count(ONE) == 0
    assert realalg.disk_zero_count((G(0), G(1))) == 1  # z
    assert realalg.disk_zero_count(from_roots([F(1, 2), F(1, 3), 4])) == 2
    assert realalg.disk_zero_count(from_roots([G(0, F(1, 2)), G(F(-1, 2), F(1, 2))])) == 2
    # 1 - z^2/4 and z^3 (1 - z/5): no zero inside, and three at 0
    assert realalg.disk_zero_count(from_roots([2, -2])) == 0
    assert realalg.disk_zero_count(from_roots([0, 0, 0, 5])) == 3


@pytest.mark.parametrize("p, count", [
    ((), None), (from_roots([1]), 0), (from_roots([G(0, 1), F(1, 2)]), 1),
    (from_roots([F(1, 2), 2]), 1), ((G(1), G(0), G(1)), 0), (from_roots([-1, -1, F(1, 3)]), 1),
    (from_roots([F(1, 2), F(1, 3), 3]), 2),
], ids=[f"p{k}" for k in range(7)])
def test_disk_zero_count_singular(p, count):
    # the polynomials on which a Schur-Cohn recursion alone is singular: a
    # root on the circle, or gamma = 0 on the way (a pair r, 1/conj r: the
    # last p has 1/3 and 3).  The Cauchy index counts them all, and only
    # the zero polynomial is left without a count
    assert realalg.disk_zero_count(p) == count


@settings(max_examples=150, deadline=None)
@given(roots=st.lists(st.tuples(st.one_of(in_disk, out_disk, st.sampled_from(CIRCLE)),
                                st.integers(1, 3)), min_size=1, max_size=4),
       lead=gaussian.filter(bool))
def test_disk_zero_count_with_repeated_roots(roots, lead):
    # roots of multiplicity up to 3 inside, on and outside the circle: each
    # counts with its multiplicity, those on the circle through the gcd
    # chain of g = gcd(A, B)
    p = from_roots([r for r, m in roots for _ in range(m)], lead)
    assert realalg.disk_zero_count(p) == sum(m for r, m in roots if gauss(r).abs2() < 1)


def test_disk_zero_count_keeps_its_coefficients_small():
    # prod (1 - c_k z), c_k = (20000+k)/(20001+k): 24 zeros just outside the
    # circle, with 5-digit numerators and denominators.  Each remainder is
    # divided by its content; without that the pseudo-remainders' digits
    # multiply at each step, and the count takes over a minute
    p = ONE
    for k in range(1, 25):
        p = tuple(coeff_product(p, (G(1), -G(F(20000 + k, 20001 + k))), len(p)))
    start = time.perf_counter()
    assert realalg.disk_zero_count(p) == 0
    assert time.perf_counter() - start < 2.0


def test_disk_zero_count_counts_an_unpaired_gamma_0():
    # (z - 2)(z - i/2): |p(0)| = |a_2| with no root on the circle and no
    # pair, where a Schur-Cohn recursion stops at once; counted exactly,
    # also beside a double root on the circle
    assert realalg.disk_zero_count(from_roots([2, G(0, F(1, 2))])) == 1
    assert realalg.disk_zero_count(from_roots([2, G(0, F(1, 2)), 1, 1])) == 1


# -- Re(a/d) >= 0 on the disk --------------------------------------------------

def test_re_nonnegative_examples():
    # (1 + z)/(1 - z) maps the disk onto the right half-plane, with a pole
    # on the circle, and -(1 + z)/(1 - z) onto the left one; 1 + 2z is
    # negative near z = -1
    one_plus, one_minus = (G(1), G(1)), (G(1), G(-1))
    assert realalg.re_nonnegative(one_plus, one_minus)
    assert not realalg.re_nonnegative((G(-1), G(-1)), one_minus)
    assert realalg.re_nonnegative(one_plus, ONE)
    assert not realalg.re_nonnegative((G(1), G(2)), ONE)
    # i (1 + z)/(1 - z) is imaginary on the circle, and so is i itself
    assert not realalg.re_nonnegative((G(0, 1), G(0, 1)), one_minus)
    assert realalg.re_nonnegative((G(0, 1),), ONE)


def test_re_nonnegative_runs_no_witness_scan(monkeypatch):
    # the proof alone: where the circle sign fails, bounded_by_one scans the
    # circle polynomial's sign with _sign_at for a point, re_nonnegative
    # evaluates nothing
    def refuse(*args):
        raise AssertionError("_sign_at called")

    cases = [((G(1), G(2)), ONE), ((G(0, 1), G(0, 1)), (G(1), G(-1))),
             ((G(1), G(1)), (G(1), G(-1))), ((G(0, 1),), ONE)]
    want = [realalg.bounded_by_one(realalg.psub(a, d), realalg.psub(a, [-c for c in d]))[0]
            for a, d in cases]
    monkeypatch.setattr(realalg, "_sign_at", refuse)
    assert [realalg.re_nonnegative(a, d) for a, d in cases] == want == [
        False, False, True, True]
    with pytest.raises(AssertionError, match="_sign_at"):
        realalg.bounded_by_one((G(1), G(2)), ONE)


def test_disk_zero_count_of_a_constant_builds_no_cayley_image(monkeypatch):
    monkeypatch.setattr(realalg, "_int_cayley", None)
    assert [realalg.disk_zero_count(p) for p in [ONE, (G(0, F(-2, 3)),), (G(5), G(0))]] == [
        0, 0, 0]
    assert realalg.disk_zero_count(()) is None and realalg.disk_zero_count((G(0),)) is None


def test_peval_is_horner():
    p = (G(1), G(0, 2), G(F(1, 3)))  # 1 + 2i z + z^2/3
    z = G(F(1, 2), -1)
    assert realalg.peval(p, z) == G(1) + G(0, 2) * z + z * z / 3
    assert realalg.peval((), z) == 0


@pytest.mark.parametrize("p, q, result", [
    ((G(0), G(1)), ONE, (True, None)),  # |z| <= 1
    ((G(0), G(1)), (G(2), G(-1)), (True, None)),  # z/(2 - z): 1 at z = 1 only
    ((G(0), G(F(10001, 10000))), ONE, (False, G(F(16383, 16384)))),  # found at z = 1
    ((G(0), G(1), G(1)), ONE, (False, G(F(3, 4)))),  # z (1 + z)
    ((G(0), G(0), G(-1)), ONE, (True, None)),  # -z^2: 1 on the whole circle
    ((G(0), G(F(1, 4))), (G(1), G(-2)), (False, None)),  # pole at 1/2, |p| < |q| on the circle
])
def test_bounded_by_one_examples(p, q, result):
    assert realalg.bounded_by_one(p, q) == result


_UNITS = (G(1), G(-1), G(0, 1), G(0, -1))


@st.composite
def monomials(draw):
    """(c, k, q0) for p = c z^k over q = q0, |c| = |q0| drawn often."""
    def nonzero(big):
        d = draw(st.sampled_from([1, 2, 3, 7]) | st.integers(1, big))
        a, b = draw(st.integers(-big, big)), draw(st.just(0) | st.integers(-big, big))
        assume(a or b)
        return G(F(a, d), F(b, d))

    q0 = nonzero(draw(st.sampled_from([12, 2 ** 70])))
    c = q0 * draw(st.sampled_from(_UNITS)) if draw(st.booleans()) else nonzero(12)
    return c, draw(st.integers(0, 5)), q0


@settings(max_examples=200, deadline=None)
@given(monomials())
def test_bounded_by_one_of_a_monomial_agrees_with_the_proof(t):
    # q0 with a trailing zero coefficient is not read as a constant, so it
    # takes the Cayley image and the witness scan; the monomial reads |c|
    # and |q0| off their triples, and a refusal goes on to the same scan
    c, k, q0 = t
    p = (G(0),) * k + (c,)
    calls = {"n": 0}
    circle = realalg._circle

    def counting_circle(*args):
        calls["n"] += 1
        return circle(*args)

    with mock.patch.object(realalg, "_circle", counting_circle):
        fast = realalg.bounded_by_one(p, (q0,))
        fast_calls, calls["n"] = calls["n"], 0
        slow = realalg.bounded_by_one(p, (q0, G(0)))
    assert calls["n"] == 1 and fast_calls == (0 if fast[0] else 1)
    assert fast == slow
    assert fast[0] == (c.abs2() <= q0.abs2())
    if not fast[0]:
        z1 = fast[1]
        assert z1.abs2() < 1 and realalg.peval(p, z1).abs2() > q0.abs2()


# -- the sign on the real line -----------------------------------------------

@settings(max_examples=200, deadline=None)
@given(roots=st.lists(st.tuples(st.fractions(min_value=-3, max_value=3, max_denominator=3),
                                st.integers(1, 3)), max_size=4),
       lead=st.sampled_from([F(-2), F(1, 3), F(5)]),
       complex_pair=st.booleans())
def test_nonnegative_against_a_rational_scan(roots, lead, complex_pair):
    # repeated roots of every multiplicity up to 3, and the sign scanned at
    # every root as well as between and beyond them, on a 1/24 grid
    p = (G(lead),)
    for r, m in roots:
        p = tuple(coeff_product(p, from_roots([r] * m), len(p) + m - 1))
    if complex_pair:  # t^2 + 1: no real root
        p = tuple(coeff_product(p, (G(1), G(0), G(1)), len(p) + 1))
    grid = {F(k, 24) for k in range(-5 * 24, 5 * 24 + 1)} | {r for r, _ in roots}
    scanned = all(at(p, x).re >= 0 for x in grid)
    assert realalg.nonnegative(p) == scanned


@settings(max_examples=200, deadline=None)
@given(roots=st.lists(st.tuples(st.fractions(min_value=-3, max_value=3, max_denominator=5),
                                st.integers(1, 4)), max_size=4, unique_by=lambda rm: rm[0]),
       lead=st.sampled_from([F(-3), F(-1, 2), F(1, 7), F(2)]),
       complex_pair=st.booleans())
def test_nonnegative_is_a_positive_lead_and_even_multiplicities(roots, lead, complex_pair):
    # prod (t - r_j)^m_j for distinct rational r_j, m_j <= 4 of both
    # parities, times t^2 + 1 or not: the alternating sum of the gcd
    # chain's counts is the number of real roots of odd multiplicity
    p = (G(lead),)
    for r, m in roots:
        p = tuple(coeff_product(p, from_roots([r] * m), len(p) + m - 1))
    if complex_pair:
        p = tuple(coeff_product(p, (G(1), G(0), G(1)), len(p) + 1))
    assert realalg.nonnegative(p) == (lead > 0 and all(m % 2 == 0 for _, m in roots))


def test_nonnegative_refuses_a_non_real_polynomial():
    # 1 + i t and i/3: their real parts alone, 1 and 0, are nonnegative
    for p in [(G(1), G(0, 1)), (G(0, F(1, 3)),)]:
        with pytest.raises(ValueError, match="real polynomial"):
            realalg.nonnegative(p)


def test_nonnegative_examples():
    square = from_roots([F(1, 2), F(1, 2), -1, -1])
    assert realalg.nonnegative(square)
    assert realalg.nonnegative(())  # 0 >= 0
    assert realalg.nonnegative((G(3),))
    assert not realalg.nonnegative((G(-3),))
    assert not realalg.nonnegative(from_roots([F(1, 2), F(1, 2), F(1, 2)]))
    assert not realalg.nonnegative(tuple(-c for c in square))
    # two simple roots 1e-6 apart, between which p dips below 0 by 2.5e-13
    assert not realalg.nonnegative(from_roots([F(1, 3), F(1, 3) + F(1, 10**6)]))


# -- Cayley ------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(p=st.lists(gaussian, max_size=6), extra=st.integers(0, 2),
       t=st.fractions(min_value=-5, max_value=5, max_denominator=7))
def test_cayley_is_p_on_the_circle(p, extra, t):
    n = len(p) - 1 + extra if p else extra
    got = at(realalg.cayley(p, n), t)
    z = G(1, t) / G(1, -t)
    assert got == G(1, -t) ** n * at(p, z)
    assert z.abs2() == 1


def test_cayley_refuses_a_short_degree():
    with pytest.raises(ValueError):
        realalg.cayley(from_roots([1, 2]), 1)


# -- division and squarefree factors -------------------------------------------

@settings(max_examples=100, deadline=None)
@given(factors=st.lists(st.tuples(st.lists(gaussian, min_size=1, max_size=2),
                                  st.integers(1, 3)), min_size=1, max_size=3))
def test_squarefree_factors_multiply_back(factors):
    p = ONE
    for roots, m in factors:
        for _ in range(m):
            p = tuple(coeff_product(p, from_roots(roots), len(p) + len(roots) - 1))
    back = ONE
    for a, m in realalg.squarefree(p):
        assert realalg.pgcd(a, tuple(c * n for n, c in enumerate(a) if n)) == ONE
        for _ in range(m):
            back = tuple(coeff_product(back, a, len(back) + len(a) - 2))
    assert back == p  # p is monic, and so is every factor


def times(*ps):
    out = ONE
    for p in ps:
        out = tuple(coeff_product(out, p, len(out) + len(p) - 2)) if p and out else ()
    return out


non_real = st.builds(G, small, small.filter(bool))


@settings(max_examples=150, deadline=None)
@given(common=st.lists(st.tuples(st.one_of(gaussian, non_real), st.integers(1, 3)), max_size=3),
       lead=non_real, x=st.lists(gaussian, max_size=5), y=st.lists(gaussian, max_size=4),
       repeated=st.lists(non_real, max_size=2))
def test_pgcd_against_euclid(common, lead, x, y, repeated):
    # a planted common factor lead * prod (z - r)^m with non-real
    # coefficients, times cofactors that may be zero, a constant or of
    # another degree, one of them with repeated roots of its own: the
    # subresultant sequence gives the monic gcd Euclid's algorithm gives
    c = from_roots([r for r, m in common for _ in range(m)], lead)
    a = times(c, tuple(x), from_roots(repeated * 2))
    b = times(c, tuple(y))
    want = monic_gcd(a, b)
    assert realalg.pgcd(a, b) == want == realalg.pgcd(b, a)
    assert realalg.pgcd(a, ()) == monic_gcd(a, ()) and realalg.pgcd((), ()) == ()
    if a and b:
        assert realalg.pdivmod(want, c)[1] == ()  # c divides the gcd


def test_pgcd_keeps_its_coefficients_small():
    # two products of degree 24, of non-real roots with denominators up to
    # 47, that share a cubic factor.  The subresultant sequence keeps
    # the coefficients of its remainders polynomial in size; dividing each
    # remainder by its integer content alone does not, and the gcd then
    # takes minutes
    cubic = from_roots([G(F(1, 2), F(1, 3)), G(F(-2, 5), F(3, 7)), G(F(3, 4), F(-1, 5))],
                       G(F(2, 3), -1))
    a = times(cubic, from_roots([G(F(k, k + 7), F(3, 2 * k + 5)) for k in range(1, 22)]))
    b = times(cubic, from_roots([G(F(-k, k + 5), F(2 * k + 1, 11)) for k in range(1, 22)],
                                G(1, 2)))
    start = time.perf_counter()
    assert realalg.pgcd(a, b) == realalg.pscale(cubic, G(1) / cubic[-1])
    assert time.perf_counter() - start < 2.0


def test_module_imports_no_numpy():
    # loaded without the package's __init__, which imports numpy
    package = str(Path(harmonic_atlas.__file__).resolve().parent)
    script = "\n".join((
        "import sys, types",
        "package = types.ModuleType('harmonic_atlas')",
        "package.__path__ = [sys.argv[1]]",
        "sys.modules['harmonic_atlas'] = package",
        "import harmonic_atlas.realalg",
        "print('numpy' in sys.modules)",
    ))
    out = subprocess.run([sys.executable, "-c", script, package], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
