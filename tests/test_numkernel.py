"""Exact series arithmetic, checked against independent oracles."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from harmonic_atlas import GaussRational, Series, ZeroConstantTerm, gauss
from oracles import GaussRational as FractionPair
from oracles import binomial_inverse_power, gaussian_long_division, long_division_series

F = Fraction


def S(*coeffs, order=None):
    return Series(coeffs, order=order)


# ---------------------------------------------------------------------------
# GaussRational
# ---------------------------------------------------------------------------

def test_gauss_field_ops():
    a = GaussRational(F(1, 2), F(-1, 3))
    b = GaussRational(F(2), F(1, 5))
    assert a + b == GaussRational(F(5, 2), F(-2, 15))
    assert (a * b) / b == a
    assert a - a == GaussRational(0)
    assert -a + a == 0


def test_gauss_conjugation_involution():
    a = GaussRational(F(3, 7), F(5, 2))
    assert a.conjugate().conjugate() == a
    assert (a * a.conjugate()).im == 0
    assert a.abs2() == F(9, 49) + F(25, 4)


def test_gauss_pow_and_i():
    i = GaussRational(0, 1)
    assert i ** 2 == -1
    assert i ** 4 == 1
    assert (1 + i) ** 2 == 2 * i


def test_gauss_literals():
    assert GaussRational(F(1, 2), F(-1, 3)).literal() == "1/2-1/3 i"
    assert GaussRational(3).literal() == "3"
    assert GaussRational(0, 1).literal() == "i"
    cases = {(0, 0, 1): "0", (-6, 0, 4): "-3/2", (0, -7, 7): "-i",
             (2, 3, 3): "2/3+i", (-2, -3, 3): "-2/3-i", (0, -4, 6): "-2/3 i",
             (1, -4, 6): "1/6-2/3 i", (9, 6, 3): "3+2 i"}
    for (a, b, d), text in cases.items():
        assert GaussRational(F(a, d), F(b, d)).literal() == text


# ---------------------------------------------------------------------------
# GaussRational against the Fraction-pair reference in tests/oracles.py
# ---------------------------------------------------------------------------

BIG = 2 ** 70  # numerators and denominators well past 64 bits
rationals = st.one_of(
    st.just(0),
    st.integers(-6, 6),
    st.integers(-BIG, BIG),
    st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12)),
    st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG)),
)
parts = st.one_of(st.tuples(rationals, rationals),
                  st.tuples(st.just(0), rationals),   # purely imaginary
                  st.tuples(rationals, st.just(0)))   # real


def _lowest_terms(z):
    a, b, d = z._a, z._b, z._d
    assert all(type(v) is int for v in (a, b, d)), z
    assert d > 0 and math.gcd(a, b, d) == 1, (a, b, d)


def _same(z, ref):
    """z (triple) and ref (Fraction pair) hold the same value and show it
    the same way: parts, hash, complex() bits, text."""
    assert isinstance(z, GaussRational), z
    _lowest_terms(z)
    assert type(z.re) is Fraction and type(z.im) is Fraction
    assert (z.re, z.im) == (ref.re, ref.im)
    assert hash(z) == hash(ref)
    c, r = complex(z), complex(ref)
    assert (c.real.hex(), c.imag.hex()) == (r.real.hex(), r.imag.hex())
    assert z.literal() == ref.literal() and str(z) == str(ref)
    assert repr(z) == repr(ref)
    assert (z.is_zero, z.is_real, bool(z)) == (ref.is_zero, ref.is_real, bool(ref))


def _result(op, *args):
    try:
        return op(*args)
    except ZeroDivisionError:
        return ZeroDivisionError


@settings(max_examples=300, deadline=None)
@given(parts, parts, rationals)
def test_gauss_matches_fraction_pair_reference(x, y, q):
    a, b = GaussRational(*x), GaussRational(*y)
    ra, rb = FractionPair(*x), FractionPair(*y)
    _same(a, ra)
    _same(b, rb)
    binary = (lambda u, v: u + v, lambda u, v: u - v,
              lambda u, v: u * v, lambda u, v: u / v)
    for op in binary:
        # GaussRational pairs, then an int or Fraction on either side
        for u, v, ru, rv in ((a, b, ra, rb), (a, q, ra, q), (q, a, q, ra)):
            got, want = _result(op, u, v), _result(op, ru, rv)
            if want is ZeroDivisionError:
                assert got is ZeroDivisionError
            else:
                _same(got, want)
    _same(-a, -ra)
    _same(a.conjugate(), ra.conjugate())
    _same(a ** 3, ra ** 3)
    assert type(a.abs2()) is Fraction and a.abs2() == ra.abs2()
    assert (a == b) == (ra == rb) and (a != b) == (ra != rb)
    assert (a == q) == (ra == q) and (q == a) == (q == ra)
    assert (a == a.re) == (ra == ra.re)
    if isinstance(q, int):
        assert (a == Fraction(q)) == (ra == Fraction(q))
    if a.is_real:
        assert a == a.re and hash(a) == hash(a.re)
        if a.re.denominator == 1:
            assert a == a.re.numerator and hash(a) == hash(a.re.numerator)
    _same(GaussRational(q), FractionPair(q))


@settings(max_examples=200, deadline=None)
@given(st.lists(parts, min_size=1, max_size=12))
def test_antiderivative_matches_fraction_pair_reference(xs):
    # coefficient n + 1 of the integral is c_n / (n + 1), the same value
    # in lowest terms as the reference's division
    anti = Series([GaussRational(*x) for x in xs]).antiderivative()
    want = [FractionPair(0)] + [FractionPair(*x) / (n + 1)
                                for n, x in enumerate(xs)]
    assert anti.order == len(xs)
    for got, ref in zip(anti.coeffs, want, strict=True):
        _same(got, ref)


@settings(max_examples=200, deadline=None)
@given(st.lists(parts, min_size=1, max_size=12))
def test_derivative_matches_termwise_product(xs):
    # coefficient n - 1 of the derivative is c_n * n, the same triple as
    # the product built through GaussRational.__mul__; order 0 included
    s = Series([GaussRational(*x) for x in xs])
    want = [c * n for n, c in enumerate(s.coeffs[1:], 1)] or [GaussRational(0)]
    got = s.derivative()
    assert got.order == max(s.order - 1, 0)
    for g, w in zip(got.coeffs, want, strict=True):
        _lowest_terms(g)
        assert (g._a, g._b, g._d) == (w._a, w._b, w._d)


def test_gauss_triple_edge_cases():
    zero = GaussRational(0)
    assert (zero._a, zero._b, zero._d) == (0, 0, 1)
    assert GaussRational(F(1, 2), F(1, 2)) - GaussRational(F(1, 2), F(1, 2)) == 0
    third = GaussRational(F(2, 6), F(-4, 6))
    assert (third._a, third._b, third._d) == (1, -2, 3)
    # same denominator, common factor appearing only in the sum
    s = GaussRational(F(1, 4), F(1, 4)) + GaussRational(F(1, 4), F(3, 4))
    assert (s._a, s._b, s._d) == (1, 2, 2)
    with pytest.raises(ZeroDivisionError):
        GaussRational(1, 1) / GaussRational(0)
    with pytest.raises(TypeError):
        GaussRational(0.5)
    with pytest.raises(TypeError):
        gauss(0.5)
    with pytest.raises(TypeError):
        GaussRational(F(1, 3)) * 1.5  # floats stay outside the exact kernel
    assert GaussRational(1) != 1.0 and FractionPair(1) != 1.0
    one, nil = GaussRational(True), GaussRational(False)
    assert (one._a, one._b, one._d) == (1, 0, 1) and type(one._a) is int
    assert (nil._a, nil._b, nil._d) == (0, 0, 1)


# literal() writes (a, b, d) as the Fraction formula of the reference writes
# its two parts; d = 1, a = 0, b = +-d (printed "i") and signs drawn often
@st.composite
def triples(draw):
    d = draw(st.one_of(st.just(1), st.integers(1, 60), st.integers(1, BIG)))
    a = draw(st.one_of(st.just(0), st.integers(-60, 60), st.integers(-BIG, BIG)))
    b = draw(st.one_of(st.just(0), st.sampled_from([d, -d]),
                       st.integers(-60, 60), st.integers(-BIG, BIG)))
    return a, b, d


@settings(max_examples=400, deadline=None)
@given(triples())
def test_literal_matches_fraction_formula(t):
    a, b, d = t
    z = GaussRational(F(a, d), F(b, d))
    assert z.literal() == FractionPair(F(a, d), F(b, d)).literal() == str(z)


# ---------------------------------------------------------------------------
# Series kernel (products, quotients, combinations) against the Fraction-pair
# reference and the long-division oracle
# ---------------------------------------------------------------------------

# coefficient lists with zeros, negative, purely imaginary and unequal
# denominators, of unequal lengths (mixed orders)
kernel_coeffs = st.lists(st.one_of(parts, st.just((0, 0))), min_size=1, max_size=9)


def _ref_coeffs(xs):
    return [FractionPair(*x) for x in xs]


@settings(max_examples=200, deadline=None)
@given(kernel_coeffs, kernel_coeffs)
def test_mul_matches_fraction_pair_reference(xs, ys):
    got = Series([GaussRational(*x) for x in xs]) * Series([GaussRational(*y) for y in ys])
    a, b = _ref_coeffs(xs), _ref_coeffs(ys)
    n = min(len(a), len(b)) - 1
    want = []
    for m in range(n + 1):
        acc = FractionPair(0)
        for j in range(m + 1):
            acc = acc + a[j] * b[m - j]
        want.append(acc)
    assert got.order == n
    for z, ref in zip(got.coeffs, want, strict=True):
        _same(z, ref)


@settings(max_examples=200, deadline=None)
@given(kernel_coeffs, kernel_coeffs)
def test_division_and_reciprocal_match_long_division_oracle(xs, ys):
    assume(any(ys[0]))
    num, den = Series([GaussRational(*x) for x in xs]), Series([GaussRational(*y) for y in ys])
    n = min(num.order, den.order)
    for got, top, order in ((num / den, xs, n), (den.reciprocal(), [(1, 0)], den.order)):
        want = gaussian_long_division(top, ys[: order + 1], order)
        assert got.order == order
        for z, ref in zip(got.coeffs, want, strict=True):
            _same(z, FractionPair(*ref))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(parts, kernel_coeffs), min_size=1, max_size=4))
def test_combination_matches_fraction_pair_reference(terms):
    cs = [GaussRational(*c) for c, _ in terms]
    got = Series.combination(cs, [Series([GaussRational(*x) for x in xs]) for _, xs in terms])
    n = min(len(xs) for _, xs in terms) - 1
    assert got.order == n
    for m, z in enumerate(got.coeffs):
        ref = FractionPair(0)
        for c, xs in terms:
            ref = ref + FractionPair(*c) * FractionPair(*xs[m])
        _same(z, ref)


def test_combination_needs_a_series():
    with pytest.raises(ValueError):
        Series.combination([], [])
    assert Series.combination([F(1, 2), 2], [S(1, 2), S(4, 0, 1)]) == S(F(17, 2), 1)


# ---------------------------------------------------------------------------
# Series: spec'd operation examples
# ---------------------------------------------------------------------------

def test_add_cancellation():
    one_plus = S(1, 1, order=8)
    one_minus = S(1, -1, order=8)
    assert one_plus + one_minus == S(2, order=8)


def test_add_identity():
    geo = Series([1] * 9)
    assert geo + Series.zero(8) == geo


def test_add_shifted_koebe_pattern():
    # z/(1-z)^2 + z/(1-z) has coefficients n + 1 for n >= 1: twice the
    # analytic part of the half-integer map built from the half-plane map.
    koebe = Series([n for n in range(11)])
    halfplane = Series([0] + [1] * 10)
    total = koebe + halfplane
    assert [total.coeff(n) for n in range(1, 11)] == [gauss(n + 1) for n in range(1, 11)]


def test_mul_geometric_inverse():
    one_minus = S(1, -1, order=10)
    geo = Series([1] * 11)
    assert one_minus * geo == Series.one(10)


def test_mul_monomials():
    z = Series([0, 1], order=4)
    assert z * z == S(0, 0, 1, order=4)


def test_mul_against_long_division_oracle():
    # (1 - z + z^2) * series(z / (1 - z + z^2)) == z
    den = [F(1), F(-1), F(1)]
    div = long_division_series([F(0), F(1)], den, 12)
    s = Series(div)
    assert Series(den, order=12) * s == Series([0, 1], order=12)


def test_reciprocal_geometric():
    assert S(1, -1, order=10).reciprocal() == Series([1] * 11)


def test_reciprocal_binomial_oracle():
    # 1/(1+z)^2 from the reciprocal of (1 + 2z + z^2)
    rec = S(1, 2, 1, order=12).reciprocal()
    assert list(rec.coeffs) == [gauss(c) for c in binomial_inverse_power(1, 2, 12)]


def test_reciprocal_of_phi_prime_long_division_oracle():
    # phi = z/(1 - z + z^2); 1/phi' = (1 - z + z^2)^2 / (1 - z^2)
    num = [F(1), F(-2), F(3), F(-2), F(1)]
    den = [F(1), F(0), F(-1)]
    expected = long_division_series(num, den, 10)
    phi_prime = Series(long_division_series([F(1), F(0), F(-1)],
                                            [F(1), F(-2), F(3), F(-2), F(1)], 10))
    assert list(phi_prime.reciprocal().coeffs) == [gauss(c) for c in expected]
    assert expected[:5] == [F(1), F(-2), F(4), F(-4), F(5)]


def test_reciprocal_zero_constant_term():
    with pytest.raises(ZeroConstantTerm):
        Series([0, 1], order=4).reciprocal()


# ---------------------------------------------------------------------------
# Series division: one sparse triangular kernel
# ---------------------------------------------------------------------------

def _pairs(coeffs):
    return [c if isinstance(c, tuple) else (c, 0) for c in coeffs]


def _gauss_list(pairs):
    return [GaussRational(a, b) for a, b in pairs]


_DIVISION_CASES = [
    # (numerator, denominator), coefficients as ints, Fractions or (re, im)
    ([0, 1], [1, -1, 1]),                       # hslits_wide, sparse
    ([1, 0, -1], [1, -2, 3, -2, 1]),            # phi' of hslits_wide, sparse
    ([0, 1, F(-1, 2)], [1, -2, 1]),             # (1 - z)^2
    ([2, 0, 0, 0, 1], [1, 0, 0, 1]),            # 1 + z^3: zeros inside the band
    ([(0, 1), (1, -2)], [(1, 1), 0, (0, F(-1, 3))]),   # non-real, sparse
    # dense denominators: every coefficient up to the order is nonzero
    ([1, 1], [F(1, 2 ** k) for k in range(17)]),
    ([(1, 2), (F(-1, 3), 1), 5],
     [(F(k + 1, 3), F(k % 4 - 2, k + 1)) for k in range(17)]),
]


@pytest.mark.parametrize("num, den", _DIVISION_CASES)
def test_division_matches_long_division_oracle(num, den):
    order = 16
    quotient = Series(_gauss_list(_pairs(num)), order=order) / Series(
        _gauss_list(_pairs(den)), order=order)
    expected = gaussian_long_division(_pairs(num), _pairs(den), order)
    assert list(quotient.coeffs) == _gauss_list(expected)


def test_division_zero_constant_term():
    with pytest.raises(ZeroConstantTerm, match="division by a series with zero constant term"):
        Series.one(6) / Series([0, 1], order=6)
    assert Series.__truediv__(Series.one(6), 2) is NotImplemented


def test_mul_zero_heavy_matches_dense_convolution():
    rng = random.Random(7)
    for _ in range(20):
        sides = []
        for order in (rng.randint(0, 24), rng.randint(0, 24)):
            sides.append([GaussRational(F(rng.randint(-3, 3), rng.randint(1, 3)),
                                        rng.randint(-2, 2))
                          if rng.random() < 0.2 else GaussRational(0)
                          for _ in range(order + 1)])
        a, b = sides
        n = min(len(a), len(b)) - 1
        dense = []
        for k in range(n + 1):
            acc = GaussRational(0)
            for j in range(k + 1):
                acc = acc + a[j] * b[k - j]
            dense.append(acc)
        assert Series(a) * Series(b) == Series(dense)


def test_derivative_basic():
    assert S(0, 1, F(-1, 2), order=4).derivative() == S(1, -1, order=3)


def test_derivative_matches_binomial_cube():
    # d/dz of the series with coefficients (n+1)/2 equals 1/(1-z)^3
    h = Series([F(n + 1, 2) for n in range(13)])
    cube = [gauss(c) for c in binomial_inverse_power(-1, 3, 11)]
    assert list(h.derivative().coeffs) == cube


def test_derivative_of_constant_is_zero():
    assert S(5, order=0).derivative() == Series.zero(0)


def test_antiderivative_log_series():
    # integral of 1/(1-t) has coefficients 1/n
    geo = Series([1] * 8)
    anti = geo.antiderivative()
    assert anti.coeff(0) == 0
    assert [anti.coeff(n) for n in range(1, 9)] == [gauss(F(1, n)) for n in range(1, 9)]


def test_antiderivative_inverse_square_half():
    # integral of 1/(1-t)^3 = (1/2)((1-z)^-2 - 1): coefficients (n+1)/2
    cube = Series(binomial_inverse_power(-1, 3, 9))
    anti = cube.antiderivative()
    assert [anti.coeff(n) for n in range(1, 11)] == [gauss(F(n + 1, 2)) for n in range(1, 11)]


def test_antiderivative_of_one():
    assert Series.one(3).antiderivative() == S(0, 1, order=4)


def test_truncation_to_min_order():
    a = Series([1] * 9)   # order 8
    b = Series([1] * 5)   # order 4
    assert (a + b).order == 4
    assert (a * b).order == 4


def test_kernel_results_skip_coercion(monkeypatch):
    # the public constructor coerces every coefficient; results of the
    # kernel's own arithmetic are GaussRational already and are not coerced
    from harmonic_atlas import numkernel

    a = Series([F(k, 3) for k in range(7)])
    b = Series([1, -1, GaussRational(0, 1)], order=6)
    assert all(type(c) is GaussRational for c in a.coeffs + b.coeffs)
    calls = []
    plain = numkernel.gauss
    monkeypatch.setattr(numkernel, "gauss", lambda x: calls.append(x) or plain(x))
    results = [a + b, a - b, -a, a * b, a / b, a.derivative(), a.antiderivative(),
               a.truncate(3)]
    assert calls == []
    results.append(a.scale(2))
    assert calls == [2]  # the scalar only
    assert results[-1] == a + a
    for s in results:
        assert type(s.coeffs) is tuple
        assert all(type(c) is GaussRational for c in s.coeffs)
    with pytest.raises(TypeError):
        Series([1.5])
    with pytest.raises(ValueError):
        Series([])


# ---------------------------------------------------------------------------
# Ring laws and round trips on random series (exact)
# ---------------------------------------------------------------------------

small_fracs = st.fractions(min_value=-4, max_value=4, max_denominator=6)
small_gauss = st.builds(GaussRational, small_fracs, small_fracs)
series6 = st.lists(small_gauss, min_size=7, max_size=7).map(Series)
series_mixed = st.lists(small_gauss, min_size=1, max_size=10).map(Series)


@settings(max_examples=60, deadline=None)
@given(series_mixed, series_mixed)
def test_division_is_product_with_reciprocal(a, b):
    assume(not b.coeff(0).is_zero)
    q = a / b
    assert q.order == min(a.order, b.order)
    assert q == a * b.reciprocal()
    assert q * b == a.truncate(q.order)


@settings(max_examples=60, deadline=None)
@given(series6, series6, series6)
def test_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None)
@given(series6)
def test_derivative_of_antiderivative_roundtrip(a):
    assert a.antiderivative().derivative() == a


def test_reciprocal_roundtrip_100_random_series():
    rng = random.Random(20240214)
    for _ in range(100):
        coeffs = [GaussRational(F(rng.randint(-5, 5), rng.randint(1, 4)),
                                F(rng.randint(-5, 5), rng.randint(1, 4)))
                  for _ in range(9)]
        if coeffs[0].is_zero:
            coeffs[0] = GaussRational(1)
        s = Series(coeffs)
        assert s * s.reciprocal() == Series.one(8)
