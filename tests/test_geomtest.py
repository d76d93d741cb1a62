"""Grid-sampled certificates and falsifiers."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmonic_atlas import (
    AnalyticExpr, GaussRational, Grid, Poly, RZParams, Series, boundary_trace,
    catalog_ids, catalog_lookup, default_grid, dilatation_check, direction_convexity_probe,
    jacobian_min, m_theta_check, parse_any, parse_formula, rz_certificate, rz_search,
    starlike_derivative, u_class_margin,
)
from harmonic_atlas import geomtest, realalg, verify
from harmonic_atlas.analytic import RatFunc
from harmonic_atlas.shear import HarmonicMap
from oracles import rz_search_bruteforce

F = Fraction
TOL = 1e-9


def entry_map(eid, order=16):
    return catalog_lookup(eid).harmonic_map(order)


# -- jacobian -----------------------------------------------------------------

def test_jacobian_identity(grid):
    cert = jacobian_min(entry_map("identity"), grid)
    assert cert.margin == pytest.approx(1.0, abs=1e-12)


def test_jacobian_factorization_for_linear_dilatation(grid):
    # J = |h'|^2 (1 - |omega|^2) for omega = z: check against direct values
    fm = entry_map("f3_cv1", 32)
    cert = jacobian_min(fm, grid)
    zs = grid.points
    direct = np.abs(fm.h_prime(zs)) ** 2 * (1 - np.abs(zs) ** 2)
    assert cert.margin == pytest.approx(float(np.min(direct)), rel=1e-9)
    assert cert.margin > 0


def test_jacobian_not_sense_preserving(grid):
    fm = HarmonicMap(Series([0, 1], order=4), Series([0, 2], order=4),
                     parse_formula("2"),
                     h_expr=parse_formula("z"), g_expr=parse_formula("2z"))
    cert = jacobian_min(fm, grid)
    assert cert.margin == pytest.approx(-3.0, abs=1e-12)


def test_jacobian_positive_all_harmonic_entries(catalog):
    g99 = default_grid(32, 128, 0.99)
    for e in catalog:
        if e.omega is None:
            continue
        cert = jacobian_min(e.harmonic_map(16), g99)
        assert cert.margin > 0, e.id


# -- slope certificates ----------------------------------------------------------

PAPER_RZ_CASES = [
    # entry id, mu, nu, axis, reduced form evaluator
    ("hslits", 0.0, math.pi / 2, "real",
     lambda z: (1 - z * z) / (1 + z * z)),
    ("hslits_wide", 0.0, math.pi / 3, "real",
     lambda z: (1 - z * z) / (1 - z + z * z)),
    ("cardioid_r", 0.0, 2 * math.pi / 3, "real",
     lambda z: 1 - z ** 3),
    ("halfplane_avg", 0.0, 0.0, "real",
     lambda z: 0.5 * (1 + (1 - z) ** 2)),
    ("halfplane_avg", math.pi / 2, math.pi / 2, "imag",
     lambda z: 0.5 * (1 - z * z + (1 + z) / (1 - z))),
    ("vslits_avg", math.pi / 2, math.pi / 2, "imag",
     lambda z: 0.5 * (1 - z * z + (1 + z * z) / (1 - z * z))),
    ("parabola", 0.0, 0.0, "real",
     lambda z: 1 / (1 - z)),
]


@pytest.mark.parametrize("eid,mu,nu,axis,reduced", PAPER_RZ_CASES,
                         ids=[c[0] + "_" + c[3] for c in PAPER_RZ_CASES])
def test_rz_certificates_on_record(grid, eid, mu, nu, axis, reduced):
    cert = rz_certificate(catalog_lookup(eid).h, RZParams(mu, nu), axis, grid)
    assert cert.margin >= -TOL


@pytest.mark.parametrize("eid,mu,nu,axis,reduced", PAPER_RZ_CASES,
                         ids=[c[0] + "_" + c[3] for c in PAPER_RZ_CASES])
def test_rz_reduced_form_identity(eid, mu, nu, axis, reduced):
    # the full slope expression equals its simplified form at random points
    rng = np.random.default_rng(20240214)
    phi_prime = catalog_lookup(eid).h.derivative()
    zs = (rng.uniform(0.05, 0.9, 100)
          * np.exp(2j * np.pi * rng.uniform(0, 1, 100)))
    full = (np.exp(1j * mu) - 2 * math.cos(nu) * zs
            + np.exp(-1j * mu) * zs * zs) * phi_prime.eval(zs)
    want = full.real if axis == "real" else full.imag
    got = np.array([reduced(z) for z in zs]).real
    assert np.max(np.abs(want - got)) <= 1e-12


# the reduced forms above, exactly
PAPER_RZ_EXACT = {
    "hslits_real": "(1-z^2)/(1+z^2)",
    "hslits_wide_real": "(1-z^2)/(1-z+z^2)",
    "cardioid_r_real": "1-z^3",
    "halfplane_avg_real": "(1+(1-z)^2)/2",
    "halfplane_avg_imag": "(1-z^2+(1+z)/(1-z))/2",
    "vslits_avg_imag": "(1-z^2+(1+z^2)/(1-z^2))/2",
    "parabola_real": "1/(1-z)",
}
MU_NU_TEXT = {"0": 0.0, "pi/3": math.pi / 3, "pi/2": math.pi / 2,
              "2pi/3": 2 * math.pi / 3, "pi": math.pi}


def _same_quotient(a, b):
    p, q = a.rational_part(), b.rational_part()
    return p.num * q.den == q.num * p.den


@pytest.mark.parametrize("eid,mu,nu,axis,reduced", PAPER_RZ_CASES,
                         ids=[c[0] + "_" + c[3] for c in PAPER_RZ_CASES])
def test_exact_certificate_is_the_reduced_form_on_record(eid, mu, nu, axis, reduced):
    # verify proves each case at its (mu, nu) on record, and the witness R
    # is the reduced form, exactly
    witness = verify._rz_exact(catalog_lookup(eid).h, axis)
    assert (MU_NU_TEXT[witness["mu"]], MU_NU_TEXT[witness["nu"]]) == (mu, nu)
    assert _same_quotient(parse_any(witness["R"]),
                          parse_formula(PAPER_RZ_EXACT[f"{eid}_{axis}"]))


def test_exact_certificates_agree_with_the_float_oracle(verify_rz_calls):
    # every proved pair reads a margin >= -TOL_MARGIN on the default grid,
    # the witness R is the slope quantity there, and the lattice search
    # peaks at the same pair
    grid = default_grid()
    for phi, axis, _, _ in verify_rz_calls:
        witness = verify._rz_exact(phi, axis)
        params = RZParams(MU_NU_TEXT[witness["mu"]], MU_NU_TEXT[witness["nu"]])
        cert = rz_certificate(phi, params, axis, grid)
        assert cert.margin >= -geomtest.TOL_MARGIN, (axis, witness)
        r = parse_any(witness["R"]).eval(cert.witness)
        assert r.real == pytest.approx(cert.margin, rel=1e-9, abs=1e-12)
        assert rz_search(phi, axis, grid).params == params


def test_no_exact_certificate_for_a_direction_the_catalog_denies(catalog):
    # the 18 falsified directions of verify (each refuted by an exact
    # witness, verify._falsifier_exact) and every other entry's:
    # no pair proves the slope criterion where the map is not convex
    denied = [(e.h, axis) for e in catalog if e.is_conformal
              for axis in ("real", "imag") if getattr(e.expected, f"cv_{axis}") is False]
    assert len(denied) >= 18
    assert all(verify._rz_exact(h, axis) is None for h, axis in denied)


def test_hslits_trap_is_not_certified():
    # at (pi/2, pi/2) on the real axis R = i (1 - z^2)^2/(1 + z^2)^2 is
    # i w^2 with Re w > 0 on the disk: imaginary on the circle, so the
    # circle sign passes, but unbounded below inside (about -1,055 on the
    # default grid).  A + D has zeros in the disk, so the pair is not
    # proved, and the certificate is the one at (0, pi/2)
    h = catalog_lookup("hslits").h
    p = h.derivative().rational_part()
    quad = Poly([GaussRational(0, 1), 0, GaussRational(0, -1)])
    r = RatFunc(quad * p.num, p.den)
    assert realalg._nonnegative(realalg._circle(r.num.coeffs, r.den.coeffs))
    assert not realalg.re_nonnegative(r.num.coeffs, r.den.coeffs)
    cert = rz_certificate(h, RZParams(math.pi / 2, math.pi / 2), "real", default_grid())
    assert cert.margin < -1000
    assert verify._rz_exact(h, "real")["nu"] == "pi/2"
    assert verify._rz_exact(h, "real")["mu"] == "0"


def test_rz_search_finds_on_record_choice(grid):
    h = catalog_lookup("hslits_wide").h
    cert = rz_search(h, "real", grid)
    assert cert is not None
    assert cert.margin >= -TOL
    # one evaluation route: the single-choice certificate agrees bit for bit
    assert rz_certificate(h, cert.params, "real", grid) == cert


def test_rz_search_none_for_vslits_real(grid):
    assert rz_search(catalog_lookup("vslits").h, "real", grid) is None


def test_rz_search_identity(grid):
    assert rz_search(catalog_lookup("identity").h, "real", grid) is not None
    assert rz_search(catalog_lookup("identity").h, "imag", grid) is not None


def test_rz_search_matches_catalog_flags(catalog, grid):
    # certificate exists iff the entry is convex in that direction
    seen = set()
    for e in catalog:
        if not e.is_conformal or e.family in ("S1", "T3", "T5"):
            continue
        if e.id in seen:
            continue
        seen.add(e.id)
        for axis in ("real", "imag"):
            expected = getattr(e.expected, f"cv_{axis}")
            if expected is None:
                continue
            cert = rz_search(e.h, axis, grid)
            assert (cert is not None) == expected, (e.id, axis)


def same_certificate(got, want):
    """``rz_search``'s certificate against ``rz_search_bruteforce``'s tuple;
    two NaN margins count as equal."""
    if got is None or want is None:
        return got is None and want is None
    margin = got.margin == want[0] or (math.isnan(got.margin)
                                       and math.isnan(want[0]))
    return margin and (got.witness, got.params.mu, got.params.nu) == want[1:]


# the families of T32 and LEM42, whose conformal entries' h carry the
# slope certificates of ``verify all``
CERTIFIED_FAMILIES = ("S_Z", "T1", "T2")


@pytest.fixture(scope="module")
def verify_rz_calls():
    """(phi, axis, grid, kwargs) of the 24 slope certificates of ``verify
    all`` at order 16 on a 16x64 grid, in its order: h of each entry of
    T32's and LEM42's families, on each axis its flag calls convex.
    ``verify`` decides them exactly; the tests search these as its float
    oracle."""
    grid = verify.VerifyConfig(order=16, grid_radii=16, grid_angles=64).grid()
    calls = [(e.h, axis, grid, {}) for family in CERTIFIED_FAMILIES
             for e in map(catalog_lookup, catalog_ids(family))
             for axis in ("real", "imag") if getattr(e.expected, f"cv_{axis}")]
    assert len(calls) == 24
    return calls


def test_rz_search_matches_bruteforce_on_verify_calls(verify_rz_calls):
    # the default 4 x 6 lattice against the oracle's 96 x 48: every call
    # peaks at a classical (mu, nu) that both lattices hold
    for phi, axis, grid, kwargs in verify_rz_calls:
        assert same_certificate(rz_search(phi, axis, grid, **kwargs),
                                rz_search_bruteforce(phi, axis, grid, **kwargs))


def test_rz_search_matches_bruteforce_tie_and_none(grid):
    # identity: phi' = 1, many near-ties; parabola, imaginary: two lattice
    # points share the best margin bit for bit, and an infinite tol returns
    # it, so the first of the two must win; vslits, real: no certificate
    for eid, axis, tol in (("identity", "real", TOL), ("identity", "imag", TOL),
                           ("parabola", "imag", math.inf),
                           ("vslits", "real", TOL)):
        h = catalog_lookup(eid).h
        want = rz_search_bruteforce(h, axis, grid, tol=tol)
        assert same_certificate(rz_search(h, axis, grid, tol=tol), want), eid
        assert (want is None) == (eid == "vslits")


CONFORMAL_IDS = catalog_ids("S_Z") + catalog_ids("T1") + catalog_ids("T2")


@settings(max_examples=60, deadline=None)
@given(eid=st.sampled_from(CONFORMAL_IDS),
       axis=st.sampled_from(["real", "imag"]),
       radii=st.lists(st.floats(0.05, 0.999), min_size=1, max_size=4),
       angles=st.integers(1, 24),
       mu_steps=st.integers(1, 12), nu_steps=st.integers(1, 8))
def test_rz_search_matches_bruteforce_on_small_grids(eid, axis, radii, angles,
                                                     mu_steps, nu_steps):
    h = catalog_lookup(eid).h
    g = Grid(tuple(sorted(radii)), angles)
    assert same_certificate(
        rz_search(h, axis, g, mu_steps, nu_steps),
        rz_search_bruteforce(h, axis, g, mu_steps, nu_steps))


def test_rz_search_evaluates_phi_prime_once_per_map(monkeypatch,
                                                    verify_rz_calls):
    # `verify all` searches 5 of its 19 maps on both axes, one axis after
    # the other: the two searches share one evaluation of phi' on the grid,
    # and every certificate is the one an uncached search returns
    uncached = []
    for phi, axis, grid, kwargs in verify_rz_calls:
        geomtest._phi_prime.cache_clear()
        uncached.append(rz_search(phi, axis, grid, **kwargs))
    counted = {"n": 0}
    plain = AnalyticExpr.eval

    def counting_eval(self, z, check=True):
        counted["n"] += 1
        return plain(self, z, check)

    monkeypatch.setattr(AnalyticExpr, "eval", counting_eval)
    geomtest._phi_prime.cache_clear()
    shared = [rz_search(phi, axis, grid, **kwargs)
              for phi, axis, grid, kwargs in verify_rz_calls]
    assert len({id(phi) for phi, _, _, _ in verify_rz_calls}) == 19
    assert counted["n"] == 19
    assert shared == uncached


def test_rz_search_certificates_match_rz_certificate(verify_rz_calls):
    # one evaluation route: every certificate the search returns is the
    # single-choice certificate at its (mu, nu), bit for bit
    found = 0
    for phi, axis, grid, kwargs in verify_rz_calls:
        cert = rz_search(phi, axis, grid, **kwargs)
        if cert is not None:
            found += 1
            assert rz_certificate(phi, cert.params, axis, grid) == cert
    assert found > 0


class _StubPhi:
    """Stands in for phi: its derivative evaluates to the given values."""

    def __init__(self, values):
        self.values = values

    def derivative(self):
        return self

    def eval(self, zs):
        return self.values


STUB_VALUES = st.one_of(
    st.sampled_from([0j, 1 + 0j, -1 + 0j, 1j, -1j, 0.5 - 0.5j, 2 + 1j,
                     complex(math.nan, 0), complex(0, math.nan),
                     complex(math.inf, 0), complex(-math.inf, 1),
                     complex(1, math.inf)]),
    st.complex_numbers(max_magnitude=4),
)


@settings(max_examples=200, deadline=None)
@given(data=st.data(),
       radii=st.lists(st.floats(0.05, 0.999), min_size=1, max_size=3),
       angles=st.integers(1, 8),
       axis=st.sampled_from(["real", "imag"]),
       mu_steps=st.integers(1, 12), nu_steps=st.integers(1, 8),
       tol=st.sampled_from([TOL, math.inf]))
def test_rz_search_matches_bruteforce_on_stub_values(data, radii, angles, axis,
                                                     mu_steps, nu_steps, tol):
    # drawn phi' values: exact ties, NaN, +-inf, and NaN at the first point
    g = Grid(tuple(sorted(radii)), angles)
    values = np.array(data.draw(st.lists(STUB_VALUES, min_size=g.points.size,
                                         max_size=g.points.size)))
    phi = _StubPhi(values)
    with np.errstate(invalid="ignore", over="ignore"):
        got = rz_search(phi, axis, g, mu_steps, nu_steps, tol)
        want = rz_search_bruteforce(phi, axis, g, mu_steps, nu_steps, tol)
    assert same_certificate(got, want)


def test_rz_search_rejects_unknown_axis(grid):
    with pytest.raises(ValueError):
        rz_search(catalog_lookup("identity").h, "bogus", grid)


def test_rz_search_rejects_empty_mu_lattice(grid):
    with pytest.raises(ValueError):
        rz_search(catalog_lookup("identity").h, "real", grid, mu_steps=0)


def test_rz_search_rejects_empty_nu_lattice(grid):
    with pytest.raises(ValueError):
        rz_search(catalog_lookup("identity").h, "real", grid, nu_steps=0)


# -- convexity probe -----------------------------------------------------------------

FALSIFIER_CASES = [
    ("cardioid_r", "imag"), ("cardioid", "imag"),
    ("vslits_avg", "real"), ("vslits", "real"),
    ("hslits", "imag"), ("koebe", "imag"),
    ("hslits_wide", "imag"), ("hslits_wide_r", "imag"),
]


@pytest.mark.parametrize("eid,direction", FALSIFIER_CASES,
                         ids=[f"{a}_{b}" for a, b in FALSIFIER_CASES])
def test_probe_falsifies(eid, direction):
    fm = entry_map(eid)
    assert direction_convexity_probe(fm, direction, r=0.999, lines=64) is False


def test_probe_accepts_koebe_real():
    assert direction_convexity_probe(entry_map("koebe"), "real",
                                     r=0.999, lines=64) is True


def test_probe_falsifies_t4_imag_and_t2_both():
    for eid in ("t4_re_koebe_im_halfplane", "t4_conj_sq_plus"):
        assert direction_convexity_probe(entry_map(eid), "imag", r=0.999) is False
    for eid in ("hslits_wide_avg", "hslits_wide_avg_r"):
        for d in ("real", "imag"):
            assert direction_convexity_probe(entry_map(eid), d, r=0.999) is False


# -- starlikeness ------------------------------------------------------------------

def test_starlike_derivative_identity():
    fm = entry_map("identity")
    for t in (0.0, 1.0, 2.5):
        assert starlike_derivative(fm, t, 0.9) == pytest.approx(1.0, abs=1e-12)


def test_starlike_derivative_koebe_slit_direction():
    fm = entry_map("koebe")
    v = starlike_derivative(fm, math.pi, 0.9999)
    # oracle: Re{z k'(z)/k(z)} = Re{(1+z)/(1-z)} at z = -r
    r = 0.9999
    assert v == pytest.approx((1 - r) / (1 + r), rel=1e-6)
    assert v > 0


def test_starlike_refutation_f3():
    fm = entry_map("t4_re_koebe_im_halfplane", 32)
    ts = np.linspace(-math.pi / 2 + 0.1, math.pi / 2 - 0.1, 32)
    for t in ts:
        v = starlike_derivative(fm, float(t), 0.9999)
        ref = 2 * math.cos(t) / (-3 + math.cos(2 * t))
        assert abs(v - ref) <= 1e-3
        assert v < 0


# -- distortion class ------------------------------------------------------------------

def test_u_class_identity(grid):
    cert = u_class_margin(catalog_lookup("identity").h, grid)
    assert cert.margin == pytest.approx(1.0, abs=1e-12)


def test_u_class_all_integer_entries(grid):
    for eid in ("identity", "halfplane", "halfplane_r", "vslits", "hslits",
                "koebe", "koebe_r", "hslits_wide", "hslits_wide_r"):
        cert = u_class_margin(catalog_lookup(eid).h, grid)
        assert cert.margin >= -TOL, eid


def test_u_class_fails_for_t2(grid):
    for eid in ("hslits_wide_avg", "hslits_wide_avg_r"):
        cert = u_class_margin(catalog_lookup(eid).h, grid)
        assert cert.margin < 0, eid


# -- the g' = e^{i theta} z h' class -----------------------------------------------------

def theta_omega(theta):
    """The dilatation e^{i theta} z, for theta = 0 or pi."""
    return AnalyticExpr.rational(1 if theta == 0.0 else -1, Poly.var())


def test_m_theta_f3_and_f9(grid):
    c0 = m_theta_check(entry_map("t4_re_koebe_im_halfplane", 32), grid)
    assert c0.margin > 0
    cpi = m_theta_check(entry_map("t6_re_halfplane_im_koebe", 32), grid)
    assert cpi.margin > 0


def test_m_theta_margins_match_the_closed_form_at_4096_angles():
    # for f3 (theta = 0) and f9 (theta = pi), h' = 1/(1 - z)^3 and
    # Re(1 + z h''/h') + 1/2 = 1.5 (1 - r^2)/|1 - z|^2; before derivatives
    # were reduced to lowest terms the margin read -17.2 on this grid
    grid = default_grid(64, 4096)
    zs = grid.points
    want = np.min(1.5 * (1 - np.abs(zs) ** 2) / np.abs(1 - zs) ** 2)
    for eid in ("t4_re_koebe_im_halfplane", "t6_re_halfplane_im_koebe"):
        margin = m_theta_check(entry_map(eid, 64), grid).margin
        assert margin == pytest.approx(want, rel=1e-9), eid


@pytest.mark.parametrize("eid, theta", [("t4_re_koebe_im_halfplane", math.pi),
                                         ("t6_re_halfplane_im_koebe", 0.0)])
def test_m_theta_mismatch_for_the_wrong_sign(eid, theta):
    # f3 has g' = z h' and f9 has g' = -z h': each fails the other class,
    # g' = e^{i theta} z h'.  The other omega does not shear the source into
    # the closed forms, so the map drops its source and checks them at N
    fm = entry_map(eid).replace(omega=theta_omega(theta), source=None)
    assert not dilatation_check(fm)


def test_m_theta_mismatch_for_identity():
    for theta in (0.0, math.pi):
        assert not dilatation_check(entry_map("identity").replace(omega=theta_omega(theta)))


# -- boundary traces ---------------------------------------------------------------------

def test_trace_vslits_avg_matches_formula():
    # trace of z(2-z^2)/(2(1-z^2)) approaches cos/2 + i(sin/2 + 1/(4 sin))
    fm = entry_map("vslits_avg")
    n = 2048
    tr = boundary_trace(fm, 0.9999, n)
    theta = 2 * np.pi * np.arange(n) / n
    keep = np.abs(np.sin(theta)) > math.sin(0.1)
    ref = (np.cos(theta) / 2
           + 1j * (np.sin(theta) / 2 + 1 / (4 * np.sin(np.where(keep, theta, 1.0)))))
    assert np.max(np.abs(tr[keep] - ref[keep])) <= 5e-3


def test_trace_parabola_residual_with_analytic_band():
    # the image boundary is 8u + 16v^2 + 3 = 0; at r = 0.9999 the residual
    # of the trace is below 1e-2 once the pole-adjacent arc |theta| < 0.75
    # is excluded (the residual grows like (1-r)/sin^4(theta/2))
    fm = entry_map("parabola")
    n = 4096
    tr = boundary_trace(fm, 0.9999, n)
    theta = np.angle(np.exp(2j * np.pi * np.arange(n) / n))
    keep = np.abs(theta) > 0.75
    residual = np.abs(8 * tr.real + 16 * tr.imag ** 2 + 3)
    assert np.max(residual[keep]) <= 1e-2


def test_trace_offset_vslits_geometry():
    fm = entry_map("offset_vslits")
    n = 4096
    tr = boundary_trace(fm, 0.9999, n)
    theta = np.angle(np.exp(2j * np.pi * np.arange(n) / n))
    keep = (np.abs(theta) > 0.15) & (np.abs(np.abs(theta) - math.pi) > 0.15)
    assert np.max(np.abs(tr[keep].real - 0.25)) <= 1e-2
    assert np.min(np.abs(tr[keep].imag)) >= math.sqrt(3) / 4 - 1e-2


def test_trace_requires_interior_radius():
    with pytest.raises(ValueError):
        boundary_trace(entry_map("identity"), 1.0, 16)


# -- grid/params validation ---------------------------------------------------------------

def test_grid_validation():
    with pytest.raises(ValueError):
        Grid((0.5, 0.1), 8)
    with pytest.raises(ValueError):
        Grid((0.5, 1.5), 8)
    with pytest.raises(ValueError):
        RZParams(-1.0, 0.5)


def test_grid_rejects_empty_radii_and_angles():
    with pytest.raises(ValueError):
        Grid((), 8)
    with pytest.raises(ValueError):
        Grid((0.5,), 0)


def test_grid_points_are_read_only():
    # equal grids share one cached array: a write would corrupt them all
    with pytest.raises(ValueError):
        default_grid(4, 32).points[0] = 5
    assert default_grid(4, 32).points[0] == pytest.approx(0.999 / 4)
