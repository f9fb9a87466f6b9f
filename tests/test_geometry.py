import warnings

import numpy as np
import pytest

from cdelab import geometry, homoclinic
from cdelab.errors import DegenerateProfile


def homoclinic_cylinder_profile(tmax=4.0, n=8001):
    prof = homoclinic.derived_profile()
    t = np.linspace(-tmax, tmax, n)
    u, _, a, b = prof(t)
    return geometry.RadialProfile(chart="cylinder", grid=t, u=u, f1=a, f2=b), t


# ----------------------------------------------------------------------
# Clifford algebra

def test_generators_anticommute_and_square():
    g = geometry.CLIFFORD_GENERATORS
    eye = np.eye(2)
    for i in range(3):
        np.testing.assert_allclose(g[i] @ g[i], -eye, atol=1e-16)
        np.testing.assert_allclose(g[i].conj().T, -g[i], atol=1e-16)
        for j in range(i + 1, 3):
            np.testing.assert_allclose(g[i] @ g[j] + g[j] @ g[i],
                                       np.zeros((2, 2)), atol=1e-16)


def test_clifford_zero_vector():
    phi = np.array([1.0 + 2j, -0.5j])
    assert np.all(geometry.clifford_mult(np.zeros(3), phi) == 0.0)


def test_clifford_relation_random():
    rng = np.random.default_rng(41)
    for _ in range(100):
        x = rng.standard_normal(3)
        phi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        xxphi = geometry.clifford_mult(x, geometry.clifford_mult(x, phi))
        np.testing.assert_allclose(xxphi, -np.dot(x, x) * phi, atol=1e-12)


def test_clifford_skew_adjoint_identity():
    # <phi, x.phi> imaginary, hence |(1-x).phi|^2 = (1+|x|^2)|phi|^2
    rng = np.random.default_rng(42)
    for _ in range(100):
        x = rng.standard_normal(3)
        phi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        ip = np.vdot(phi, geometry.clifford_mult(x, phi))
        assert abs(ip.real) <= 1e-12 * np.vdot(phi, phi).real
        lhs = np.linalg.norm(phi - geometry.clifford_mult(x, phi)) ** 2
        rhs = (1.0 + np.dot(x, x)) * np.linalg.norm(phi) ** 2
        assert abs(lhs - rhs) <= 1e-10 * rhs


# ----------------------------------------------------------------------
# closed-form profile

def test_closed_form_at_origin():
    phi0 = np.array([1.0, 0.0])
    U, Psi = geometry.ground_state_closed_form(1.0, np.zeros(3), phi0)
    assert abs(U - np.sqrt(2.0)) <= 1e-15
    assert abs(np.linalg.norm(Psi) - 2.0 * np.sqrt(2.0)) <= 1e-14


def test_closed_form_spinor_magnitude():
    rng = np.random.default_rng(43)
    phi0 = np.array([0.6, 0.8j])
    for _ in range(20):
        lam = rng.uniform(0.5, 2.0)
        x = rng.standard_normal(3)
        _, Psi = geometry.ground_state_closed_form(lam, x, phi0)
        w = 2.0 * lam / (lam ** 2 + np.dot(x, x))
        expect = w ** 3 * (1.0 + np.dot(x, x))
        assert abs(np.linalg.norm(Psi) ** 2 - expect) <= 1e-12 * expect


def test_closed_form_scalar_decay():
    U1, _ = geometry.ground_state_closed_form(1.0, np.array([100.0, 0, 0]),
                                              np.array([1.0, 0.0]))
    assert U1 <= 0.02


def test_closed_form_radial_pair_matches_clifford():
    # Psi = f1 gamma0 + (f2/r) x . gamma0 with the returned (f1, f2)
    lam, r = 1.3, 0.7
    x = np.array([0.0, 0.0, r])
    phi0 = np.array([1.0, 0.0])
    _, Psi = geometry.ground_state_closed_form(lam, x, phi0)
    profile = geometry.closed_form_profile(lam, [r])
    f1, f2 = profile.f1[0], profile.f2[0]
    recon = f1 * phi0 + (f2 / r) * geometry.clifford_mult(x, phi0)
    np.testing.assert_allclose(Psi, recon, atol=1e-14)
    assert abs(np.vdot(Psi, Psi).real
               - (f1 ** 2 + f2 ** 2)) <= 1e-12


# ----------------------------------------------------------------------
# transforms

def test_cylinder_image_of_closed_form_scalar():
    # the euclidean closed-form scalar maps to cosh^(-1/2) with amplitude 1
    t = np.linspace(-6.0, 6.0, 2001)
    cf = geometry.closed_form_profile(1.0, np.exp(-t))
    cyl = geometry.euclidean_to_cylinder(cf)
    np.testing.assert_allclose(cyl.u, np.cosh(np.sort(t)) ** -0.5, atol=1e-12)


def test_round_trip_identity():
    cyl, t = homoclinic_cylinder_profile(tmax=6.0, n=1201)
    euc = geometry.cylinder_to_euclidean(cyl)
    back = geometry.euclidean_to_cylinder(euc)
    assert np.max(np.abs(back.u - cyl.u)) <= 1e-12
    assert np.max(np.abs(back.f1 - cyl.f1)) <= 1e-12
    assert np.max(np.abs(back.f2 - cyl.f2)) <= 1e-12
    euc2 = geometry.cylinder_to_euclidean(back)
    assert np.max(np.abs(np.sort(euc2.u) - np.sort(euc.u))) <= 1e-12


def test_zero_profile_transforms_to_zero():
    t = np.linspace(-2.0, 2.0, 101)
    z = np.zeros_like(t)
    cyl = geometry.RadialProfile(chart="cylinder", grid=t, u=z, f1=z, f2=z)
    euc = geometry.cylinder_to_euclidean(cyl)
    assert np.all(euc.u == 0.0) and np.all(euc.f1 == 0.0)


def test_transport_keeps_the_profile_order():
    # r = e^{-t} node by node, in the profile's order (here decreasing t)
    cyl, t = homoclinic_cylinder_profile(tmax=2.0, n=101)
    flipped = geometry.RadialProfile(chart="cylinder", grid=t[::-1],
                                     u=cyl.u[::-1], f1=cyl.f1[::-1],
                                     f2=cyl.f2[::-1])
    euc = geometry.cylinder_to_euclidean(flipped)
    assert np.array_equal(euc.grid, np.exp(-t[::-1]))
    assert np.array_equal(euc.u, np.sqrt(1.0 / euc.grid) * cyl.u[::-1])
    assert np.array_equal(euc.f1, -cyl.f1[::-1] * (1.0 / euc.grid))
    assert np.array_equal(euc.f2, cyl.f2[::-1] * (1.0 / euc.grid))


@pytest.mark.parametrize("t_end", [-710.0, 710.0, 800.0])
def test_transport_rejects_radii_outside_float64(t_end):
    t = np.sort([t_end, 0.0, 0.5])
    one = np.ones(3)
    cyl = geometry.RadialProfile(chart="cylinder", grid=t, u=one, f1=one,
                                 f2=one)
    with warnings.catch_warnings():       # no overflow warning escapes
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"t in \[.*\]"):
            geometry.cylinder_to_euclidean(cyl)


# ----------------------------------------------------------------------
# coupling fit

def test_coupling_fit_on_transported_homoclinic():
    cyl, t = homoclinic_cylinder_profile()
    euc = geometry.cylinder_to_euclidean(cyl)
    fit = geometry.coupling_constant_fit(euc)
    assert abs(fit.kappa - 1.0) <= 1e-6
    assert fit.residual <= 1e-6


def test_coupling_fit_is_scale_free():
    # unweighted rows, the largest r dominated: kappa - 1 = -529.5 and
    # residual 1.0 here; with the r^(5/2) weights, -1.17e-7 and 1.85e-7
    cyl, t = homoclinic_cylinder_profile(tmax=20.0, n=40001)
    fit = geometry.coupling_constant_fit(geometry.cylinder_to_euclidean(cyl))
    assert abs(fit.kappa - 1.0) <= 1e-6
    assert fit.residual <= 1e-6


def test_coupling_fit_on_printed_closed_form():
    # the closed-form pair as written fits the scalar equation with a clean
    # constant, quantifying its coupling normalization gap (kappa = 3/8, not 1)
    t = np.linspace(-4.0, 4.0, 8001)
    cf = geometry.closed_form_profile(1.0, np.exp(-t)[::-1])
    fit = geometry.coupling_constant_fit(cf)
    assert fit.residual <= 1e-6
    assert abs(fit.kappa - 0.375) <= 1e-5


def test_coupling_fit_degenerate():
    t = np.linspace(-1.0, 1.0, 11)
    r = np.exp(-t)
    prof = geometry.RadialProfile(chart="euclidean", grid=r,
                                  u=np.exp(t / 2), f1=0 * t, f2=0 * t)
    with pytest.raises(DegenerateProfile):
        geometry.coupling_constant_fit(prof)


def test_coupling_fit_needs_nodes():
    r = np.array([0.5, 1.0, 2.0])
    prof = geometry.RadialProfile(chart="euclidean", grid=r, u=r, f1=r, f2=r)
    with pytest.raises(ValueError):
        geometry.coupling_constant_fit(prof)


# ----------------------------------------------------------------------
# sphere chart

def test_sphere_profile_poles_excluded_and_finite():
    cyl, t = homoclinic_cylinder_profile(tmax=6.0, n=1201)
    euc = geometry.cylinder_to_euclidean(cyl)
    sph, convention = geometry.euclidean_to_sphere(euc)
    assert sph.grid.min() > 0.0 and sph.grid.max() < np.pi
    assert np.all(np.isfinite(sph.u)) and np.all(np.isfinite(sph.f1))
    for key in ("conformal_factor", "scalar_weight", "spinor_weight", "schema"):
        assert key in convention


def test_sphere_equator_symmetry():
    # the closed-form profile is inversion symmetric (Kelvin weights), so its
    # sphere image is symmetric about the equator in u and in the spinor
    # density
    t = np.linspace(-5.0, 5.0, 1001)          # symmetric log grid
    cf = geometry.closed_form_profile(1.0, np.exp(-t))
    sph, _ = geometry.euclidean_to_sphere(cf)
    np.testing.assert_allclose(sph.u, sph.u[::-1], atol=1e-12)
    dens = sph.f1 ** 2 + sph.f2 ** 2
    np.testing.assert_allclose(dens, dens[::-1], atol=1e-12)


def test_sphere_image_of_homoclinic_is_constant():
    # the transported pulse has constant scalar sqrt(3/2) on the sphere
    cyl, t = homoclinic_cylinder_profile(tmax=6.0, n=1201)
    euc = geometry.cylinder_to_euclidean(cyl)
    sph, _ = geometry.euclidean_to_sphere(euc)
    np.testing.assert_allclose(sph.u, np.sqrt(1.5), atol=1e-12)


def test_best_fit_scale():
    t = np.linspace(-4.0, 4.0, 4001)
    cf = geometry.closed_form_profile(2.0, np.exp(-t)[::-1])
    assert abs(geometry.best_fit_scale(cf) - 2.0) <= 0.01
