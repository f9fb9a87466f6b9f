import numpy as np
import pytest

from cdelab import dynamics, linear
from cdelab.errors import NoEllipticPair

from conftest import random_states

MU = 2.0 ** 0.25


def test_matrix_c_rows():
    expected = np.array([[0.0, 1, 0, 0],
                         [0, 0, -1, 0],
                         [0, 0, 0, -2],
                         [1, 0, 0, 0]])
    np.testing.assert_array_equal(linear.matrix_c(), expected)


def test_jacobian_original_at_origin():
    j = linear.jacobian_at(np.zeros(4), chart="original")
    assert j[1, 0] == 0.25
    assert j[2, 2] == -1.0
    assert j[3, 3] == 1.0
    assert j[0, 1] == 1.0
    # all other entries of the two diagonal blocks vanish
    assert j[0, 0] == j[1, 1] == 0.0
    assert j[2, 3] == j[3, 2] == 0.0
    assert np.all(j[:2, 2:] == 0.0) and np.all(j[2:, :2] == 0.0)


@pytest.mark.parametrize("chart,field", [
    ("original", dynamics.vector_field),
    ("rotated", dynamics.rotated_vector_field),
])
def test_jacobian_matches_finite_differences(chart, field):
    pts = random_states(100, seed=11)
    h = 1e-5
    for p in pts.T:
        j = linear.jacobian_at(p, chart=chart)
        fd = np.zeros((4, 4))
        for col in range(4):
            e = np.zeros(4)
            e[col] = h
            fd[:, col] = (field(p + e) - field(p - e)) / (2 * h)
        err = np.abs(j - fd) / np.maximum(1.0, np.abs(fd))
        assert err.max() <= 1e-6


def test_eigenvalues_of_linearization():
    rep = linear.eigenvalues_4x4(linear.matrix_c())
    expected = [MU, -MU, 1j * MU, -1j * MU]
    for target in expected:
        assert min(abs(ev - target) for ev in rep.eigenvalues) <= 1e-10
    assert abs(rep.hyperbolic_mu - MU) <= 1e-10
    assert abs(rep.elliptic_omega - MU) <= 1e-10
    # quartic identity lambda^4 = 2
    assert max(abs(ev ** 4 - 2.0) for ev in rep.eigenvalues) <= 1e-10


def test_eigenvalues_identity_matrix():
    rep = linear.eigenvalues_4x4(np.eye(4))
    np.testing.assert_allclose(rep.eigenvalues, np.ones(4), rtol=0, atol=1e-12)


def test_eigenvalues_vieta_oracle():
    rng = np.random.default_rng(12)
    for _ in range(20):
        m = rng.standard_normal((4, 4))
        rep = linear.eigenvalues_4x4(m)
        scale = max(1.0, np.abs(rep.eigenvalues).max())
        assert abs(np.sum(rep.eigenvalues) - np.trace(m)) <= 1e-10 * scale
        assert abs(np.prod(rep.eigenvalues) - np.linalg.det(m)) <= 1e-10 * scale ** 4
        # closed under conjugation
        evs = sorted(rep.eigenvalues, key=lambda z: (z.real, z.imag))
        conj = sorted(np.conj(rep.eigenvalues), key=lambda z: (z.real, z.imag))
        np.testing.assert_allclose(evs, conj, rtol=0, atol=1e-12 * scale)


@pytest.mark.parametrize("point,chart", [
    (dynamics.P0, "original"),
    (dynamics.P_PLUS, "original"),
    (dynamics.P_MINUS, "original"),
    (dynamics.P_PLUS_ROTATED, "rotated"),
])
def test_hamiltonian_spectrum_symmetry(point, chart):
    # spectrum of the linearization at an equilibrium is symmetric under
    # lambda -> -lambda
    rep = linear.eigenvalues_4x4(linear.jacobian_at(point, chart))
    evs = sorted(rep.eigenvalues, key=lambda z: (round(z.real, 9), round(z.imag, 9)))
    neg = sorted(-rep.eigenvalues, key=lambda z: (round(z.real, 9), round(z.imag, 9)))
    np.testing.assert_allclose(evs, neg, rtol=0, atol=1e-9)


def test_lyapunov_period_values():
    rep = linear.eigenvalues_4x4(linear.matrix_c())
    assert abs(linear.lyapunov_period(rep) - 2.0 ** 0.75 * np.pi) <= 1e-10

    rot = np.zeros((4, 4))
    rot[0, 1], rot[1, 0] = 1.0, -1.0     # pair +/- i
    rot[2, 3], rot[3, 2] = 1.0, 1.0      # pair +/- 1
    assert abs(linear.lyapunov_period(linear.eigenvalues_4x4(rot)) - 2 * np.pi) <= 1e-12

    rot2 = np.zeros((4, 4))
    rot2[0, 1], rot2[1, 0] = 2.0, -2.0   # pair +/- 2i
    rot2[2, 3], rot2[3, 2] = 1.0, 1.0
    assert abs(linear.lyapunov_period(linear.eigenvalues_4x4(rot2)) - np.pi) <= 1e-12


def test_no_elliptic_pair_raises():
    with pytest.raises(NoEllipticPair):
        linear.lyapunov_period(linear.eigenvalues_4x4(np.diag([1.0, 2.0, -1.0, -2.0])))
