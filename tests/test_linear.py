import numpy as np
import pytest

from cdelab import dynamics, linear, orbits

from conftest import random_states


def test_matrix_c_rows():
    expected = np.array([[0.0, 1, 0, 0],
                         [0, 0, -1, -0.0],
                         [-0.0, 0, 0, -2],
                         [1, 0, 0, 0]])
    assert linear.matrix_c().tobytes() == expected.tobytes()


def test_jacobian_original_at_origin():
    j = linear.jacobian_at(np.zeros(4))
    assert j[1, 0] == 0.25
    assert j[2, 2] == -1.0
    assert j[3, 3] == 1.0
    assert j[0, 1] == 1.0
    # all other entries of the two diagonal blocks vanish
    assert j[0, 0] == j[1, 1] == 0.0
    assert j[2, 3] == j[3, 2] == 0.0
    assert np.all(j[:2, 2:] == 0.0) and np.all(j[2:, :2] == 0.0)


@pytest.mark.parametrize("field", [dynamics.vector_field],
                         ids=["original-vector_field"])
def test_jacobian_matches_finite_differences(field):
    pts = random_states(100, seed=11)
    h = 1e-5
    for p in pts.T:
        j = linear.jacobian_at(p)
        fd = np.zeros((4, 4))
        for col in range(4):
            e = np.zeros(4)
            e[col] = h
            fd[:, col] = (field(p + e) - field(p - e)) / (2 * h)
        err = np.abs(j - fd) / np.maximum(1.0, np.abs(fd))
        assert err.max() <= 1e-6


def test_matrix_c_is_the_rotated_linearization():
    # the rotation R is a linear involution, so the rotated chart's Jacobian
    # at P+ is R J(P+) R
    r = dynamics.to_rotated(np.eye(4))
    np.testing.assert_allclose(
        r @ linear.jacobian_at(dynamics.P_PLUS) @ r, linear.matrix_c(),
        rtol=0, atol=1e-15)


def test_characteristic_polynomial_is_lambda4_minus_2():
    np.testing.assert_allclose(np.poly(linear.matrix_c()), [1, 0, 0, 0, -2],
                               rtol=0, atol=1e-14)


def test_eigenvalues_of_linearization():
    evs = np.linalg.eigvals(linear.matrix_c())
    # LAPACK against the closed form
    mu = linear.OMEGA
    expected = [mu, -mu, 1j * mu, -1j * mu]
    for target in expected:
        assert min(abs(ev - target) for ev in evs) <= 1e-10
    # quartic identity lambda^4 = 2, and the limiting period of the family
    assert max(abs(ev ** 4 - 2.0) for ev in evs) <= 1e-10


def test_lyapunov_period_values():
    # the limiting period of the Lyapunov family is 2 pi over the elliptic
    # frequency at P+: from the LAPACK spectrum, and as orbits.T0
    evs = np.linalg.eigvals(linear.matrix_c())
    period = 2.0 * np.pi / np.max(np.abs(evs.imag))
    assert abs(period - 2.0 ** 0.75 * np.pi) <= 1e-10
    assert abs(orbits.T0 - 2.0 ** 0.75 * np.pi) <= 1e-12
    assert abs(orbits.T0 - period) <= 1e-10


@pytest.mark.parametrize(
    "point", [dynamics.P0, dynamics.P_PLUS, dynamics.P_MINUS],
    ids=["point0-original", "point1-original", "point2-original"])
def test_hamiltonian_spectrum_symmetry(point):
    # spectrum of the linearization at an equilibrium is symmetric under
    # lambda -> -lambda
    evs = np.linalg.eigvals(linear.jacobian_at(point))
    key = lambda z: (round(z.real, 9), round(z.imag, 9))
    np.testing.assert_allclose(sorted(evs, key=key), sorted(-evs, key=key),
                               rtol=0, atol=1e-9)
