import numpy as np

from cdelab import dynamics

from conftest import random_states

SQRT2 = np.sqrt(2.0)


def test_hamiltonian_pinned_values():
    assert dynamics.hamiltonian(np.zeros(4)) == 0.0
    assert dynamics.hamiltonian(dynamics.P_PLUS) == -0.125
    assert dynamics.hamiltonian(dynamics.P_MINUS) == -0.125
    assert dynamics.hamiltonian(np.array([0.0, 1.0, 0.0, 0.0])) == 0.5


def test_vector_field_pinned_values():
    # P0 is exactly representable; for P+/- the components 1/(2 sqrt 2) round,
    # leaving the field at the rounding floor of a^2 + b^2 - 1/4
    assert np.array_equal(dynamics.vector_field(np.zeros(4)), np.zeros(4))
    assert np.linalg.norm(dynamics.vector_field(dynamics.P_PLUS)) <= 1e-15
    np.testing.assert_allclose(dynamics.vector_field(np.array([1.0, 0, 0, 0])),
                               [0.0, 0.25, 0.0, 0.0], rtol=0, atol=0)


def test_vector_field_is_symplectic_gradient():
    # f = (dH/dv, -dH/du, dH/db, -dH/da), checked by central differences
    s = random_states(100, seed=2)
    h = 1e-5
    f = dynamics.vector_field(s)

    def dH(i):
        e = np.zeros((4, 1))
        e[i] = h
        return (dynamics.hamiltonian(s + e) - dynamics.hamiltonian(s - e)) / (2 * h)

    expected = np.stack([dH(1), -dH(0), dH(3), -dH(2)])
    err = np.abs(f - expected) / np.maximum(1.0, np.abs(expected))
    assert err.max() <= 1e-6


def test_rotation_pinned_and_roundtrip():
    np.testing.assert_allclose(dynamics.to_rotated(dynamics.P_PLUS),
                               [1.0, 0.0, 0.5, 0.0], rtol=0, atol=1e-16)
    assert np.array_equal(dynamics.to_rotated(np.zeros(4)), np.zeros(4))
    s = np.array([0.3, -0.1, 0.7, 0.2])
    np.testing.assert_allclose(dynamics.from_rotated(dynamics.to_rotated(s)), s,
                               rtol=0, atol=1e-15)


def test_time_reversal_swap():
    assert np.array_equal(dynamics.time_reversal_swap(dynamics.P_PLUS),
                          dynamics.P_PLUS)
    np.testing.assert_array_equal(
        dynamics.time_reversal_swap(np.array([1.0, 2.0, 3.0, 4.0])),
        [1.0, -2.0, 4.0, 3.0])
    # equivariance f(sigma s) = -sigma f(s)
    s = random_states(100, seed=5)
    lhs = dynamics.vector_field(dynamics.time_reversal_swap(s))
    rhs = -dynamics.time_reversal_swap(dynamics.vector_field(s))
    assert np.max(np.abs(lhs - rhs)) == 0.0


def test_spinor_view():
    assert dynamics.spinor_from_state(np.array([0.0, 0.0, 1.0, 0.0])) == 1.0
    assert dynamics.spinor_from_state(np.array([0.0, 0.0, 0.0, 1.0])) == 1j
    s = random_states(100, seed=6)
    for col in s.T:
        psi = dynamics.spinor_from_state(col)
        assert psi == complex(col[2], col[3])
        back = dynamics.state_from_spinor(col[0], col[1], psi)
        np.testing.assert_array_equal(back, col)


def test_equilibrium_catalog():
    eq = dynamics.equilibria()
    assert [name for name, _, _ in eq] == ["P0", "P+", "P-"]
    for _, point, _ in eq:
        assert np.linalg.norm(dynamics.vector_field(point)) <= 1e-15
    assert tuple(energy for _, _, energy in eq) == (0.0, -0.125, -0.125)
    # each state is a copy: writing to it leaves the module's points alone
    eq[1][1][0] = 2.0
    assert dynamics.P_PLUS[0] == 1.0
