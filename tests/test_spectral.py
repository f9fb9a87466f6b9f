import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cdelab import dynamics, homoclinic, orbits, spectral
from cdelab.errors import NonConvergence, TruncationMismatch

SQ2 = np.sqrt(2.0)


def random_field(eps, K, seed, scale=0.5):
    """Random smooth real field with geometrically decaying coefficients."""
    rng = np.random.default_rng(seed)
    N = spectral.grid_size(K)
    t = spectral.grid(N)
    decay = np.exp(-0.4 * np.abs(np.arange(-K, K + 1)))

    def sample():
        c = decay * (rng.standard_normal(2 * K + 1)
                     + 1j * rng.standard_normal(2 * K + 1))
        return spectral.coeffs_to_values(c, N).real

    return spectral.field_from_values(
        eps, K, scale * np.stack([sample(), sample(), sample()]))


def constant_field(eps, K, state=dynamics.P0):
    """The field at eps with K modes that is constant at the equilibrium
    ``state`` (u, 0, a, b): the zero field at P0, the constant solution at
    P_PLUS."""
    x = np.zeros((3, 2 * K + 1))
    x[:, 0] = state[[0, 2, 3]]
    return spectral.PeriodicField(spectral.build_spectrum(eps, K), x.ravel())


def apply_A(f):
    """The packed linear part at f, the operator the solver runs: A_eps on
    the spinor, so the spinor views of the result are those of A_eps z."""
    return spectral.PeriodicField(f.spectrum,
                                  f.spectrum.gather(f.x, f.spectrum.linear_w))


def perturbed(f, h, delta):
    """f + delta h, one field of f's spectrum."""
    return spectral.PeriodicField(f.spectrum, f.x + delta * h.x)


# ----------------------------------------------------------------------
# transforms

@pytest.mark.parametrize("extra", [0, 1, 7])
def test_coeffs_to_values_matches_direct_sum(extra):
    # N = M is the coarsest grid: modes -K and K+1 wrap onto neighbouring slots
    K = 6
    M = 2 * K + 1
    N = M + extra
    rng = np.random.default_rng(extra)
    c = rng.standard_normal((M, 3)) + 1j * rng.standard_normal((M, 3))
    basis = np.exp(1j * np.pi * np.outer(spectral.grid(N), np.arange(-K, K + 1)))
    np.testing.assert_allclose(spectral.coeffs_to_values(c, N), basis @ c,
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(spectral.coeffs_to_values(c[:, 0], N),
                               basis @ c[:, 0], rtol=0, atol=1e-12)


def test_grid_size_is_the_smallest_even_5_smooth_size_above_4K():
    def smooth(n):
        for p in (2, 3, 5):
            while n % p == 0:
                n //= p
        return n == 1

    for K in range(1, 301):
        N = spectral.grid_size(K)
        assert N % 2 == 0 and N > 4 * K and smooth(N)
        assert not any(smooth(n) for n in range(4 * K + 2, N, 2))
    for K in (0, -1):
        with pytest.raises(ValueError, match="K >= 1"):
            spectral.grid_size(K)


@pytest.mark.parametrize("K", [16, 136, 256])
def test_packed_transforms_match_the_complex_transforms(K):
    # K + 1 = 17, 137 and 257 are prime
    f = random_field(0.1, K, seed=K)
    ops = f.spectrum
    x = f.x
    vals = ops.to_grid(x)
    assert vals.shape == (3, ops.N)
    c = np.column_stack([f.u_coeffs, f.z_ab_coeffs()])
    reference = spectral.coeffs_to_values(c, ops.N).real.T
    scale = np.max(np.abs(reference))
    assert np.max(np.abs(vals - reference)) <= 1e-14 * scale
    back = ops.to_packed(vals)
    assert np.max(np.abs(back - x)) <= 1e-14 * np.max(np.abs(x))
    # values off the band: the truncation of the complex transform
    v = np.random.default_rng(K).standard_normal((3, ops.N))
    expected = spectral.values_to_coeffs(v.T, K)
    g = spectral.PeriodicField(f.spectrum, ops.to_packed(v))
    got = np.column_stack([g.u_coeffs, g.z_ab_coeffs()])
    assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))


@st.composite
def packed_fields(draw):
    """A field of K <= 64 modes at eps in [0.02, 0.4] whose packed vector
    holds normal samples times 10^e, |e| <= 3."""
    K = draw(st.integers(1, 64))
    eps = draw(st.floats(0.02, 0.4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = rng.standard_normal(3 * (2 * K + 1)) * 10.0 ** draw(st.integers(-3, 3))
    return spectral.PeriodicField(spectral.build_spectrum(eps, K), x)


def ulps(n, a):
    """n units in the last place of the largest |entry| of a."""
    return n * np.spacing(np.max(np.abs(a)))


# rounding bounds, measured over 60,000 random fields: the transform pair
# returns x to 6 ulp of its largest entry, the shift and its inverse to 8,
# and the constructor to 7 ulp of the largest coefficient (4 on 97% of them)
@settings(max_examples=100, deadline=None, database=None)
@given(packed_fields())
def test_packed_field_round_trips_through_grid_and_coefficients(f):
    sp = f.spectrum
    back = sp.to_packed(sp.to_grid(f.x))
    assert np.max(np.abs(back - f.x)) <= ulps(16, f.x)
    back = spectral.field_from_coeffs(f.spectrum, f.u_coeffs, f.z_plus,
                                      f.z_minus)
    np.testing.assert_array_equal(back.u_coeffs, f.u_coeffs)
    largest = np.column_stack([f.u_coeffs, f.z_ab_coeffs()])
    assert np.max(np.abs(back.x - f.x)) <= ulps(16, largest)
    for view in (f.x, f.u_coeffs, f.z_ab_coeffs(), f.z_plus, f.z_minus,
                 f.grid_values):
        with pytest.raises(ValueError, match="read-only"):
            view[0] = 1.0


@settings(max_examples=100, deadline=None, database=None)
@given(packed_fields(), st.floats(-4.0, 4.0))
def test_shift_rotates_each_mode(f, tau):
    back = f.shifted(tau).shifted(-tau)
    assert np.max(np.abs(back.x - f.x)) <= ulps(16, f.x)
    np.testing.assert_array_equal(f.shifted(2.0).x, f.x)     # the period
    k = np.arange(-f.num_modes, f.num_modes + 1)
    phase = np.exp(1j * np.pi * k * tau)
    assert (np.max(np.abs(f.shifted(tau).u_coeffs - f.u_coeffs * phase))
            <= 1e-12 * np.max(np.abs(f.u_coeffs)))


# ----------------------------------------------------------------------
# spectrum of the operator

def test_constant_mode_eigenpairs():
    sp = spectral.build_spectrum(1.0 / 5.0, 4)
    k0 = sp.num_modes              # index of k = 0 in centered order
    assert sp.lam[k0] == 1.0
    np.testing.assert_allclose(sp.eigvec_plus[k0], [1 / SQ2, 1 / SQ2], atol=1e-16)
    np.testing.assert_allclose(sp.eigvec_minus[k0], [1 / SQ2, -1 / SQ2], atol=1e-16)


def test_eigenvalue_formula_exact():
    sp = spectral.build_spectrum(1.0 / np.pi, 8)
    k1 = sp.num_modes + 1
    assert sp.lam[k1] == np.sqrt(2.0)          # omega = pi/T = 1
    # lambda is defined through sqrt(1 + omega^2); squaring can cost one ulp
    defect = np.abs(sp.lam ** 2 - (1.0 + sp.omega ** 2)) / (1.0 + sp.omega ** 2)
    assert defect.max() <= 4 * np.finfo(float).eps
    assert np.min(sp.lam) == 1.0               # trivial kernel


def test_eigenvectors_orthonormal():
    sp = spectral.build_spectrum(1.0 / 2.5, 12)
    for vp, vm in zip(sp.eigvec_plus, sp.eigvec_minus):
        assert abs(np.vdot(vp, vp) - 1.0) <= 1e-15
        assert abs(np.vdot(vm, vm) - 1.0) <= 1e-15
        assert abs(np.vdot(vp, vm)) <= 1e-15


def test_apply_A_constant_modes():
    sp = spectral.build_spectrum(0.1, 4)
    K = sp.num_modes
    zero, one = np.zeros(2 * K + 1, complex), np.zeros(2 * K + 1, complex)
    one[K] = 1.0
    f = spectral.field_from_coeffs(sp, zero, one, zero)   # (1,1)/sqrt(2)
    af = apply_A(f)
    np.testing.assert_array_equal(af.z_plus, f.z_plus)     # eigenvalue +1
    np.testing.assert_array_equal(af.z_minus, f.z_minus)
    f = spectral.field_from_coeffs(sp, zero, zero, one)   # (1,-1)/sqrt(2)
    np.testing.assert_array_equal(apply_A(f).z_minus, -f.z_minus)   # -1


def test_apply_A_two_path_oracle():
    # the packed operator vs the real-space formula (-eps b' + b, eps a' + a)
    eps, K = 0.17, 24
    f = random_field(eps, K, seed=21)
    z_ab = f.z_ab_coeffs()
    d = spectral.derivative_coeffs(z_ab)
    real_space = np.empty_like(z_ab)
    real_space[:, 0] = -eps * d[:, 1] + z_ab[:, 1]
    real_space[:, 1] = eps * d[:, 0] + z_ab[:, 0]
    assert np.max(np.abs(apply_A(f).z_ab_coeffs() - real_space)) <= 1e-12


def test_packed_A_is_diagonal_in_the_eigenbasis():
    # +lam on the plus coordinates, -lam on the minus ones (measured 6e-17)
    f = random_field(0.13, 20, seed=23)
    lam = f.spectrum.lam
    af = apply_A(f)
    assert np.max(np.abs(af.z_plus - lam * f.z_plus)) <= 1e-14
    assert np.max(np.abs(af.z_minus + lam * f.z_minus)) <= 1e-14


def test_A_squared_is_second_order_operator():
    eps, K = 0.1, 16
    f = random_field(eps, K, seed=22)
    sp = f.spectrum
    twice = apply_A(apply_A(f)).z_ab_coeffs()
    target = (1.0 + sp.omega ** 2)[:, None] * f.z_ab_coeffs()
    assert np.max(np.abs(twice - target)) <= 1e-12


def test_truncation_mismatch():
    sp = spectral.build_spectrum(1.0 / 5.0, 4)
    with pytest.raises(TruncationMismatch):
        spectral.split_spinor(np.zeros((7, 2), complex), sp)


# ----------------------------------------------------------------------
# projections

def test_project_plus_span_passthrough():
    K = 8
    zero, plus = np.zeros(2 * K + 1, complex), np.zeros(2 * K + 1, complex)
    plus[K + 2] = 1.0 - 0.3j
    plus[K - 2] = np.conj(plus[K + 2])
    f = spectral.field_from_coeffs(spectral.build_spectrum(0.2, K), zero, plus,
                                   zero)
    z = f.z_ab_coeffs()
    zp, zm = spectral.project(z, f.spectrum)
    np.testing.assert_allclose(zp, z, atol=1e-15)
    np.testing.assert_allclose(zm, 0.0 * z, atol=1e-15)


def test_project_constant_example():
    # constant (1, 0) = (1,1)/2 + (1,-1)/2
    sp = spectral.build_spectrum(1.0 / 5.0, 3)
    K = sp.num_modes
    z = np.zeros((2 * K + 1, 2), dtype=complex)
    z[K] = (1.0, 0.0)
    zp, zm = spectral.project(z, sp)
    np.testing.assert_allclose(zp[K], [0.5, 0.5], atol=1e-15)
    np.testing.assert_allclose(zm[K], [0.5, -0.5], atol=1e-15)


def test_projectors_idempotent_orthogonal_complete():
    eps, K = 0.08, 20
    f = random_field(eps, K, seed=23)
    z = f.z_ab_coeffs()
    zp, zm = spectral.project(z, f.spectrum)
    assert np.max(np.abs(zp + zm - z)) <= 1e-12
    zpp, zpm = spectral.project(zp, f.spectrum)
    np.testing.assert_allclose(zpp, zp, atol=1e-13)
    np.testing.assert_allclose(zpm, 0 * zp, atol=1e-13)
    # L2 orthogonality via the coefficient pairing
    inner = 2.0 * np.sum(np.conj(zp) * zm)
    assert abs(inner) <= 1e-12
    # the spinor quadratic form splits over the parts
    n = spectral.energy(f).spinor_quadratic
    fp = spectral.field_from_coeffs(f.spectrum, f.u_coeffs, f.z_plus,
                                    0 * f.z_minus)
    fm = spectral.field_from_coeffs(f.spectrum, f.u_coeffs, 0 * f.z_plus,
                                    f.z_minus)
    parts = [spectral.energy(g).spinor_quadratic for g in (fp, fm)]
    assert abs(sum(parts) - n) <= 1e-12 * max(1.0, abs(n))


# ----------------------------------------------------------------------
# energy

def test_norm_of_constant_scalar():
    for eps in (0.2, 0.07):
        zero, one = np.zeros(17, complex), np.zeros(17, complex)
        one[8] = 1.0
        eb = spectral.energy(spectral.field_from_coeffs(
            spectral.build_spectrum(eps, 8), one, zero, zero))
        assert abs(eb.scalar_quadratic - 1.0 / (2.0 * eps)) <= 1e-14 / eps
        assert eb.spinor_quadratic == 0.0 and eb.coupling == 0.0


def test_parseval_quadrature_agreement():
    eps, K = 0.1, 32
    f = random_field(eps, K, seed=24)
    N = spectral.grid_size(K)
    _, _, a, b = f.grid_values
    grid_integral = (2.0 / N) * np.sum(a ** 2 + b ** 2)
    coeff_sum = 2.0 * float(np.sum(np.abs(f.z_ab_coeffs()) ** 2))
    assert abs(grid_integral - coeff_sum) <= 1e-10 * max(1.0, coeff_sum)


def test_energy_of_equilibrium_pair():
    for eps in (0.2, 0.1):
        f = constant_field(eps, 16, dynamics.P_PLUS)
        eb = spectral.energy(f)
        assert abs(eb.total - 1.0 / (4.0 * eps)) <= 1e-12 / eps
        assert eb.total == 0.5 * (eb.scalar_quadratic + eb.spinor_quadratic
                                  - eb.coupling)


def test_energy_of_zero_field():
    eb = spectral.energy(constant_field(0.1, 8))
    assert eb.total == 0.0 and eb.coupling == 0.0


def test_energy_matches_the_complex_transform_formula():
    # the coupling sums real grid values of the packed field; the complex
    # transforms of u and z give the same terms to rounding
    fields = [random_field(0.1, K, seed=K) for K in (8, 32, 136)]
    for f in fields + [spectral.cutoff_test_pair(0.05)]:
        eps, N = f.epsilon, spectral.grid_size(f.num_modes)
        mult = f.spectrum.omega ** 2 + 0.25
        scal = (2.0 / eps) * np.sum(mult * np.abs(f.u_coeffs) ** 2)
        spin = (2.0 / eps) * np.sum(f.spectrum.lam * (
            np.abs(f.z_plus) ** 2 - np.abs(f.z_minus) ** 2))
        u = spectral.coeffs_to_values(f.u_coeffs, N).real
        z = spectral.coeffs_to_values(f.z_ab_coeffs(), N).real
        coup = (2.0 / (N * eps)) * np.sum(u ** 2 * (z[:, 0] ** 2
                                                    + z[:, 1] ** 2))
        want = np.array([scal, spin, coup, 0.5 * (scal + spin - coup)])
        eb = spectral.energy(f)
        got = np.array([eb.scalar_quadratic, eb.spinor_quadratic,
                        eb.coupling, eb.total])
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_cutoff_energy_near_limit_value():
    eb = spectral.energy(spectral.cutoff_test_pair(0.05))
    assert abs(eb.total - homoclinic.DELTA0) <= 0.05 * homoclinic.DELTA0


# ----------------------------------------------------------------------
# gradient

def test_gradient_vanishes_at_equilibrium_pair():
    f = constant_field(0.1, 16, dynamics.P_PLUS)
    g = spectral.gradient(f)
    assert f.spectrum.norm(g.x) <= 1e-12


def test_gradient_of_zero_field():
    f = constant_field(0.1, 8)
    g = spectral.gradient(f)
    assert f.spectrum.norm(g.x) == 0.0


def test_gradient_matches_finite_differences():
    eps, K = 0.12, 12
    f = random_field(eps, K, seed=25)
    g = spectral.gradient(f)
    rng = np.random.default_rng(26)
    delta = 1e-5
    for trial in range(50):
        h = random_field(eps, K, seed=100 + trial, scale=1.0)
        fp, fm = perturbed(f, h, delta), perturbed(f, h, -delta)
        fd = (spectral.energy(fp).total - spectral.energy(fm).total) / (2 * delta)
        pairing = (2.0 / eps) * float(np.real(
            np.sum(np.conj(g.u_coeffs) * h.u_coeffs)
            + np.sum(np.conj(g.z_plus) * h.z_plus)
            + np.sum(np.conj(g.z_minus) * h.z_minus)))
        assert abs(fd - pairing) <= 1e-6 * max(1.0, abs(fd))


# ----------------------------------------------------------------------
# reduction onto the minus space

def test_reduce_g_zero_cases():
    eps, K = 0.1, 16
    sp = spectral.build_spectrum(eps, K)
    M = 2 * K + 1
    zero = np.zeros(M, dtype=complex)
    # u = 0 -> maximizer is 0
    w = spectral.reduce_g(zero, np.ones(M, dtype=complex) * 0.1, sp)
    assert np.max(np.abs(w)) == 0.0
    # z_plus = 0 with small u -> 0 is the unique solution
    f = random_field(eps, K, seed=27, scale=0.2)
    w = spectral.reduce_g(f.u_coeffs, zero, sp)
    assert np.max(np.abs(w)) <= 1e-14


def test_reduce_g_is_the_concave_maximizer():
    eps, K = 0.15, 16
    f = random_field(eps, K, seed=28, scale=0.6)
    sp = f.spectrum
    v = f.z_plus
    w0 = spectral.reduce_g(f.u_coeffs, v, sp)
    base = spectral.field_from_coeffs(sp, f.u_coeffs, v, w0)
    e0 = spectral.energy(base).total
    rng = np.random.default_rng(29)
    M = 2 * K + 1
    for _ in range(20):
        d = 0.01 * (rng.standard_normal(M) + 1j * rng.standard_normal(M))
        d = d + np.conj(d[::-1])
        trial = spectral.field_from_coeffs(sp, f.u_coeffs, v, w0 + d)
        assert spectral.energy(trial).total < e0
    # residual of the defining equation
    g = spectral.gradient(base)
    r3 = np.sqrt((2.0 / eps) * np.sum(np.abs(g.z_minus) ** 2))
    assert r3 <= 1e-9


def test_reduce_g_raises_nonconvergence_when_cg_stops_short(monkeypatch):
    f = random_field(0.15, 16, seed=28, scale=0.6)
    monkeypatch.setattr(spectral, "REDUCTION_MAX_ITERS", 1)
    with pytest.raises(NonConvergence, match="reduction CG"):
        spectral.reduce_g(f.u_coeffs, f.z_plus, f.spectrum)


# ----------------------------------------------------------------------
# Nehari residuals / cutoff pair

def test_nehari_zero_field_residuals_vanish():
    res = spectral.nehari_residuals(constant_field(0.1, 8))
    assert res.r1 == res.r2 == res.r3 == 0.0


def test_nehari_equilibrium_pair():
    res = spectral.nehari_residuals(constant_field(0.1, 16, dynamics.P_PLUS))
    assert res.r1 <= 1e-12 and res.r2 <= 1e-12 and res.r3 <= 1e-12


@pytest.mark.parametrize("eps", [0.2, 0.1])
def test_nehari_scale_lands_on_the_constraint(eps, ground_states):
    # from the cutoff pair: relative r1, r2 measured <= 2.6e-16, r3 <= 2.7e-14
    f = spectral.cutoff_test_pair(eps)
    t, s, scaled = spectral.nehari_scale(f.u_coeffs, f.z_plus, f.spectrum)
    r1, r2, r3 = spectral.nehari_residuals(scaled).relative()
    assert r1 <= 1e-10 and r2 <= 1e-10 and r3 <= 1e-12
    assert max(r1, r2) <= spectral.NEHARI_TOL and t > 0 and s > 0
    # a ground state is already on it
    g = ground_states[eps].field
    t, s, _ = spectral.nehari_scale(g.u_coeffs, g.z_plus, g.spectrum)
    assert t == 1.0 and s == 1.0


@pytest.mark.parametrize("c", [0.1, 1e-3])
def test_nehari_scale_rescales_a_shrunken_ground_state(c, ground_states):
    # the stop test is relative to the coupling, so a small field is scaled
    # back onto the constraint, not stopped at |defect| <= tol near zero
    g = ground_states[0.2].field
    t, s, scaled = spectral.nehari_scale(c * g.u_coeffs, c * g.z_plus,
                                         g.spectrum)
    # measured: |c t - 1|, |c s - 1| <= 1.1e-12, field within 3.3e-13
    assert abs(c * t - 1.0) <= 1e-11 and abs(c * s - 1.0) <= 1e-11
    assert np.max(np.abs(scaled.x - g.x)) <= 1e-12
    r1, r2, r3 = spectral.nehari_residuals(scaled).relative()
    assert max(r1, r2, r3) <= 1e-10
    assert max(r1, r2) <= spectral.NEHARI_TOL and t > 0 and s > 0


def test_nehari_scale_raises_nonconvergence_at_the_evaluation_cap(
        monkeypatch):
    f = spectral.cutoff_test_pair(0.2)
    monkeypatch.setattr(spectral, "NEHARI_MAX_ITERS", 2)
    with pytest.raises(NonConvergence, match=r"relative defect \S+ \(bound"):
        spectral.nehari_scale(f.u_coeffs, f.z_plus, f.spectrum)


def test_bump_endpoint_values():
    assert spectral.bump(np.array([0.0]))[0] == 1.0
    assert spectral.bump(np.array([0.5]))[0] == 1.0
    assert spectral.bump(np.array([1.0]))[0] == 0.0
    assert spectral.bump(np.array([-1.0]))[0] == 0.0


def test_cutoff_pair_gradient_vanishes_with_eps():
    fields = [spectral.cutoff_test_pair(eps) for eps in (0.2, 0.1, 0.05)]
    norms = [f.spectrum.norm(spectral.gradient(f).x) for f in fields]
    assert norms[0] > norms[1] > norms[2]


def test_cutoff_pair_energy_approaches_limit():
    gaps = [abs(spectral.energy(spectral.cutoff_test_pair(eps)).total
                - homoclinic.DELTA0) for eps in (0.2, 0.1, 0.05)]
    assert gaps[0] > gaps[1] > gaps[2]


def test_cutoff_pair_requires_small_eps():
    with pytest.raises(ValueError):
        spectral.cutoff_test_pair(0.3)


def test_default_mode_table():
    assert spectral.default_modes(0.2) == 32
    assert spectral.default_modes(0.1) == 64
    assert spectral.default_modes(0.05) == 128


def test_default_modes_stops_at_max_modes():
    # the least eps it takes needs exactly MAX_MODES; the float below it,
    # 6.4e-5 itself, needs one mode more
    eps = math.nextafter(6.4e-5, 1.0)
    assert spectral.default_modes(eps) == spectral.MAX_MODES
    with pytest.raises(ValueError, match="MAX_MODES"):
        spectral.default_modes(math.nextafter(eps, 0.0))


# ----------------------------------------------------------------------
# ground state

def test_ground_state_tolerances(ground_states):
    for eps, res in ground_states.items():
        assert res.report.stop == "converged"
        assert res.merit <= 1e-8
        assert res.nehari.max_relative() <= 1e-6
        eb = spectral.energy(res.field)
        # critical-point identities
        assert abs(eb.total - 0.5 * eb.coupling) <= 1e-6 * abs(eb.total)
        assert abs(eb.scalar_quadratic - eb.coupling) <= 1e-6 * eb.coupling
        assert abs(eb.spinor_quadratic - eb.coupling) <= 1e-6 * eb.coupling
        # positive energy, strictly below the constant solution
        assert 0.0 < res.delta_eps < 1.0 / (4.0 * eps)


def test_ground_state_energy_ordering(ground_states):
    gaps = [abs(ground_states[eps].delta_eps - homoclinic.DELTA0)
            for eps in (0.2, 0.1, 0.05)]
    assert gaps[0] > gaps[1] > gaps[2]
    assert (abs(ground_states[0.1].delta_eps - homoclinic.DELTA0)
            <= 0.05 * homoclinic.DELTA0)


def test_ground_state_reduction_optimality(ground_states):
    # E(u, z+ + g) >= E(u, z+ + w) for random w in the minus space
    res = ground_states[0.2]
    f = res.field
    rng = np.random.default_rng(30)
    M = 2 * f.num_modes + 1
    e0 = spectral.energy(f).total
    for _ in range(10):
        d = 0.02 * (rng.standard_normal(M) + 1j * rng.standard_normal(M))
        d = d + np.conj(d[::-1])
        trial = spectral.field_from_coeffs(f.spectrum, f.u_coeffs, f.z_plus,
                                           f.z_minus + d)
        assert spectral.energy(trial).total < e0 + 1e-12


def test_ground_state_gap_law(ground_states):
    # delta_0 - delta_eps ~ 3 e^{-1/eps}; the ratio is 2.9937 at eps = 0.2,
    # where the correction beyond the leading exponential is still visible
    for eps in (0.1, 0.05):
        ratio = ((homoclinic.DELTA0 - ground_states[eps].delta_eps)
                 * np.exp(1.0 / eps))
        assert 2.995 <= ratio <= 3.005, (eps, ratio)


def test_ground_state_reports_krylov_iterations(ground_states):
    report = ground_states[0.05].report
    assert report.steps > 0
    assert len(report.jvps) == report.steps
    assert all(n > 0 for n in report.jvps)


def test_linearization_matches_finite_differences():
    f = spectral.cutoff_test_pair(0.1)
    ops = f.spectrum
    x = f.x
    v = np.random.default_rng(40).standard_normal(x.shape)
    jvp = ops.linearization(ops.to_grid(x))
    h = 1e-5
    fd = (ops.residual(x + h * v)[0] - ops.residual(x - h * v)[0]) / (2.0 * h)
    assert np.linalg.norm(jvp(v) - fd) <= 1e-6 * np.linalg.norm(fd)


@pytest.mark.parametrize("eps", [0.05, 0.2, 0.37])
def test_spectrum_at_another_eps_is_a_fresh_build(eps):
    # the same bits in every array, the K-only ones shared
    K = 17
    fresh, base = (spectral.build_spectrum(eps, K),
                   spectral.build_spectrum(0.1, K))
    moved = base.at(eps)
    for name in ("epsilon", "num_modes", "N", "k", "omega", "lam", "swap",
                 "cross", "alternate", "sign", "parseval", "linear_w",
                 "inverse_w", "eps_w", "eigvec_plus", "eigvec_minus"):
        assert (np.asarray(getattr(moved, name)).tobytes()
                == np.asarray(getattr(fresh, name)).tobytes()), name
    assert moved.swap is base.swap and moved.parseval is base.parseval


def test_family_solve_builds_one_spectrum(monkeypatch):
    # its start's: every trial eps takes new weights on the K-only arrays
    builds = [0]
    original = spectral.SpectrumA.__init__

    def counted(self, *args):
        builds[0] += 1
        original(self, *args)

    monkeypatch.setattr(spectral.SpectrumA, "__init__", counted)
    family = orbits.lyapunov_family([0.01, 0.05, 0.1, 0.15, 0.2, 0.205])
    assert sum(res.report.steps for res in family) >= 20
    assert builds[0] == 1


def test_eps_derivative_matches_finite_differences():
    # the bordered orbit solve's eps column: only omega_k = eps k pi moves
    f = spectral.cutoff_test_pair(0.1, K=24)
    K, x = f.num_modes, f.x
    h = 1e-6

    fd = (spectral.build_spectrum(0.1 + h, K).residual(x)[0]
          - spectral.build_spectrum(0.1 - h, K).residual(x)[0]) / (2.0 * h)
    ops = spectral.build_spectrum(0.1, K)
    exact = ops.gather(x, ops.eps_w)
    assert np.linalg.norm(exact - fd) <= 1e-7 * np.linalg.norm(fd)


def test_inverse_linear_part_inverts_linear_part():
    eps, K = 0.1, 64
    ops = spectral.build_spectrum(eps, K)
    # at the zero field the linearization is the linear part alone
    linear = ops.linearization(np.zeros((3, ops.N)))
    v = np.random.default_rng(41).standard_normal(3 * (2 * K + 1))
    back = ops.gather(linear(v), ops.inverse_w)
    assert np.max(np.abs(back - v)) <= 1e-13 * np.max(np.abs(v))


def test_newton_step_applies_every_jvp_inside_the_krylov_solve():
    # at the zero field the Jacobian is the linear part, which the
    # preconditioner inverts exactly: one Krylov step solves the system, and
    # no operator is applied outside the Krylov iteration
    eps, K = 0.1, 64
    ops = spectral.build_spectrum(eps, K)
    linear = ops.linearization(np.zeros((3, ops.N)))
    calls = [0]

    def jvp(v):
        calls[0] += 1
        return linear(v)

    r = np.random.default_rng(43).standard_normal(3 * (2 * K + 1))
    dx, jvps = spectral._newton_step(r, jvp, ops)
    assert calls[0] == 1 and jvps == 1
    even_r = ops.symmetric(r)
    defect = ops.symmetric(linear(dx)) + even_r
    assert np.linalg.norm(defect) <= 1e-13 * np.linalg.norm(even_r)


def test_newton_step_matches_a_dense_solve_on_the_even_fields():
    # the dense reference solves Q^T J Q y = -Q^T r, Q an orthonormal basis
    # of the even fields
    f = spectral.cutoff_test_pair(0.1, K=16)
    ops = f.spectrum
    r, _, vals = ops.residual(f.x)
    linearization = ops.linearization(vals)
    calls = [0]

    def jvp(v):
        calls[0] += 1
        return linearization(v)

    S = np.column_stack([ops.symmetric(e) for e in np.eye(r.size)])
    basis, sv, _ = np.linalg.svd(S)
    Q = basis[:, sv > 0.5]
    J = np.column_stack([linearization(q) for q in Q.T])
    dense = Q @ np.linalg.solve(Q.T @ J, -Q.T @ r)
    dx, jvps = spectral._newton_step(r, jvp, ops)
    assert jvps == calls[0]
    assert np.linalg.norm(dx - dense) <= 1e-6 * np.linalg.norm(dense)


def test_gmres_matches_a_dense_solve():
    # the stop on the residual, KRYLOV_FORCING * |c|, bounds the relative
    # error by cond(A) * KRYLOV_FORCING
    rng = np.random.default_rng(50)
    n = 40
    A = np.eye(n) + 0.5 * rng.standard_normal((n, n)) / np.sqrt(n)
    c = rng.standard_normal(n)
    x, _ = spectral._gmres(lambda v: A @ v, c)
    exact = np.linalg.solve(A, c)
    bound = np.linalg.cond(A) * spectral.KRYLOV_FORCING
    assert np.linalg.norm(x - exact) <= bound * np.linalg.norm(exact)


def test_gmres_stops_on_a_happy_breakdown():
    # with c = 2 e_0 the first Arnoldi step leaves w = 0 exactly: the
    # breakdown branch must not divide by h = 0
    calls = [0]

    def identity(v):
        calls[0] += 1
        return v.copy()

    c = np.zeros(30)
    c[0] = 2.0
    with np.errstate(all="raise"):
        x, steps = spectral._gmres(identity, c)
    assert calls[0] == steps == 1
    np.testing.assert_array_equal(x, c)
    c = np.random.default_rng(51).standard_normal(30)
    x, steps = spectral._gmres(identity, c)
    assert calls[0] == 2 and steps == 1
    np.testing.assert_allclose(x, c, rtol=1e-14, atol=0.0)


def test_gmres_stops_at_krylov_max_iters():
    # eigenvalues spread over [1, 1e3]: KRYLOV_MAX_ITERS steps stop short of
    # the forcing, and the iterate comes back with the step count
    rng = np.random.default_rng(52)
    n = 4 * spectral.KRYLOV_MAX_ITERS
    d = rng.permutation(np.geomspace(1.0, 1e3, n))
    c = rng.standard_normal(n)
    calls = [0]

    def operator(v):
        calls[0] += 1
        return d * v

    x, steps = spectral._gmres(operator, c)
    assert calls[0] == steps == spectral.KRYLOV_MAX_ITERS
    residual = np.linalg.norm(d * x - c)
    assert (spectral.KRYLOV_FORCING * np.linalg.norm(c) < residual
            < np.linalg.norm(c))


def test_gmres_steps_stay_under_the_cap(ground_states, lyapunov_orbits):
    # GMRES never restarts, so a solve that reached KRYLOV_MAX_ITERS would
    # cut its Newton step short with no sign; the exact inverse of the
    # linear part keeps every solve measured at 15 steps or fewer, at
    # K = 1024 too
    solutions = [*ground_states.values(), *lyapunov_orbits.values(),
                 spectral.ground_state(0.3785),
                 spectral.ground_state(0.1, K=1024)]
    for sol in solutions:
        assert sol.report.jvps and max(sol.report.jvps) <= 20, sol.report
    assert 20 < spectral.KRYLOV_MAX_ITERS


def test_ground_state_with_too_few_modes_raises_naming_the_truncation(
        ground_states):
    # converged on the truncated problem (gradient ~1e-13), but the tail of
    # K = 32 at eps = 0.05 is 1.5e-3; the default K = 128 leaves ~1e-12
    with pytest.raises(NonConvergence, match="truncated") as info:
        spectral.ground_state(0.05, K=32)
    best = info.value.best
    assert isinstance(best, spectral.Solution)
    assert best.report.stop == "truncated"
    assert best.merit <= 1e-8
    assert best.report.tail > 1e-3
    assert ground_states[0.05].report.tail <= 1e-11


def test_ground_state_nonconvergence_attaches_best_iterate(monkeypatch):
    monkeypatch.setattr(spectral, "MAX_NEWTON_ITERS", 0)
    with pytest.raises(NonConvergence, match="spectral residual") as info:
        spectral.ground_state(0.2, K=32)
    best = info.value.best
    assert isinstance(best, spectral.Solution)
    assert best.field.epsilon == 0.2
    assert best.report.stop == "residual"
    assert best.report.steps == 0 and best.report.jvps == []
    assert best.merit > 1e-8
    assert str(info.value).split()[-1] == f"{best.merit:.3e}"


def test_ground_state_counts_steps_taken(monkeypatch):
    res = spectral.ground_state(0.25)
    assert res.report.steps > 0
    # an exhausted Newton budget reports every step it took
    monkeypatch.setattr(spectral, "MAX_NEWTON_ITERS", 2)
    with pytest.raises(NonConvergence) as info:
        spectral.ground_state(0.25)
    report = info.value.best.report
    assert report.steps == 2
    # the start's merit and each step's, the last the returned field's
    assert len(report.merits) == 3
    assert report.merits[-1] == info.value.best.merit


def test_ground_state_is_time_reversal_symmetric(ground_states):
    # R(u, v, a, b) = (u, -v, b, a): u_k real and a_k = conj(b_k).  Newton
    # starts from the projection onto that subspace and stays on it, so
    # Im u_k is exactly 0; a_k and conj(b_k), summed by the Krylov basis
    # products in different orders, differ by at most 1.3e-23
    fields = [spectral.ground_state(0.025).field, ground_states[0.05].field,
              ground_states[0.2].field, spectral.ground_state(0.3).field]
    for f in fields:
        assert np.all(f.u_coeffs.imag == 0.0), f.epsilon
        symmetric = f.spectrum.symmetric
        assert np.max(np.abs(f.x - symmetric(f.x))) <= 1e-13


def test_symmetric_projection_fixes_reflected_fields():
    f = random_field(0.1, 12, seed=42)
    symmetric = f.spectrum.symmetric
    sym = symmetric(f.x)
    np.testing.assert_array_equal(symmetric(sym), sym)
    # the reflection t -> -t with a and b swapped maps the projection to itself
    g = spectral.PeriodicField(f.spectrum, sym)
    c = np.column_stack([g.u_coeffs, g.z_ab_coeffs()])
    reflected = c[::-1, [0, 2, 1]]
    assert np.max(np.abs(reflected - c)) <= 1e-16 * np.max(np.abs(sym))


def test_jvp_annihilates_translation_mode(ground_states):
    # d/dt of a solution is in the kernel of the full-space Jacobian
    # (measured 1.4e-12 to 5.4e-12 relative)
    for eps in (0.2, 0.1, 0.05):
        f = ground_states[eps].field
        d = spectral.field_from_coeffs(
            f.spectrum, *map(spectral.derivative_coeffs,
                             (f.u_coeffs, f.z_plus, f.z_minus))).x
        ops = f.spectrum
        jvp = ops.linearization(ops.to_grid(f.x))
        assert np.linalg.norm(jvp(d)) <= 1e-10 * np.linalg.norm(d)


def test_a_field_holds_epsilon_once_in_its_spectrum():
    # 1/(1/0.0275) = 0.027499999999999997: the spectrum keeps eps itself
    f = spectral.ground_state(0.0275).field
    assert f.spectrum.epsilon == f.epsilon == 0.0275
    fields = dataclasses.fields(spectral.PeriodicField)
    assert [field.name for field in fields] == ["spectrum", "x"]


@pytest.mark.parametrize("eps, builds", [(0.04, 1), (0.25, 1), (0.3, 1)])
def test_ground_state_builds_one_spectrum_per_epsilon(monkeypatch, eps,
                                                      builds):
    # the start's, at eps also above 1/4, which Newton reuses
    calls = [0]
    original = spectral.build_spectrum

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(spectral, "build_spectrum", counted)
    spectral.ground_state(eps)
    assert calls[0] == builds


@pytest.mark.parametrize("eps", [0.025, 0.045, 0.06, 0.2, None])
def test_solution_grid_values_match_a_fresh_fields(eps, lyapunov_orbits):
    # u, a and b come from Newton's last residual, v from one transform;
    # eps None takes a family orbit
    res = lyapunov_orbits[1e-3] if eps is None else spectral.ground_state(eps)
    fresh = spectral.PeriodicField(res.field.spectrum, res.field.x)
    assert res.field.grid_values.tobytes() == fresh.grid_values.tobytes()


def test_solution_grid_values_transform_v_alone(monkeypatch):
    # the accepted field's grid values take one transformed row, v's, where
    # a fresh field's take four
    rows = [0]
    original = spectral.SpectrumA.to_grid

    def counted(self, x):
        out = original(self, x)
        rows[0] += len(out)
        return out

    sol = spectral.ground_state(0.045)
    monkeypatch.setattr(spectral.SpectrumA, "to_grid", counted)
    orbits.field_to_orbit(sol.field)
    assert rows[0] == 1
    orbits.field_to_orbit(spectral.PeriodicField(sol.field.spectrum,
                                                 sol.field.x))
    assert rows[0] == 5


@pytest.mark.parametrize("eps, K", [(0.05, spectral.MAX_MODES + 1),
                                    (0.05, 10 ** 8), (1e-300, None),
                                    (1e-320, None)])
def test_ground_state_rejects_more_than_max_modes(monkeypatch, eps, K):
    # before the start field, or any grid, is built; at 1e-320 the default
    # 6.4 / eps is inf, which int() cannot take
    def unreachable(*args):
        raise AssertionError("allocated past MAX_MODES")

    monkeypatch.setattr(spectral, "_periodized_homoclinic", unreachable)
    monkeypatch.setattr(spectral, "grid_size", unreachable)
    with pytest.raises(ValueError, match="MAX_MODES"):
        spectral.ground_state(eps, K=K)


@pytest.mark.parametrize("eps", [0.05, 0.3])
def test_ground_state_skips_projected_gradient(monkeypatch, eps):
    calls = {"nehari_scale": 0, "reduce_g": 0}
    for name in calls:
        original = getattr(spectral, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(spectral, name, counted)
    spectral.ground_state(eps)
    assert calls == {"nehari_scale": 0, "reduce_g": 0}


@pytest.mark.parametrize("eps, delta", [
    (0.025, 0.8835729338221298),
    (0.04, 0.883572933780466),
    (0.06, 0.8835727604896779),
    # eps > 1/4: Newton from the pulse of width 1/4, up to the branch's end
    (0.3, 0.7762872683721382),
    (0.37, 0.6750661791015719),
    (0.378, 0.6613732738644914),
])
def test_ground_state_energy_pinned(eps, delta):
    assert abs(spectral.ground_state(eps).delta_eps - delta) <= 1e-14


@pytest.mark.parametrize("eps", [0.025, 0.0345])
def test_ground_state_starts_on_the_periodized_homoclinic(monkeypatch, eps):
    # the homoclinic plus its period translates solves the problem up to
    # O(e^(-1/eps)): start merits measured 1.3e-13 and 2.8e-12.  With no
    # step, the start's residual is Newton's only evaluation and also the
    # certificate's
    calls = [0]
    original = spectral.SpectrumA.residual

    def counted(self, x):
        calls[0] += 1
        return original(self, x)

    monkeypatch.setattr(spectral.SpectrumA, "residual", counted)
    res = spectral.ground_state(eps)
    assert res.report.steps == 0
    assert res.merit <= 1e-10
    assert calls[0] == 1


def test_ground_state_newton_work_over_the_benchmark_range():
    # 12 eps spread over [0.025, 0.06]: 14 Newton steps and 89 JVPs from the
    # cutoff pair with forcing 1e-8, measured 7 and 63 from the periodized
    # homoclinic with the forcing tied to the merit
    steps = jvps = 0
    for eps in np.linspace(0.025, 0.06, 12):
        report = spectral.ground_state(eps).report
        steps += report.steps
        jvps += sum(report.jvps)
    assert steps <= 7 and jvps <= 70


def test_ground_state_above_the_branch_end_is_the_constant_solution():
    # eps* = 2^(1/4)/pi ~ 0.3785: past it Newton lands on the constant
    # solution, delta_eps = 1/(4 eps) (measured within 3.3e-16), and that
    # is rejected
    with pytest.raises(NonConvergence, match="constant") as info:
        spectral.ground_state(0.39)
    best = info.value.best
    assert best.report.stop == "constant"
    assert spectral.is_constant(best.field)
    assert best.merit <= 1e-8
    assert abs(best.delta_eps - 1.0 / (4.0 * 0.39)) <= 1e-10


def test_ground_state_certificate_matches_fresh_residuals(ground_states,
                                                          lyapunov_orbits):
    # the certificate is Newton's last evaluation, at the returned field's
    # point and on its spectrum, so fresh evaluations give the same bits;
    # at fixed eps the merit is the gradient norm too
    fixed_eps = [*ground_states.values(), spectral.ground_state(0.025)]
    for res in fixed_eps + list(lyapunov_orbits.values()):
        fresh = spectral.PeriodicField(res.field.spectrum, res.field.x)
        assert res.nehari == spectral.nehari_residuals(res.field)
        assert res.energy == spectral.energy(res.field)
        assert res.delta_eps == res.energy.total
        assert res.report.tail == spectral.coefficient_tail(fresh)
        # r3 projects the gradient's spinor alone, to the bits of its view
        z_minus = spectral.gradient(fresh).z_minus
        assert res.nehari.r3 == float(np.sqrt(
            (2.0 / fresh.epsilon) * np.sum(np.abs(z_minus) ** 2)))
    for res in fixed_eps:
        g = spectral.gradient(res.field)
        assert res.merit == res.field.spectrum.norm(g.x)


def test_ground_state_phase_centered(ground_states):
    f = ground_states[0.1].field
    N = spectral.grid_size(f.num_modes)
    t = spectral.grid(N)
    u = f.grid_values[0]
    centroid = np.angle(np.sum(u * u * np.exp(1j * np.pi * t))) / np.pi
    assert abs(centroid) <= 1e-8


# ----------------------------------------------------------------------
# concentration diagnostic

def test_concentration_on_ground_state(ground_states):
    d = spectral.concentration_diagnostic(ground_states[0.1].field, r0=2.0)
    assert d["mass_u"] >= 1e-2
    assert d["mass_z"] >= 1e-2
    assert abs(d["y_center"]) <= 0.05


def test_concentration_zero_field():
    d = spectral.concentration_diagnostic(constant_field(0.1, 16), r0=1.0)
    assert d["mass_u"] == 0.0


def test_concentration_translation_equivariance(ground_states):
    # the diagnostic is discrete, so shift by a whole number m of grid steps
    # 2/N, about 0.3
    f = ground_states[0.1].field
    N = spectral.grid_size(f.num_modes)
    tau = 2.0 * round(0.15 * N) / N
    base = spectral.concentration_diagnostic(f, r0=2.0)
    shifted = spectral.concentration_diagnostic(f.shifted(-tau), r0=2.0)
    # f.shifted(-tau) maps features at 0 to +tau
    assert abs(shifted["y_center"] - (base["y_center"] + tau)) <= 0.02
    assert abs(shifted["mass_u"] - base["mass_u"]) <= 1e-8
