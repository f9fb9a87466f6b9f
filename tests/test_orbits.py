import numpy as np
import pytest

from cdelab import (dynamics, homoclinic, integrators, linear, orbits,
                    spectral)
from cdelab.errors import NonConvergence

T0 = 2.0 ** 0.75 * np.pi


# ----------------------------------------------------------------------
# homoclinic derivation

def test_derived_constants():
    rep = homoclinic.derive_constants()
    assert rep.alpha_sq == 1.5
    assert rep.beta_sq == 0.375
    assert rep.residual_derived <= 1e-10
    # the quoted amplitude pair does not satisfy the system; its residual is
    # recorded, not asserted to equal anything
    assert rep.residual_quoted > 0.0


def test_profile_pinned_point_and_energy(homoclinic_profile):
    s0 = homoclinic_profile(0.0)
    np.testing.assert_allclose(
        s0, [np.sqrt(1.5), 0.0, np.sqrt(0.375), np.sqrt(0.375)], atol=1e-15)
    t = np.linspace(-10.0, 10.0, 4001)
    assert np.max(np.abs(homoclinic_profile.energy(t))) <= 1e-12
    assert np.max(homoclinic_profile.ode_residual(t)) <= 1e-10


def test_profile_decay_to_saddle(homoclinic_profile):
    for t in (20.0, -20.0):
        assert np.linalg.norm(homoclinic_profile(t)) <= 1e-4


def test_profile_time_reversal_symmetry(homoclinic_profile):
    t = np.linspace(-7.0, 7.0, 101)
    swapped = dynamics.time_reversal_swap(homoclinic_profile(-t))
    np.testing.assert_allclose(swapped, homoclinic_profile(t), atol=1e-15)


def test_limit_energy_quadrature_oracle():
    # (9/8) int cosh^-3 = (9/8)(pi/2) = 9 pi / 32
    val = homoclinic.limit_energy_quadrature()
    assert abs(val - 9.0 * np.pi / 32.0) <= 1e-8
    assert abs(homoclinic.DELTA0 - 9.0 * np.pi / 32.0) == 0.0


# ----------------------------------------------------------------------
# periodic orbits

#: periods of the family at amplitudes 1e-2, 1e-3, 1e-4 from the damped
#: Gauss-Newton shooting solver the spectral solver replaced (RK4 closure
#: flows, dt = t0/4000, closure tolerance 1e-9)
SHOOTING_PERIODS = {1e-2: 5.285211422657067, 1e-3: 5.283524649604041,
                    1e-4: 5.283508226067543}


@pytest.mark.parametrize("max_iters", [1, 2])
def test_newton_history_ends_with_the_merit_of_the_returned_field(
        monkeypatch, max_iters):
    # the budget runs out before the merit reaches tol (0.707 at the start,
    # 0.157 after one step and 0.067 after two; 8 steps reach 7.7e-15)
    eps = 1.0 / 2.65
    start = spectral._periodized_homoclinic(eps, spectral.default_modes(eps))
    monkeypatch.setattr(spectral, "MAX_NEWTON_ITERS", max_iters)
    with pytest.raises(NonConvergence, match="spectral residual") as info:
        spectral._solve(start, 1e-12, 1e-12, "ground state")
    best = info.value.best
    assert best.report.steps == max_iters
    # the field is Newton's iterate and the norm Newton's expression
    merit = best.field.spectrum.norm(spectral.gradient(best.field).x)
    assert best.report.merits[-1] == merit
    assert best.report.merits[-1] > 1e-12


@pytest.mark.parametrize("eps", [0.025, 0.1, 0.3])
def test_ground_state_merit_is_the_last_newton_merit(eps):
    # 0, 2 and 4 Newton steps from the periodized homoclinic
    sol = spectral.ground_state(eps)
    merit = sol.field.spectrum.norm(spectral.gradient(sol.field).x)
    assert sol.merit == sol.report.merits[-1] == merit


@pytest.mark.parametrize("eps", [0.03, 0.04])
def test_hamiltonian_to_full_relative_precision(eps):
    # H is taken at t = -T, the node farthest from the pulse.  There the
    # tails of the pulse and of its period translate meet: each tail is
    # u ~ alpha sqrt(2) e^(-|t|/2) with (alpha sqrt(2))^2 = 3, so u(T) ~
    # 2 sqrt(3) e^(-T/2), v(T) = 0 by symmetry, and a, b = O(e^(-3T/2)).
    # So H ~ -u^2/8 = -(3/2) e^(-1/eps) (measured -1.5000000041 and
    # -1.5000000001); at the peak t = 0, where H is a difference of O(1)
    # terms, the same product reads -7.08 and -1.4979
    sol = spectral.ground_state(eps)
    assert abs(sol.hamiltonian * np.exp(1.0 / eps) + 1.5) <= 1e-6


def test_lyapunov_family_period_limit(lyapunov_orbits):
    periods = {h: orb.period for h, orb in lyapunov_orbits.items()}
    assert abs(periods[1e-3] - T0) / T0 <= 0.01
    # periods decrease monotonically toward T0 as the amplitude shrinks
    assert periods[1e-2] > periods[1e-3] > periods[1e-4] > T0 - 1e-6


def test_lyapunov_family_shrinks_to_equilibrium(lyapunov_orbits):
    dists = [np.max(np.linalg.norm(
        orbits.field_to_orbit(orb.field).states - dynamics.P_PLUS, axis=1))
             for orb in (lyapunov_orbits[1e-2], lyapunov_orbits[1e-3],
                         lyapunov_orbits[1e-4])]
    assert dists[0] > dists[1] > dists[2]
    for orb in lyapunov_orbits.values():
        assert orb.merit <= 1e-9
        assert np.linalg.norm(orb.initial_state - dynamics.P_PLUS) >= 1e-6


def test_lyapunov_family_pins_the_section_and_closes(lyapunov_orbits):
    for h, orb in lyapunov_orbits.items():
        tr = orbits.field_to_orbit(orb.field)
        states = tr.states
        assert orb.initial_state[1] == 0.0
        assert abs(orb.initial_state[0] - (1.0 + h)) <= 1e-12
        t0_node = len(states) // 2           # the samples span [-T, T]
        assert tr.times[t0_node] == 0.0
        assert np.max(np.abs(states[t0_node] - orb.initial_state)) <= 1e-14
        assert np.array_equal(states[-1], states[0])
        assert orb.merit <= 1e-12
        # the ODE's own flow closes too: RK4 over one period
        tr = integrators.integrate(orb.initial_state, orb.period, T0 / 4000,
                                   "rk4")
        assert np.linalg.norm(tr.states[-1] - orb.initial_state) <= 1e-11


def test_lyapunov_family_to_the_truncation_edge():
    # K = 17 from the start holds to h = 0.205 (eps = 0.2504, tail <= 3.2e-9)
    hs = [0.01, 0.05, 0.1, 0.15, 0.18, 0.2, 0.205]
    for orb in orbits.lyapunov_family(hs):
        assert orb.merit <= orbits.NEWTON_TOL
    with pytest.raises(NonConvergence, match="truncated: K = 17 modes"):
        orbits.lyapunov_family(hs + [0.21])


def test_lyapunov_family_runs_no_time_integration(monkeypatch):
    def integrate(*args, **kwargs):
        raise AssertionError("lyapunov_family ran integrators.integrate")
    monkeypatch.setattr(integrators, "integrate", integrate)
    assert len(orbits.lyapunov_family([1e-2, 1e-3])) == 2


@pytest.mark.parametrize("h", [0.15, 0.2, 0.205])
def test_lyapunov_family_cold_starts_far_up_the_branch(h):
    # the eigenmode start at h alone converges; the bordered line search
    # halves trial steps that would take eps to zero or below
    orb, = orbits.lyapunov_family([h])
    assert orb.merit <= orbits.STOP_TOL
    assert abs(orb.initial_state[0] - (1.0 + h)) <= 1e-12


def test_lyapunov_family_cold_start_past_the_truncation_edge():
    # K = 17 leaves a coefficient tail of 1.43e-8 at h = 0.21
    with pytest.raises(NonConvergence, match="truncated: K = 17 modes") as info:
        orbits.lyapunov_family([0.21])
    best = info.value.best
    assert isinstance(best, spectral.Solution)
    assert best.report.stop == "truncated"
    assert spectral.TAIL_TOL < best.report.tail <= 1.5e-8
    assert best.merit == best.report.merits[-1] <= orbits.STOP_TOL


def test_lyapunov_family_polishes_below_a_loose_tol():
    # tol bounds acceptance only: Newton stopped at merit 1e-3 would return
    # the eigenmode start itself, whose merit is 7.1e-4 at h = 1e-2
    orb, = orbits.lyapunov_family([1e-2], tol=1e-3)
    assert orb.merit <= orbits.NEWTON_TOL


def test_lyapunov_family_matches_the_shooting_periods(lyapunov_orbits):
    for h, orb in lyapunov_orbits.items():
        assert abs(orb.period - SHOOTING_PERIODS[h]) <= 1e-7, h


def test_lyapunov_amplitude_zero_rejected():
    # h = 0 is the equilibrium itself: invalid input, as h < 0 is
    with pytest.raises(ValueError, match="amplitude h"):
        orbits.lyapunov_family([0.0])


def test_lyapunov_family_floor_is_the_smallest_resolved_amplitude():
    # at MIN_AMPLITUDE the largest coefficient off k = 0 clears is_constant's
    # bound 1e-8 by under 1%, so the floor is tight; below it the family
    # raises (test_cli_lyapunov_rejects_amplitudes_below_the_floor)
    orb, = orbits.lyapunov_family([orbits.MIN_AMPLITUDE])
    f = orb.field
    coeffs = np.stack([f.u_coeffs, f.z_plus, f.z_minus])
    assert 1e-8 < np.abs(coeffs[:, f.spectrum.k != 0]).max() <= 1.01e-8


def test_lyapunov_family_solutions_carry_their_report(lyapunov_orbits):
    for orb in lyapunov_orbits.values():
        assert isinstance(orb, spectral.Solution)
        assert orb.merit == orb.report.merits[-1]
        assert orb.report.stop == "converged"
        assert orb.report.tail <= spectral.TAIL_TOL
        assert orb.delta_eps == orb.energy.total
        # the family passes the ground states' Nehari check with room
        assert orb.nehari.max_relative() <= 1e-12


def test_lyapunov_family_off_the_branch_stops_on_the_residual():
    # the message ends with the merit, which the CLI test parses
    with pytest.raises(NonConvergence, match="spectral residual") as info:
        orbits.lyapunov_family([0.25])
    best = info.value.best
    assert best.report.stop == "residual"
    assert best.merit > orbits.NEWTON_TOL
    assert str(info.value).split()[-1] == f"{best.merit:.3e}"


# ----------------------------------------------------------------------
# distance to the homoclinic

def profile_orbit(shift=0.0, half_window=15.0):
    prof = homoclinic.derived_profile()
    times = np.linspace(-half_window, half_window, 3001)
    states = prof(times - shift)
    return integrators.Trajectory(
        np.c_[times, states.T, dynamics.hamiltonian(states)])


def test_distance_zero_on_profile_samples():
    d = orbits.distance_to_homoclinic(profile_orbit())
    assert d["sup_dist"] <= 1e-12
    assert abs(d["shift"]) <= 1e-9


def test_distance_recovers_shift():
    d = orbits.distance_to_homoclinic(profile_orbit(shift=1.3))
    assert abs(d["shift"] - 1.3) <= 1e-2
    assert d["sup_dist"] <= 1e-6


def test_ground_state_orbit_near_homoclinic(ground_states):
    d = orbits.distance_to_homoclinic(
        orbits.field_to_orbit(ground_states[0.05].field))
    assert d["sup_dist"] <= 5e-2


def test_field_to_orbit_invariants(ground_states):
    orb = ground_states[0.1]
    tr = orbits.field_to_orbit(orb.field)
    assert orb.merit <= 1e-9
    assert orb.half_period == tr.times[-1] == 10.0
    states = tr.states
    assert np.array_equal(states[-1], states[0])      # periodic closure
    t0_node = len(states) // 2
    assert tr.times[t0_node] == 0.0
    assert np.max(np.abs(states[t0_node] - orb.initial_state)) <= 1e-14
    assert orb.initial_state[1] == 0.0                # R-even: v(0) = 0
    assert orb.hamiltonian == dynamics.hamiltonian(states[0])   # t = -T
    assert tr.rows.shape == (len(states), 6) and tr.rows.flags.c_contiguous
    assert tr.rows[0, 5] == orb.hamiltonian             # H is in the table
    drift = np.max(np.abs(tr.energy_series - tr.energy_series[0]))
    assert drift <= 1e-8                              # H constant on the orbit
    dmin = min(np.linalg.norm(orb.initial_state - p)
               for p in (dynamics.P0, dynamics.P_PLUS, dynamics.P_MINUS))
    assert dmin >= 1e-6                               # nonconstant


@pytest.mark.parametrize("eps", [0.03, 0.05, 0.1, 0.2, 0.3, 0.37])
def test_energy_is_constant_along_a_ground_state_table(eps):
    # H from the table's own state columns; measured 4.8e-14 at eps = 0.03
    # up to 1.5e-12 at 0.3
    sol = spectral.ground_state(eps)
    tr = orbits.field_to_orbit(sol.field)
    assert tr.rows[0, 5] == sol.hamiltonian
    assert integrators.energy_drift(tr) <= 3e-12


def test_energy_is_constant_along_family_tables():
    # measured 2.8e-17 and 4.2e-17; at h = 0.2 the drift reads 5.6e-11,
    # where the family's fixed truncation K = 17 binds, so it is not
    # asserted there
    for orb in orbits.lyapunov_family([1e-2, 0.1]):
        tr = orbits.field_to_orbit(orb.field)
        assert tr.rows[0, 5] == orb.hamiltonian
        assert integrators.energy_drift(tr) <= 1e-15


def test_field_to_orbit_samples_the_field(ground_states):
    # one real transform of the packed field against the complex ones, v =
    # eps du/ds; the shifted field has Im u_k != 0
    for field in (ground_states[0.05].field, spectral.cutoff_test_pair(0.2),
                  ground_states[0.1].field.shifted(0.3)):
        states = orbits.field_to_orbit(field).states[:-1]
        N = len(states)
        du = spectral.derivative_coeffs(field.u_coeffs) * field.epsilon
        ref = np.column_stack([
            spectral.coeffs_to_values(c, N).real
            for c in (field.u_coeffs, du, *field.z_ab_coeffs().T)])
        assert np.max(np.abs(states - ref)) <= 1e-13


# ----------------------------------------------------------------------
# continuation diagram

def test_period_energy_diagram(ground_states):
    diagram = orbits.period_energy_diagram([0.2, 0.1])
    assert diagram["delta0"] == homoclinic.DELTA0
    rows = diagram["rows"]
    assert all(row["converged"] for row in rows)
    assert rows[0]["gap"] > rows[1]["gap"]
    for row in rows:
        assert row["delta_eps"] < 1.0 / (4.0 * row["epsilon"])
        assert row["T"] == 1.0 / row["epsilon"]


def test_eps_star_is_one_constant_for_both_branch_checks():
    # 2^(1/4)/pi and 2/T0 round to neighbouring floats; both checks read
    # spectral.EPS_STAR, the first
    below, above = 0.3785363814254702, 0.37853638142547025
    assert spectral.EPS_STAR == below == 2.0 ** 0.25 / np.pi
    assert np.nextafter(below, 1.0) == above == 2.0 / orbits.T0
    row, = orbits.period_energy_diagram([below])["rows"]
    assert row["epsilon"] == below and not row["converged"]
    with pytest.raises(ValueError, match=r"\(0, eps\*\], eps\* = 0\.378536"):
        orbits.period_energy_diagram([above])
    # both solves fail at merit 5.078e-07; only the second is past the end
    for eps, past in ((below, False), (above, True)):
        with pytest.raises(NonConvergence, match="5.078e-07") as info:
            spectral.ground_state(eps)
        assert ("past the branch's end at eps* = 2^(1/4)/pi = 0.3785"
                in str(info.value)) is past


def test_period_energy_diagram_validates_eps():
    # the branch is (0, eps*], eps* = 2/t0 = 2^(1/4)/pi, where the small
    # orbits around the center end
    omega = np.max(np.abs(np.linalg.eigvals(linear.matrix_c()).imag))
    eps_star = 2.0 / (2.0 * np.pi / omega)
    assert abs(eps_star - 2.0 ** 0.25 / np.pi) <= 1e-15
    for bad in (0.0, -0.1, eps_star, 2.0 / orbits.T0, 0.39):
        with pytest.raises(ValueError):
            orbits.period_energy_diagram([0.2, bad])
