import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cdelab import dynamics, homoclinic, integrators, linear
from cdelab.errors import NewtonDivergence, NonFiniteState, EmptyTrajectory


def test_equilibria_are_fixed_points():
    for p in (dynamics.P0, dynamics.P_PLUS, dynamics.P_MINUS):
        out = integrators.implicit_midpoint_step(p, 0.05)
        assert np.linalg.norm(out - p) <= integrators.NEWTON_TOL
        assert np.linalg.norm(integrators.rk4_step(p, 0.05) - p) <= 1e-15


def test_rk4_step_taylor_oracle():
    # second-order Taylor at (1,0,0,0): f = (0,1/4,0,0), (Jf) = (1/4,0,0,0)
    s = np.array([1.0, 0.0, 0.0, 0.0])
    dt = 1e-3
    f = np.array([0.0, 0.25, 0.0, 0.0])
    jf = np.array([0.25, 0.0, 0.0, 0.0])
    taylor = s + dt * f + 0.5 * dt ** 2 * jf
    out = integrators.rk4_step(s, dt)
    assert np.max(np.abs(out - taylor)) <= 1e-7


def _rk4_array_reference(s, dt):
    # the former array form of rk4_step and the vector field, as an oracle
    def f(s):
        u, v, a, b = s
        return np.stack([v, -(a * a + b * b - 0.25) * u,
                         -a + u * u * b, b - u * u * a])
    k1 = f(s)
    k2 = f(s + 0.5 * dt * k1)
    k3 = f(s + 0.5 * dt * k2)
    k4 = f(s + dt * k3)
    return s + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@pytest.mark.parametrize("dt", [1e-3, -2e-2])
def test_rk4_step_bitwise_equals_array_reference(dt):
    batch = np.random.default_rng(3).standard_normal((4, 7))
    for j in range(batch.shape[1]):
        ref = _rk4_array_reference(batch[:, j], dt)
        assert np.array_equal(integrators.rk4_step(batch[:, j], dt), ref)
    cfg = integrators.StepperConfig(method="rk4", dt=abs(dt))
    tr = integrators.integrate(batch[:, 0], 20 * dt, cfg)
    states = tr.states if dt > 0 else tr.states[::-1]
    for prev, nxt in zip(states[:-1], states[1:]):
        assert np.array_equal(nxt, _rk4_array_reference(prev, dt))


# components up to 3 in size, so the midpoint acceptance test also runs its
# max(1, |x|_inf) branch
box_states = st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4)
step_specs = st.tuples(st.floats(1e-4, 5e-2), st.sampled_from([1.0, -1.0]),
                       st.integers(1, 50))


@settings(max_examples=200, deadline=None, database=None)
@given(box_states, step_specs, st.sampled_from(["rk4", "implicit_midpoint"]))
def test_integrate_bitwise_equals_iterated_steps(s0, step_spec, method):
    size, sign, n = step_spec
    t_final = sign * size * n
    dt = t_final / n                    # the step integrate takes
    cfg = integrators.StepperConfig(method=method, dt=size)
    tr = integrators.integrate(s0, t_final, cfg)
    states = tr.states if dt > 0 else tr.states[::-1]
    assert states.shape == (n + 1, 4)
    assert np.array_equal(states[0], s0)
    for prev, nxt in zip(states[:-1], states[1:]):
        ref = (integrators.rk4_step(prev, dt) if method == "rk4" else
               integrators.implicit_midpoint_step(prev, dt))
        assert np.array_equal(nxt, ref)


def newton_correction_reference(u, a, b, r0, r1, r2, r3, h):
    """The midpoint kernel's closed-form Newton correction, as a reference:
    solve (I - h Df) d = r at (u, ., a, b).  Row 0 gives d0 = r0 + h d1;
    rows 1..3 in d1..d3, [1 + h hg, p, q], [-h q, 1 + h, -w], [h p, w, 1 - h],
    are reduced onto their (a, b) block, of det 1 - h² + w² > 0 for |h| < 1."""
    hu, hg = h * u, h * (a * a + b * b - 0.25)
    p, q, w = 2.0 * hu * a, 2.0 * hu * b, hu * u
    c2, c3 = r2 + q * r0, r3 - p * r0
    det_ab = 1.0 - h * h + w * w
    e2, e3 = (1.0 - h) * c2 + w * c3, (1.0 + h) * c3 - w * c2
    g2, g3 = h * (w * p - (1.0 - h) * q), h * ((1.0 + h) * p + w * q)
    det = (1.0 + h * hg) * det_ab - p * g2 - q * g3
    if det == 0.0 or det_ab == 0.0:
        raise NewtonDivergence("singular implicit midpoint Newton matrix")
    d1 = ((r1 - hg * r0) * det_ab - p * e2 - q * e3) / det
    return r0 + h * d1, d1, (e2 - g2 * d1) / det_ab, (e3 - g3 * d1) / det_ab


@pytest.mark.parametrize("dt", [1e-3, 1e-2])
def test_newton_correction_matches_dense_solve(dt):
    rng = np.random.default_rng(29)
    mids = rng.standard_normal((60, 4))
    # half of them with |b| in [1e4, 2e5], as deep in the escape
    mids[30:, :3] *= 0.1
    mids[30:, 3] = rng.uniform(1e4, 2e5, 30) * rng.choice([-1.0, 1.0], 30)
    h = 0.5 * dt
    for mid in mids:
        res = rng.standard_normal(4) * 10.0 ** rng.uniform(-14, 0)
        ref = np.linalg.solve(np.eye(4) - h * linear.jacobian_at(mid), res)
        d = newton_correction_reference(mid[0], mid[2], mid[3], *res, h)
        assert np.linalg.norm(np.array(d) - ref) <= 1e-12 * np.linalg.norm(ref)


def test_integrate_constant_from_equilibrium():
    cfg = integrators.StepperConfig(method="implicit_midpoint", dt=1e-2)
    tr = integrators.integrate(dynamics.P_PLUS, 10.0, cfg)
    assert np.max(np.abs(tr.states - dynamics.P_PLUS)) <= 1e-11
    assert integrators.energy_drift(tr) <= 1e-14


def test_rk4_tracks_homoclinic_profile():
    # closed-form orbit as an exact-solution oracle
    prof = homoclinic.derived_profile()
    cfg = integrators.StepperConfig(method="rk4", dt=1e-3)
    tr = integrators.integrate(prof(0.0), 10.0, cfg)
    reference = prof(tr.times).T
    assert np.max(np.abs(tr.states - reference)) <= 1e-6


def test_time_reversal_of_the_flow():
    # integrating forward then swapping equals integrating the swapped state
    # backward
    s0 = np.array([1.1, 0.05, 0.3, 0.35])
    cfg = integrators.StepperConfig(method="rk4", dt=1e-3)
    fwd = integrators.integrate(s0, 5.0, cfg)
    back = integrators.integrate(dynamics.time_reversal_swap(s0), -5.0, cfg)
    # back.times runs [-5, 0]; back.states[-1] is the initial state
    swapped = dynamics.time_reversal_swap(fwd.states.T).T
    np.testing.assert_allclose(back.states[::-1], swapped, rtol=0, atol=1e-8)


def test_midpoint_is_time_symmetric():
    s = np.array([1.05, 0.02, 0.33, 0.37])
    fwd = integrators.implicit_midpoint_step(s, 1e-2)
    back = integrators.implicit_midpoint_step(fwd, -1e-2)
    assert np.linalg.norm(back - s) <= 1e-11


def test_energy_drift_zero_on_constant():
    times = np.linspace(0.0, 1.0, 11)
    states = np.tile(dynamics.P_PLUS, (11, 1))
    assert integrators.energy_drift(integrators.Trajectory(times, states)) == 0.0


def test_midpoint_drift_small_and_second_order(lyapunov_orbits):
    # The equilibria are saddle-centers (Floquet exponent 2^(1/4)), so any
    # nonconstant bounded orbit can be shadowed in double precision only up
    # to t ~ 20 before the hyperbolic direction amplifies rounding; the
    # drift law is checked on that attainable window.
    orb = lyapunov_orbits[1e-2]
    drifts = {}
    for dt in (2e-3, 1e-3):
        cfg = integrators.StepperConfig(method="implicit_midpoint", dt=dt)
        tr = integrators.integrate(orb.initial_state, 15.0, cfg)
        drifts[dt] = integrators.energy_drift(tr)
    assert drifts[1e-3] <= 1e-8
    ratio = drifts[2e-3] / drifts[1e-3]
    assert 3.0 <= ratio <= 5.0        # O(dt^2)


def test_rk4_order_four_by_step_halving(lyapunov_orbits):
    # the end-state error against a dt = 2.5e-3 run (2.2e-9 and 1.4e-10);
    # the energy drift at dt = 1e-2 is 5e-15, too near rounding for a ratio
    orb = lyapunov_orbits[1e-2]

    def end_state(dt):
        cfg = integrators.StepperConfig(method="rk4", dt=dt)
        return integrators.integrate(orb.initial_state, 4.0, cfg).states[-1]

    ref = end_state(2.5e-3)
    errors = {dt: np.max(np.abs(end_state(dt) - ref)) for dt in (4e-2, 2e-2)}
    ratio = errors[4e-2] / errors[2e-2]
    assert 11.0 <= ratio <= 22.0      # ~16x for a fourth-order method


def test_nonfinite_state_detected():
    cfg = integrators.StepperConfig(method="rk4", dt=0.1)
    with pytest.raises(NonFiniteState):
        integrators.integrate(np.array([1e9, 1e9, 0.0, 1e3]), 60.0, cfg)


@pytest.mark.parametrize("k", range(4))
def test_nan_in_any_component_detected(k):
    s0 = np.array([1.0, 0.5, 0.3, 0.2])
    s0[k] = np.nan
    with pytest.raises(NonFiniteState):
        integrators.integrate(s0, 0.5, integrators.StepperConfig(method="rk4",
                                                                 dt=0.1))
    with pytest.raises(NewtonDivergence):
        integrators.integrate(s0, 0.5, integrators.StepperConfig(dt=0.1))


def test_singular_newton_matrix_raises_newton_divergence():
    # dt = 2 zeroes row 3 of I - (dt/2) Df at u = 0
    with pytest.raises(NewtonDivergence, match="singular"):
        integrators.implicit_midpoint_step([0.0, 0.0, 0.3, 0.2], 2.0)


@pytest.fixture
def strict_newton(monkeypatch):
    """A midpoint Newton tolerance that one correction cannot reach."""
    monkeypatch.setattr(integrators, "NEWTON_TOL", 1e-16)
    monkeypatch.setattr(integrators, "MAX_NEWTON_ITERS", 1)


def test_newton_divergence_raised(strict_newton):
    with pytest.raises(NewtonDivergence):
        integrators.implicit_midpoint_step(np.array([1.0, 0.5, 0.3, 0.2]), 1.0)


def test_newton_divergence_names_step_time_and_size(strict_newton):
    cfg = integrators.StepperConfig(method="implicit_midpoint", dt=1.0)
    with pytest.raises(NewtonDivergence,
                       match=r"in step 1 from t = 0, \|s\|_inf = 1\.000e\+00"):
        integrators.integrate(np.array([1.0, 0.5, 0.3, 0.2]), 3.0, cfg)


def test_singular_newton_matrix_names_step_in_integrate():
    with pytest.raises(NewtonDivergence,
                       match=r"singular .* in step 1 from t = 0"):
        integrators.integrate([0.0, 0.0, 0.3, 0.2], 4.0,
                              integrators.StepperConfig(dt=2.0))


def test_integrate_rejects_more_than_max_steps():
    # checked before anything is stored: a run of 1e300 steps would grow
    # until memory is gone
    s0 = [1.0, 0.0, 0.3, 0.35]
    for t_final, dt, steps in [(1.0, 1e-300, r"1e\+300"),
                               (1e300, 1e-3, r"1e\+303"),
                               (1e300, 1e-300, "inf"),
                               ((integrators.MAX_STEPS + 1) * 0.5, 0.5,
                                r"1e\+07")]:
        cfg = integrators.StepperConfig(method="rk4", dt=dt)
        with pytest.raises(ValueError, match=f"= {steps} steps exceeds "
                                             "MAX_STEPS = 10000000"):
            integrators.integrate(s0, t_final, cfg)


def test_nan_start_overflows_after_first_step():
    cfg = integrators.StepperConfig(method="rk4", dt=0.1)
    with pytest.raises(NonFiniteState, match="after step 1$"):
        integrators.integrate([np.nan, 0.5, 0.3, 0.2], 0.5, cfg)


def test_newton_converges_at_large_state():
    # Deep in the escape along the unstable direction |s| grows far past 1e4
    # (still below OVERFLOW_LIMIT); the residual's rounding floor grows with
    # it, so the default tolerance must scale with max(1, |x|_inf).
    rng = np.random.default_rng(17)
    for b in np.concatenate([rng.uniform(1e4, 2e4, 30),
                             rng.uniform(1e5, 2e5, 30)]):
        s = np.array([*(0.1 * rng.standard_normal(3)), b])
        out = integrators.implicit_midpoint_step(s, 1e-3)
        assert np.all(np.isfinite(out))


def midpoint_step_reference(s, dt, newton_tol, max_iters=25):
    """One implicit midpoint step in the kernel's operation order, accepting
    by the documented rule alone: ‖res‖ <= newton_tol * max(1, ‖x‖∞)."""
    u, v, a, b = s
    w, h = u * u, 0.5 * dt
    x = [u + dt * v, v + dt * (-(a * a + b * b - 0.25) * u),
         a + dt * (-a + w * b), b + dt * (b - w * a)]
    for _ in range(max_iters + 1):
        mu, ma, mb = 0.5 * (u + x[0]), 0.5 * (a + x[2]), 0.5 * (b + x[3])
        w = mu * mu
        r = [x[0] - u - dt * (0.5 * (v + x[1])),
             x[1] - v - dt * (-(ma * ma + mb * mb - 0.25) * mu),
             x[2] - a - dt * (-ma + w * mb), x[3] - b - dt * (mb - w * ma)]
        rr = r[0] * r[0] + r[1] * r[1] + r[2] * r[2] + r[3] * r[3]
        if rr <= (newton_tol * max(1.0, *map(abs, x))) ** 2:
            return x
        d = newton_correction_reference(mu, ma, mb, *r, h)
        x = [xi - di for xi, di in zip(x, d)]
    raise NewtonDivergence("reference Newton stalled")


def test_midpoint_acceptance_is_the_documented_rule():
    # loose tolerances and large states put many residuals near the bound,
    # where a pre-test that rejected too much would add a Newton step
    def midpoint(s, dt, tol):
        return list(integrators._midpoint(*s.tolist(), dt, tol,
                                          integrators.MAX_NEWTON_ITERS))

    rng = np.random.default_rng(23)
    for _ in range(2000):
        s = rng.standard_normal(4) * 10.0 ** rng.uniform(-1, 3, 4)
        dt = 10.0 ** rng.uniform(-4, -2)
        tol = 10.0 ** rng.uniform(-12, -4)
        try:
            want = midpoint_step_reference(s.tolist(), dt, tol)
        except NewtonDivergence:
            with pytest.raises(NewtonDivergence):
                midpoint(s, dt, tol)
            continue
        assert midpoint(s, dt, tol) == want


def test_empty_trajectory_guard():
    tr = integrators.Trajectory(times=np.empty(0), states=np.empty((0, 4)))
    with pytest.raises(EmptyTrajectory):
        integrators.energy_drift(tr)


def test_config_validation():
    with pytest.raises(ValueError):
        integrators.StepperConfig(dt=-1.0)
    with pytest.raises(ValueError):
        integrators.StepperConfig(method="euler")
    with pytest.raises(ValueError):
        integrators.integrate(dynamics.P0, 0.0,
                              integrators.StepperConfig(dt=1e-2))
    for bad in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match=f"dt must be .*, got {bad!r}"):
            integrators.StepperConfig(dt=bad)
