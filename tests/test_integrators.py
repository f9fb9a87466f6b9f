import dataclasses
import os
import subprocess
import sys
import sysconfig
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import flow_reference
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
    tr = integrators.integrate(batch[:, 0], 20 * dt, abs(dt), "rk4")
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
    tr = integrators.integrate(s0, t_final, size, method)
    states = tr.states if dt > 0 else tr.states[::-1]
    assert states.shape == (n + 1, 4)
    assert np.array_equal(states[0], s0)
    # each state is one step of the compiled loops, and of the Python ones
    for prev, nxt in zip(states[:-1], states[1:]):
        if method == "rk4":
            ref = integrators.rk4_step(prev, dt)
            loop = flow_reference.rk4(*prev.tolist(), dt)
        else:
            ref = integrators.implicit_midpoint_step(prev, dt)
            loop = flow_reference.midpoint(*prev.tolist(), dt,
                                           integrators.NEWTON_TOL,
                                           integrators.MAX_NEWTON_ITERS)
        assert np.array_equal(nxt, ref) and ref.tolist() == list(loop)


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
    tr = integrators.integrate(dynamics.P_PLUS, 10.0, 1e-2)
    assert np.max(np.abs(tr.states - dynamics.P_PLUS)) <= 1e-11
    assert integrators.energy_drift(tr) <= 1e-14


def test_rk4_tracks_homoclinic_profile():
    # closed-form orbit as an exact-solution oracle
    prof = homoclinic.derived_profile()
    tr = integrators.integrate(prof(0.0), 10.0, 1e-3, "rk4")
    reference = prof(tr.times).T
    assert np.max(np.abs(tr.states - reference)) <= 1e-6


def test_time_reversal_of_the_flow():
    # integrating forward then swapping equals integrating the swapped state
    # backward
    s0 = np.array([1.1, 0.05, 0.3, 0.35])
    cfg = dict(dt=1e-3, method="rk4")
    fwd = integrators.integrate(s0, 5.0, **cfg)
    back = integrators.integrate(dynamics.time_reversal_swap(s0), -5.0, **cfg)
    # back.times runs [-5, 0]; back.states[-1] is the initial state
    swapped = dynamics.time_reversal_swap(fwd.states.T).T
    np.testing.assert_allclose(back.states[::-1], swapped, rtol=0, atol=1e-8)


def test_midpoint_is_time_symmetric():
    s = np.array([1.05, 0.02, 0.33, 0.37])
    fwd = integrators.implicit_midpoint_step(s, 1e-2)
    back = integrators.implicit_midpoint_step(fwd, -1e-2)
    assert np.linalg.norm(back - s) <= 1e-11


def test_energy_drift_zero_on_constant():
    rows = np.c_[np.linspace(0.0, 1.0, 11), np.tile(dynamics.P_PLUS, (11, 1)),
                 np.full(11, dynamics.hamiltonian(dynamics.P_PLUS))]
    assert integrators.energy_drift(integrators.Trajectory(rows)) == 0.0


def test_midpoint_drift_small_and_second_order(lyapunov_orbits):
    # The equilibria are saddle-centers (Floquet exponent 2^(1/4)), so any
    # nonconstant bounded orbit can be shadowed in double precision only up
    # to t ~ 20 before the hyperbolic direction amplifies rounding; the
    # drift law is checked on that attainable window.
    orb = lyapunov_orbits[1e-2]
    drifts = {}
    for dt in (2e-3, 1e-3):
        tr = integrators.integrate(orb.initial_state, 15.0, dt)
        drifts[dt] = integrators.energy_drift(tr)
    assert drifts[1e-3] <= 1e-8
    ratio = drifts[2e-3] / drifts[1e-3]
    assert 3.0 <= ratio <= 5.0        # O(dt^2)


def test_rk4_order_four_by_step_halving(lyapunov_orbits):
    # the end-state error against a dt = 2.5e-3 run (2.2e-9 and 1.4e-10);
    # the energy drift at dt = 1e-2 is 5e-15, too near rounding for a ratio
    orb = lyapunov_orbits[1e-2]

    def end_state(dt):
        tr = integrators.integrate(orb.initial_state, 4.0, dt, "rk4")
        return tr.states[-1]

    ref = end_state(2.5e-3)
    errors = {dt: np.max(np.abs(end_state(dt) - ref)) for dt in (4e-2, 2e-2)}
    ratio = errors[4e-2] / errors[2e-2]
    assert 11.0 <= ratio <= 22.0      # ~16x for a fourth-order method


def test_nonfinite_state_detected():
    with pytest.raises(NonFiniteState):
        integrators.integrate([1e9, 1e9, 0.0, 1e3], 60.0, 0.1, "rk4")


@pytest.mark.parametrize("k", range(4))
def test_nan_in_any_component_detected(k):
    s0 = np.array([1.0, 0.5, 0.3, 0.2])
    s0[k] = np.nan
    with pytest.raises(NonFiniteState):
        integrators.integrate(s0, 0.5, 0.1, "rk4")
    with pytest.raises(NewtonDivergence):
        integrators.integrate(s0, 0.5, 0.1)


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
    # a step is integrate's first, and its failure is named so
    with pytest.raises(NewtonDivergence, match=r"^implicit midpoint Newton "
                       r"stalled at residual .* in step 1 from t = 0, "
                       r"\|s\|_inf = 1\.000e\+00$"):
        integrators.implicit_midpoint_step(np.array([1.0, 0.5, 0.3, 0.2]), 1.0)


@pytest.mark.parametrize("s", [[np.nan, 0.5, 0.3, 0.2], [1.0, 2e12, 0.0, 0.0]],
                         ids=["nan", "overflow"])
def test_rk4_step_raises_on_a_nonfinite_or_overflowing_state(s):
    with pytest.raises(NonFiniteState, match="^state overflow after step 1$"):
        integrators.rk4_step(s, 0.1)


def test_newton_divergence_names_step_time_and_size(strict_newton):
    with pytest.raises(NewtonDivergence,
                       match=r"in step 1 from t = 0, \|s\|_inf = 1\.000e\+00"):
        integrators.integrate(np.array([1.0, 0.5, 0.3, 0.2]), 3.0, 1.0)


def test_singular_newton_matrix_names_step_in_integrate():
    with pytest.raises(NewtonDivergence,
                       match=r"singular .* in step 1 from t = 0"):
        integrators.integrate([0.0, 0.0, 0.3, 0.2], 4.0, 2.0)


def test_integrate_rejects_more_than_max_steps():
    # checked before anything is stored: a run of 1e300 steps would grow
    # until memory is gone
    s0 = [1.0, 0.0, 0.3, 0.35]
    for t_final, dt, steps in [(1.0, 1e-300, r"1e\+300"),
                               (1e300, 1e-3, r"1e\+303"),
                               (1e300, 1e-300, "inf"),
                               ((integrators.MAX_STEPS + 1) * 0.5, 0.5,
                                r"1e\+07")]:
        with pytest.raises(ValueError, match=f"= {steps} steps exceeds "
                                             "MAX_STEPS = 10000000"):
            integrators.integrate(s0, t_final, dt, "rk4")


def test_nan_start_overflows_after_first_step():
    with pytest.raises(NonFiniteState, match="after step 1$"):
        integrators.integrate([np.nan, 0.5, 0.3, 0.2], 0.5, 0.1, "rk4")


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


def _check_the_documented_rule(midpoint):
    # loose tolerances and large states put many residuals near the bound,
    # where a pre-test that rejected too much would add a Newton step
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


def test_midpoint_acceptance_is_the_documented_rule():
    def midpoint(s, dt, tol):
        return list(flow_reference.midpoint(*s.tolist(), dt, tol,
                                            integrators.MAX_NEWTON_ITERS))

    _check_the_documented_rule(midpoint)


def test_integrate_midpoint_acceptance_is_the_documented_rule(monkeypatch):
    # one step of integrate, which reads NEWTON_TOL when called
    def midpoint(s, dt, tol):
        monkeypatch.setattr(integrators, "NEWTON_TOL", tol)
        return integrators.integrate(s, dt, dt).states[1].tolist()

    _check_the_documented_rule(midpoint)


def test_trajectory_is_one_table():
    # one field, the (n, 6) rows t, u, v, a, b, H; the rest are its columns
    assert [f.name for f in dataclasses.fields(integrators.Trajectory)] == [
        "rows"]
    tr = integrators.integrate([1.0, 0.0, 0.3, 0.35], -0.5, 0.1, "rk4")
    assert len(tr) == 6 and tr.rows.shape == (6, 6)
    for view, cols in ((tr.times, 0), (tr.states, slice(1, 5)),
                       (tr.energy_series, 5)):
        assert view.base is tr.rows and np.array_equal(view, tr.rows[:, cols])
    with pytest.raises(dataclasses.FrozenInstanceError):
        tr.rows = tr.rows.copy()


def test_empty_trajectory_guard():
    tr = integrators.Trajectory(np.empty((0, 6)))
    with pytest.raises(EmptyTrajectory):
        integrators.energy_drift(tr)


def test_config_validation():
    # integrate checks dt, then the method, then t_final
    with pytest.raises(ValueError, match=r"dt must be .*, got -1\.0$"):
        integrators.integrate(dynamics.P0, 1.0, -1.0)
    with pytest.raises(ValueError, match="^unknown method 'euler'$"):
        integrators.integrate(dynamics.P0, 1.0, 1e-2, "euler")
    with pytest.raises(ValueError, match="t_final must be .*, got 0.0$"):
        integrators.integrate(dynamics.P0, 0.0, 1e-2)
    for bad in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match=f"dt must be .*, got {bad!r}$"):
            integrators.integrate(dynamics.P0, np.nan, bad, "euler")
    with pytest.raises(ValueError, match="^unknown method 'euler'$"):
        integrators.integrate(dynamics.P0, np.nan, 1e-2, "euler")
    # a scalar would broadcast into the first state
    for s0, shape in [(1.0, r"\(\)"), ([1.0, 0.0, 0.3], r"\(3,\)"),
                      (np.ones((4, 1)), r"\(4, 1\)")]:
        with pytest.raises(ValueError, match=f"got shape {shape}"):
            integrators.integrate(s0, 1.0, 0.1)


# ----------------------------------------------------------------------
# the compiled flow kernel against the Python loops

def _outcome(s0, t_final, method, dt):
    """integrate's rows t, u, v, a, b, H as bytes, or the type and text of
    what it raised and of that exception's cause."""
    try:
        tr = integrators.integrate(s0, t_final, dt, method)
    except (NonFiniteState, NewtonDivergence) as exc:
        cause = exc.__cause__
        return type(exc), str(exc), type(cause), str(cause)
    return (tr.rows.tobytes(),)


def _loop_outcome(s0, t_final, method, dt):
    """_outcome of the Python loops, on integrate's grid."""
    n = max(1, int(round(abs(t_final) / dt)))
    dt = t_final / n
    try:
        rows = flow_reference.flow_rows(s0, dt, n, method)
    except (NonFiniteState, NewtonDivergence) as exc:
        cause = exc.__cause__
        return type(exc), str(exc), type(cause), str(cause)
    return ((rows[::-1] if dt < 0 else rows).tobytes(),)


def _parity_runs():
    # states 1e-2 to 10, |dt| 1e-4 to 3e-2, 10 to 5,000 steps; about one run
    # in ten ends in overflow (RK4) or a Newton stall (midpoint)
    rng = np.random.default_rng(37)
    for i in range(240):
        s0 = rng.choice([-1.0, 1.0], 4) * 10.0 ** rng.uniform(-2, 1, 4)
        dt = 10.0 ** rng.uniform(-4, np.log10(3e-2))
        n = int(10.0 ** rng.uniform(1, np.log10(5000)))
        yield (s0, rng.choice([-1.0, 1.0]) * n * dt,
               ("rk4", "implicit_midpoint")[i % 2], dt)
    yield [0.0, 0.0, 0.3, 0.2], 4.0, "implicit_midpoint", 2.0     # singular
    yield [np.nan, 0.5, 0.3, 0.2], 0.5, "rk4", 0.1
    yield [0.5, np.inf, 0.3, 0.2], 0.5, "implicit_midpoint", 0.1  # stall, nan
    yield [1.0, 1.1e12, 0.0, 0.0], 0.02, "implicit_midpoint", 1e-2  # overflow
    # the exact acceptance bound (NEWTON_TOL max(1, |x|_inf))^2 overflows to
    # inf, so the step is accepted and the state check ends the run
    yield [-3.223729286484272e90, 1.0, 0.0, 1.0], -3.8, "implicit_midpoint", 1.9


def test_compiled_kernel_matches_the_python_loops():
    runs = list(_parity_runs())
    compiled = [_outcome(*run) for run in runs]
    assert [_loop_outcome(*run) for run in runs] == compiled
    ends = {o[0] for o in compiled if len(o) == 4}
    assert ends == {NonFiniteState, NewtonDivergence}
    assert sum(len(o) == 1 for o in compiled) >= 200


def test_compiled_kernel_stall_text(strict_newton):
    # rr ** 0.5 is taken in Python, from the residual the kernel returns
    runs = [([1.0, 0.5, 0.3, 0.2], 3.0, "implicit_midpoint", 1.0),
            ([0.3, -0.2, 2.0, 1.5], -0.5, "implicit_midpoint", 0.1)]
    compiled = [_outcome(*run) for run in runs]
    assert [_loop_outcome(*run) for run in runs] == compiled
    assert all("stalled at residual" in o[1] for o in compiled)


@pytest.mark.parametrize("method", ["rk4", "implicit_midpoint"])
def test_python_loops_give_the_same_bytes(method):
    s0 = homoclinic.derived_profile()(-2.0)
    tr = integrators.integrate(s0, 7.5, dt=1e-3, method=method)
    loops = flow_reference.flow_rows(s0, 7.5 / 7500, 7500, method)
    assert tr.times.tobytes() == loops[:, 0].tobytes()
    assert tr.states.tobytes() == loops[:, 1:5].tobytes()
    assert tr.energy_series.tobytes() == loops[:, 5].tobytes()


@pytest.mark.parametrize("t_final", [7.5, -7.5])
@pytest.mark.parametrize("method", ["rk4", "implicit_midpoint"])
def test_flow_kernel_writes_the_grid_and_the_energy(method, t_final):
    # the rows' t is numpy's dt * arange and their H dynamics.hamiltonian's,
    # bit for bit, as the Python loops' rows; backwards the grid still
    # increases, from t_final to -0.0
    s0 = homoclinic.derived_profile()(-2.0)
    t = (t_final / 7500) * np.arange(7501)
    t = t[::-1] if t_final < 0 else t
    tr = integrators.integrate(s0, t_final, 1e-3, method)
    assert tr.rows.shape == (7501, 6) and tr.rows.flags.c_contiguous
    assert tr.times.tobytes() == t.tobytes()
    assert (tr.energy_series.tobytes()
            == dynamics.hamiltonian(tr.states.T).tobytes())
    assert tr.rows[:, 1:5].tobytes() == tr.states.tobytes()
    loops = flow_reference.flow_rows(s0, t_final / 7500, 7500, method)
    assert tr.rows.tobytes() == (loops[::-1] if t_final < 0 else
                                 loops).tobytes()


def test_kernel_builds_and_loads_where_a_compiler_exists(tmp_path,
                                                         monkeypatch):
    # a cold build in an empty directory, not the cached library
    source = Path(integrators.__file__).with_name("_flow.c")
    (tmp_path / "_flow.c").write_bytes(source.read_bytes())
    monkeypatch.setattr(integrators, "__file__",
                        str(tmp_path / "integrators.py"))
    lib = integrators._flow_kernel.__wrapped__()
    built = list((tmp_path / "__pycache__").iterdir())
    assert [p.name for p in built] == [Path(lib._name).name]
    assert built[0].name.startswith("_flow.") and built[0].suffix == ".so"
    # a second call loads the cached library and builds nothing
    integrators._flow_kernel.__wrapped__()
    assert list((tmp_path / "__pycache__").iterdir()) == built


@pytest.mark.parametrize("source, cc, text", [
    ("not C\n", None, "not C"),                  # the compiler's stderr
    (None, "false", "Command '['false', "),      # the failed command
    (None, 'cc -DX="', "No closing quotation"),  # a CC shlex cannot split
], ids=["source", "compiler", "command"])
def test_failed_build_raises_and_leaves_no_file(source, cc, text, tmp_path,
                                                monkeypatch, caplog):
    # a RuntimeError, which the CLI does not report as bad input, naming its
    # cause; nothing logged, and no file left in __pycache__
    if source is not None:
        (tmp_path / "_flow.c").write_text(source)
        monkeypatch.setattr(integrators, "__file__",
                            str(tmp_path / "integrators.py"))
    if cc is not None:
        monkeypatch.setattr(sysconfig, "get_config_var", lambda name: cc)
    cache = Path(integrators.__file__).with_name("__pycache__")
    files = set(cache.glob("*"))
    caplog.set_level("DEBUG")
    with pytest.raises(RuntimeError, match="^_flow.c was not built or "
                                           "loaded: ") as raised:
        integrators._flow_kernel.__wrapped__()
    assert text in str(raised.value)
    assert type(raised.value) is RuntimeError and raised.value.__cause__
    assert not caplog.records
    assert set(cache.glob("*")) == files


def test_rebuild_removes_the_superseded_library(tmp_path, monkeypatch):
    source = Path(integrators.__file__).with_name("_flow.c")
    (tmp_path / "_flow.c").write_bytes(source.read_bytes())
    monkeypatch.setattr(integrators, "__file__",
                        str(tmp_path / "integrators.py"))
    cache = tmp_path / "__pycache__"
    # another interpreter's build is not this one's to remove
    cache.mkdir()
    other = cache / "_flow.other-99.0123456789abcdef.so"
    other.write_bytes(b"")
    first = Path(integrators._flow_kernel.__wrapped__()._name)
    (tmp_path / "_flow.c").write_bytes(source.read_bytes() + b"\n")
    second = Path(integrators._flow_kernel.__wrapped__()._name)
    assert second != first
    assert sorted(cache.iterdir()) == sorted([other, second])


def test_import_builds_and_loads_nothing():
    code = ("import cdelab.cli, cdelab.integrators as i; "
            "print(i._flow_kernel.cache_info().currsize)")
    src = str(Path(integrators.__file__).parent.parent)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout == "0\n"
