"""Periodic orbits: the spectral orbit solver, the small-oscillation family,
and convergence diagnostics against the homoclinic profile.

A 2T-periodic orbit is a zero of the spectral Euler-Lagrange residual at
eps = 1/T, found by the Newton-Krylov core of the ground-state solver on the
fields even under R(u, v, a, b) = (u, -v, b, a), so it crosses v(0) = 0 at
t = 0 with a(0) = b(0).  Newton starts from the field of an RK4 run over
one period and returns a field, whose t = 0 state starts the orbit.  The
family continuation pins the amplitude u(0) and solves for eps too.  The
reported residual is the closure defect ||s(2T) - s(0)|| of the RK4 run
over one period from the t = 0 state.
"""

import numpy as np
from dataclasses import dataclass

from . import dynamics, homoclinic, integrators, linear, spectral
from .errors import NewtonDivergence, ConvergedToEquilibrium, NonConvergence

#: result within this distance of an equilibrium is rejected as constant
EQUILIBRIUM_TOL = 1e-8

#: merit at which the orbit Newton solves stop; the quadratically converging
#: step that crosses it mostly lands near the rounding floor (~3e-16), and
#: the RK4 closure defects measured 1e-14 to 5e-11
NEWTON_TOL = 1e-12

#: bound on the RK4 closure residual of a returned orbit (the family's
#: default ``tol``)
CLOSURE_TOL = 1e-9


@dataclass
class PeriodicOrbit:
    """A converged periodic solution with half-period T.

    ``residual`` is the closure defect ||s(2T) - s(0)|| of ``trajectory``,
    the run from the initial state; ``energy`` is H at the initial state.
    """
    half_period: float
    initial_state: np.ndarray
    trajectory: integrators.Trajectory
    energy: float
    residual: float

    @property
    def period(self):
        return 2.0 * self.half_period


def _distance_to_equilibria(s):
    return min(np.linalg.norm(s - p)
               for p in (dynamics.P0, dynamics.P_PLUS, dynamics.P_MINUS))


def _sample(s0, T, K):
    """The field at eps = 1/T, K modes, of the RK4 run from s0 over one
    period 2T, one step per collocation node (s0 lands on the node t = 0)."""
    N = spectral.grid_size(K)
    tr = integrators.integrate(s0, 2.0 * T, integrators.StepperConfig(
        method="rk4", dt=2.0 * T / N))
    states = np.roll(tr.states[:-1], N // 2, axis=0)
    return spectral.field_from_values(1.0 / T, K, states[:, 0], states[:, 2:])


def _orbit(field, dt, tol, label):
    """The orbit through the t = 0 state (u(0), 0, a(0), b(0)) of the field,
    integrated with RK4 over one period 2T = 2/field.epsilon; raises when
    that state is an equilibrium or the run's closure defect exceeds tol."""
    T = 1.0 / field.epsilon
    s0 = np.array([field.u_coeffs.sum().real, 0.0,
                   *field.z_ab_coeffs().sum(axis=0).real])
    if _distance_to_equilibria(s0) <= EQUILIBRIUM_TOL:
        raise ConvergedToEquilibrium(f"{label} collapsed onto an equilibrium")
    tr = integrators.integrate(s0, 2.0 * T, integrators.StepperConfig(
        method="rk4", dt=dt))
    rn = float(np.linalg.norm(tr.states[-1] - s0))
    if not rn <= tol:
        raise NewtonDivergence(
            f"{label} did not reach tolerance {tol}: closure residual {rn:.3e}")
    return PeriodicOrbit(half_period=float(T), initial_state=s0,
                         trajectory=tr, energy=float(dynamics.hamiltonian(s0)),
                         residual=rn)


def shoot_periodic(T, guess, max_iters=25):
    """Find a 2T-periodic orbit through the section v(0) = 0 at fixed T.

    The RK4 run from ``guess`` over 2T, sampled on the collocation nodes,
    starts at most ``max_iters`` spectral Newton steps at eps = 1/T with K =
    default_modes(eps).  Raises ConvergedToEquilibrium when the guess or
    result is an equilibrium, NewtonDivergence when the closure residual
    (RK4, step 2e-3) is above CLOSURE_TOL.
    """
    if not 0.0 < T < np.inf:
        raise ValueError(f"T must be positive and finite, got {T!r}")
    guess = np.asarray(guess, dtype=float)
    if _distance_to_equilibria(guess) <= EQUILIBRIUM_TOL:
        raise ConvergedToEquilibrium("orbit guess is an equilibrium point")
    field = _sample(guess, T, spectral.default_modes(1.0 / T))
    field, *_ = spectral._newton(field, field.epsilon, NEWTON_TOL, max_iters)
    return _orbit(field, 2e-3, CLOSURE_TOL, "periodic orbit")


def lyapunov_family(amplitudes, tol=CLOSURE_TOL):
    """Continuation of small orbits around the center equilibrium.

    The first amplitude h starts from the equilibrium displaced along the
    real part of the elliptic eigenvector of the linearization, sampled over
    the linear period t0; each later one starts from the previous solution.
    The spectral Newton solve pins u(0) = 1 + h and finds the field and
    eps = 1/T.  ``tol`` bounds each orbit's RK4 closure residual (step
    t0/4000).  Periods approach 2*pi/2^(1/4) ... = 2^(3/4)*pi as the
    amplitude shrinks.  Raises ValueError for a negative or non-finite h and
    ConvergedToEquilibrium for h = 0, the equilibrium itself.
    """
    if not all(0.0 <= h < np.inf for h in amplitudes):
        raise ValueError(f"each amplitude h must be >= 0 and finite, "
                         f"got {list(amplitudes)}")
    report = linear.eigenvalues_4x4(linear.matrix_c())
    omega = report.elliptic_omega
    t0 = linear.lyapunov_period(report)
    field = None
    orbits = []
    for h in amplitudes:
        if h == 0:
            raise ConvergedToEquilibrium(
                "amplitude 0 is the equilibrium itself")
        if field is None:
            # elliptic-plane direction in the rotated chart: (1, 0, omega^2, 0)
            rot = dynamics.P_PLUS_ROTATED + h * np.array([1.0, 0.0, omega ** 2, 0.0])
            field = _sample(dynamics.from_rotated(rot), t0 / 2.0,
                            spectral.default_modes(2.0 / t0))
        field, *_ = spectral._newton(field, field.epsilon, NEWTON_TOL, 30,
                                     pin=1.0 + h)
        orbits.append(_orbit(field, t0 / 4000, tol, "family orbit"))
    return orbits


def field_to_orbit(field):
    """Sample a converged spectral field as a periodic orbit in original time.

    The epsilon-chart field on [-1, 1] becomes a 2T-periodic trajectory on
    [-T, T] with T = 1/epsilon; v is the spectral derivative of u.  Closure
    is exact by periodicity, so the stored residual is the wrap-around state
    difference of the sampled trajectory.
    """
    T = 1.0 / field.epsilon
    s = spectral.grid(spectral.grid_size(field.num_modes))
    times = np.concatenate([s, [1.0]]) * T
    u = field.u_values()
    v = field.u_slope_values()
    z = field.z_values()
    states = np.column_stack([u, v, z[:, 0], z[:, 1]])
    states = np.vstack([states, states[0]])    # periodic wrap
    tr = integrators.Trajectory(times=times, states=states)
    residual = float(np.linalg.norm(states[-1] - states[0]))
    return PeriodicOrbit(half_period=T, initial_state=states[0].copy(),
                         trajectory=tr,
                         energy=float(np.mean(tr.energy_series)),
                         residual=residual)


def distance_to_homoclinic(orbit):
    """Sup-norm distance to the time-shifted derived homoclinic profile.

    The orbit trajectory is restricted to the window |t - t_peak| <= 10
    around its u-mass peak, and the shift t0 minimizing
    sup_t || orbit(t) - profile(t - t0) || is located by a coarse scan plus
    scipy's bounded Brent refinement.  Returns {"shift": t0, "sup_dist": d}.
    """
    profile = homoclinic.derived_profile()
    tr = orbit.trajectory
    peak = tr.times[int(np.argmax(np.abs(tr.states[:, 0])))]
    mask = np.abs(tr.times - peak) <= 10.0
    times = tr.times[mask]
    states = tr.states[mask]

    def dist(shift):
        ref = profile(times - shift).T
        return float(np.max(np.linalg.norm(states - ref, axis=1)))

    # coarse scan centered on the peak, then bounded Brent refinement
    from scipy.optimize import minimize_scalar
    coarse = peak + np.linspace(-2.0, 2.0, 161)
    if not np.any(np.isclose(coarse, peak)):
        coarse = np.append(coarse, peak)
    values = [dist(s) for s in coarse]
    i = int(np.argmin(values))
    fit = minimize_scalar(dist, method="bounded", options={"xatol": 1e-13},
                          bounds=(coarse[max(0, i - 1)],
                                  coarse[min(len(coarse) - 1, i + 1)]))
    shift, best = fit.x, float(fit.fun)
    if values[i] < best:
        shift, best = coarse[i], values[i]
    return {"shift": float(shift), "sup_dist": best}


def period_energy_diagram(eps_grid):
    """Ground-state energy versus period table.

    Runs the spectral ground-state solve at each epsilon in (0, eps*) and
    reports delta_eps together with its gap to the limit energy delta0
    (computed by quadrature along the derived homoclinic).  eps* = 2/t0 =
    2^(1/4)/pi, t0 the linear period at the center, ends the branch.
    Non-convergent entries are recorded with converged=False and the diagram
    is still emitted.
    """
    eps_star = 2.0 / linear.lyapunov_period(
        linear.eigenvalues_4x4(linear.matrix_c()))
    if not all(0.0 < eps < eps_star for eps in eps_grid):
        raise ValueError(
            f"each epsilon must lie in (0, eps*), eps* = {eps_star:.6f}")
    delta0 = homoclinic.limit_energy_quadrature()
    rows = []
    for eps in eps_grid:
        row = {"epsilon": float(eps), "T": 1.0 / eps, "delta_eps": np.nan,
               "gap": np.nan, "converged": False}
        try:
            result = spectral.ground_state(eps)
            row["delta_eps"] = result.delta_eps
            row["gap"] = abs(result.delta_eps - delta0)
            row["converged"] = True
            row["result"] = result
        except NonConvergence as exc:
            row["error"] = str(exc)
            if exc.best is not None:
                row["result"] = exc.best
        rows.append(row)
    return {"delta0": float(delta0), "rows": rows}
