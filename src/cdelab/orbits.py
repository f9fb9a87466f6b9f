"""Periodic orbits: shooting, the small-oscillation family, and convergence
diagnostics against the homoclinic profile.

Shooting works on the section v(0) = 0 (both the homoclinic and the small
orbits cross it, by the time-reversal/swap symmetry).  Because periodic
orbits of an autonomous Hamiltonian system come in one-parameter families,
the closure system is solved in least-squares (Gauss-Newton) form: fixed
period with free (u0, a0, b0), or pinned amplitude with free (a0, b0, period)
for the family continuation.
"""

import numpy as np
from dataclasses import dataclass

from . import dynamics, integrators, linear, spectral, homoclinic
from .errors import NewtonDivergence, ConvergedToEquilibrium, NonConvergence

# re-exported closed-form machinery
from .homoclinic import (HomoclinicProfile, DerivationReport, derive_constants,
                         derived_profile, quoted_profile,
                         limit_energy_quadrature, DELTA0)

__all__ = [
    "PeriodicOrbit", "shoot_periodic", "lyapunov_family", "field_to_orbit",
    "distance_to_homoclinic", "period_energy_diagram",
    "HomoclinicProfile", "DerivationReport", "derive_constants",
    "derived_profile", "quoted_profile", "limit_energy_quadrature", "DELTA0",
]

#: result within this distance of an equilibrium is rejected as constant
EQUILIBRIUM_TOL = 1e-8


@dataclass
class PeriodicOrbit:
    """A converged periodic solution with half-period T.

    ``residual`` is the closure defect ||s(2T) - s(0)|| of the accepted
    initial state; ``energy`` is H at the initial state.
    """
    half_period: float
    initial_state: np.ndarray
    trajectory: integrators.Trajectory
    energy: float
    residual: float

    @property
    def period(self):
        return 2.0 * self.half_period


def _flow(s0_batch, t_span, n_steps):
    """RK4 flow map for a (4, m) batch of initial states."""
    dt = t_span / n_steps
    s = np.array(s0_batch, dtype=float)
    for _ in range(n_steps):
        s = integrators.rk4_step(s, dt)
    return s


def _distance_to_equilibria(s):
    return min(np.linalg.norm(s - p)
               for p in (dynamics.P0, dynamics.P_PLUS, dynamics.P_MINUS))


def _steps_for(period, dt):
    return max(400, int(np.ceil(period / dt)))


def _closure_system(dt, h, u0=None, period=None):
    """The closure map s0 -> s(P) - s0 on the section v(0) = 0.

    With the period P fixed the unknowns are x = (u0, a0, b0); with u0
    pinned they are x = (a0, b0, P).  Returns ``(closure, unpack)``:
    ``closure(x)`` gives the residual and its Jacobian, by forward
    differences with step h in the state unknowns (one batched flow) and,
    for a free period, the column f(s(P)); a non-positive P gives an
    infinite residual.  ``unpack(x)`` gives (s0, P).
    """
    free = [0, 2, 3] if u0 is None else [2, 3]

    def unpack(x):
        if u0 is None:
            return np.array([x[0], 0.0, x[1], x[2]]), period
        return np.array([u0, 0.0, x[0], x[1]]), x[2]

    def closure(x):
        s0, p = unpack(x)
        if p <= 0:
            return np.full(4, np.inf), None
        # first column is the base point, the rest FD perturbations
        batch = np.column_stack([s0] + [s0 + h * e for e in np.eye(4)[free]])
        end = _flow(batch, p, _steps_for(p, dt))
        res = end - batch
        jac = (res[:, 1:] - res[:, [0]]) / h
        if u0 is not None:
            jac = np.column_stack([jac, dynamics.vector_field(end[:, 0])])
        return res[:, 0], jac

    return closure, unpack


def _gauss_newton(closure, x, tol, max_iters, label):
    """Damped Gauss-Newton on ``closure(x) -> (residual, jacobian)``.

    Each step is the least-squares solution of J dx = -r, halved up to 20
    times until the residual norm decreases; an accepted trial's residual
    and Jacobian serve the next iteration.  Returns (x, ||residual||);
    raises NewtonDivergence when the line search stalls or max_iters steps
    do not reach tol.
    """
    r, jac = closure(x)
    rn = np.linalg.norm(r)
    for _ in range(max_iters):
        if rn <= tol:
            return x, rn
        dx, *_ = np.linalg.lstsq(jac, -r, rcond=None)
        step = 1.0
        for _ in range(20):
            x_try = x + step * dx
            r_try, jac_try = closure(x_try)
            rn_try = np.linalg.norm(r_try)
            if rn_try < rn:
                x, r, jac, rn = x_try, r_try, jac_try, rn_try
                break
            step *= 0.5
        else:
            raise NewtonDivergence(
                f"{label} stalled at closure residual {rn:.3e}")
    raise NewtonDivergence(
        f"{label} did not reach tolerance {tol}: closure residual {rn:.3e}")


def _shoot(x, dt, tol, max_iters, label, h, u0=None, period=None):
    """Solve one closure system and integrate the orbit it converges to."""
    closure, unpack = _closure_system(dt, h, u0=u0, period=period)
    x, rn = _gauss_newton(closure, x, tol, max_iters, label)
    s0, p = unpack(x)
    if _distance_to_equilibria(s0) <= EQUILIBRIUM_TOL:
        raise ConvergedToEquilibrium(f"{label} collapsed onto an equilibrium")
    tr = integrators.integrate(s0, p, integrators.StepperConfig(method="rk4", dt=dt))
    return PeriodicOrbit(half_period=float(p / 2.0), initial_state=s0,
                         trajectory=tr, energy=float(dynamics.hamiltonian(s0)),
                         residual=float(rn))


def shoot_periodic(T, guess, tol=1e-9, dt=2e-3, max_iters=25):
    """Find a 2T-periodic orbit through the section v(0) = 0 at fixed T.

    Gauss-Newton on the closure map s(2T) - s(0) over (u0, a0, b0); the
    phase condition v(0) = 0 removes the drift along the orbit.  Raises
    ConvergedToEquilibrium when the guess or result is an equilibrium
    (constant solutions are rejected), NewtonDivergence when the iteration
    stalls above tolerance.
    """
    if T <= 0:
        raise ValueError("T must be positive")
    guess = np.asarray(guess, dtype=float)
    if _distance_to_equilibria(guess) <= EQUILIBRIUM_TOL:
        raise ConvergedToEquilibrium("shooting guess is an equilibrium point")
    return _shoot(guess[[0, 2, 3]], dt, tol, max_iters, "shooting", h=1e-6,
                  period=2.0 * T)


def lyapunov_family(amplitudes, tol=1e-9, dt=None):
    """Continuation of small orbits around the center equilibrium.

    For each amplitude h the initial guess displaces the equilibrium along
    the real part of the elliptic eigenvector of the linearization, the
    section value u(0) = 1 + h is pinned, and Gauss-Newton solves for
    (a0, b0, period).  Periods approach 2*pi/2^(1/4) ... = 2^(3/4)*pi as the
    amplitude shrinks.
    """
    report = linear.eigenvalues_4x4(linear.matrix_c())
    omega = report.elliptic_omega
    t0 = linear.lyapunov_period(report)
    orbits = []
    for h in amplitudes:
        if h <= 0:
            raise ConvergedToEquilibrium(
                "amplitude 0 is the equilibrium itself")
        # elliptic-plane direction in the rotated chart: (1, 0, omega^2, 0)
        rot = dynamics.P_PLUS_ROTATED + h * np.array([1.0, 0.0, omega ** 2, 0.0])
        guess = dynamics.from_rotated(rot)
        orbits.append(_shoot(np.array([guess[2], guess[3], t0]),
                             dt or min(2e-3, t0 / 4000), tol, 30,
                             "family shooting", h=1e-7, u0=guess[0]))
    return orbits


def field_to_orbit(field):
    """Sample a converged spectral field as a periodic orbit in original time.

    The epsilon-chart field on [-1, 1] becomes a 2T-periodic trajectory on
    [-T, T] with T = 1/epsilon; v is the spectral derivative of u.  Closure
    is exact by periodicity, so the stored residual is the wrap-around state
    difference of the sampled trajectory.
    """
    T = 1.0 / field.epsilon
    N = spectral.grid_size(field.num_modes)
    s = spectral.grid(N)
    times = np.concatenate([s, [1.0]]) * T
    u = field.u_values(N)
    v = field.u_slope_values(N)
    z = field.z_values(N)
    states = np.column_stack([u, v, z[:, 0], z[:, 1]])
    states = np.vstack([states, states[0]])    # periodic wrap
    tr = integrators.Trajectory(times=times, states=states)
    residual = float(np.linalg.norm(states[-1] - states[0]))
    return PeriodicOrbit(half_period=T, initial_state=states[0].copy(),
                         trajectory=tr,
                         energy=float(np.mean(tr.energy_series)),
                         residual=residual)


def distance_to_homoclinic(orbit, profile=None, window=10.0):
    """Sup-norm distance to the time-shifted homoclinic profile.

    The orbit trajectory is restricted to the window |t - t_peak| <= window
    around its u-mass peak, and the shift t0 minimizing
    sup_t || orbit(t) - profile(t - t0) || is located by a coarse scan plus
    golden-section refinement.  Returns {"shift": t0, "sup_dist": d}.
    """
    if profile is None:
        profile = derived_profile()
    tr = orbit.trajectory
    peak = tr.times[int(np.argmax(np.abs(tr.states[:, 0])))]
    mask = np.abs(tr.times - peak) <= window
    times = tr.times[mask]
    states = tr.states[mask]

    def dist(shift):
        ref = profile(times - shift).T
        return float(np.max(np.linalg.norm(states - ref, axis=1)))

    # coarse scan centered on the peak, then golden-section refinement
    coarse = peak + np.linspace(-2.0, 2.0, 161)
    if not np.any(np.isclose(coarse, peak)):
        coarse = np.append(coarse, peak)
    values = [dist(s) for s in coarse]
    i = int(np.argmin(values))
    lo = coarse[max(0, i - 1)]
    hi = coarse[min(len(coarse) - 1, i + 1)]
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - phi * (b - a), a + phi * (b - a)
    fc, fd = dist(c), dist(d)
    for _ in range(80):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = dist(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = dist(d)
        if b - a < 1e-13:
            break
    shift = 0.5 * (a + b)
    best = dist(shift)
    if values[i] < best:
        shift, best = coarse[i], values[i]
    return {"shift": float(shift), "sup_dist": best}


def period_energy_diagram(eps_grid, modes=None, delta0=None, **solver_kwargs):
    """Ground-state energy versus period table.

    Runs the spectral ground-state solve at each epsilon and reports
    delta_eps together with its gap to the limit energy delta0 (computed by
    quadrature along the derived homoclinic).  Non-convergent entries are
    recorded with converged=False and the diagram is still emitted.
    """
    if delta0 is None:
        delta0 = limit_energy_quadrature()
    rows = []
    for eps in eps_grid:
        if not (0.0 < eps <= 0.25):
            raise ValueError("each epsilon must lie in (0, 1/4]")
        K = modes(eps) if callable(modes) else (modes or spectral.default_modes(eps))
        row = {"epsilon": float(eps), "T": 1.0 / eps, "delta_eps": np.nan,
               "gap": np.nan, "converged": False}
        try:
            result = spectral.ground_state(eps, K=K, **solver_kwargs)
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
