"""Periodic orbits: the small-oscillation family, the sampling of a solved
field in original time, and convergence diagnostics against the homoclinic
profile.

A 2T-periodic orbit is a zero of the spectral Euler-Lagrange residual at
eps = 1/T on the fields even under R(u, v, a, b) = (u, -v, b, a), found and
accepted by the ground states' solve, spectral._solve, so it is a
spectral.Solution as a ground state is.  The family starts
from the linear flow of the elliptic mode at P+, in closed form on the
collocation grid, so no time integration makes or checks an orbit: an RK4
closure grows with the Floquet multiplier (~1e6 at eps = 0.15) however
exact the orbit.  At a fixed period T on the branch the orbit is
spectral.ground_state(1/T).
"""

import numpy as np

from . import dynamics, homoclinic, integrators, linear, spectral
from .errors import NonConvergence

#: merit up to which an orbit is accepted (``lyapunov_family``'s default tol)
NEWTON_TOL = 1e-12
#: merit at which the family Newton solves stop: from the eigenmode start the
#: step that crosses NEWTON_TOL can land just under it (6.8e-13 at h = 1e-2,
#: whose RK4 closure then reads 1.25e-11), one more step reaches the rounding
#: floor (family merits measured 3e-16 to 2.9e-15)
STOP_TOL = 1e-14
#: period 2 pi/omega of the linear flow at P+, the family's limit period
T0 = 2.0 * np.pi / linear.OMEGA
#: smallest amplitude accepted: the orbit's largest term off k = 0 is 0.8185 h,
#: which is_constant's 1e-8 takes for a constant below h = 1.2217e-8
MIN_AMPLITUDE = 1.23e-8


def _eigenmode_start(h):
    """The field at eps = 2/T0 of P+ plus the linear flow of the elliptic
    mode d0 = h (1, 0, omega^2, 0) in the rotated chart, d(t) =
    cos(omega t) d0 + sin(omega t)/omega A d0 (omega = linear.OMEGA, A =
    linear.matrix_c(), A^2 d0 = -omega^2 d0), sampled on the collocation
    nodes of [-T0/2, T0/2)."""
    A = linear.matrix_c()
    omega = linear.OMEGA
    K = spectral.default_modes(2.0 / T0)
    t = spectral.grid(spectral.grid_size(K)) * (T0 / 2.0)
    d0 = h * np.array([1.0, 0.0, omega ** 2, 0.0])
    d = (np.outer(d0, np.cos(omega * t))
         + np.outer(A @ d0 / omega, np.sin(omega * t)))
    u, _, a, b = dynamics.from_rotated(dynamics.P_PLUS_ROTATED[:, None] + d)
    return spectral.field_from_values(2.0 / T0, K, np.stack([u, a, b]))


def lyapunov_family(amplitudes, tol=NEWTON_TOL):
    """Continuation of small orbits around the center equilibrium.

    The first amplitude h starts from the linear flow of the elliptic mode
    at P+ over the linear period T0 (see :func:`_eigenmode_start`); each
    later one starts from the previous solution.  The spectral Newton solve
    pins u(0) = 1 + h and finds the field and eps = 1/T, with the K of the
    first start, down to merit min(tol, STOP_TOL).  Each orbit is the
    :class:`spectral.Solution` that spectral._solve accepts at ``tol``, its
    merit Newton's last.  Periods approach 2*pi/2^(1/4) = 2^(3/4)*pi as the
    amplitude shrinks; an overflowing solve, at h of order 1e100, fails on
    the residual.  Raises ValueError unless every h is finite and at least
    MIN_AMPLITUDE = 1.23e-8 (h = 0 is the equilibrium itself)."""
    if not all(0.0 < h < np.inf for h in amplitudes):
        raise ValueError(f"each amplitude h must be > 0 and finite, "
                         f"got {list(amplitudes)}")
    if min(amplitudes, default=np.inf) < MIN_AMPLITUDE:
        raise ValueError(f"amplitude h = {min(amplitudes)!r} is below "
                         f"MIN_AMPLITUDE = {MIN_AMPLITUDE:g}")
    family = []
    with np.errstate(over="ignore", invalid="ignore"):   # fails on the merit
        for h in amplitudes:
            start = family[-1].field if family else _eigenmode_start(h)
            family.append(spectral._solve(start, tol, STOP_TOL, "family orbit",
                                          pin=1.0 + h))
    return family


def field_to_orbit(field):
    """The field sampled in original time on [-T, T], T = 1/epsilon, as a
    trajectory: the collocation nodes of [-1, 1] plus the periodic wrap,
    the states the field's ``grid_values``, and H along them.
    """
    T, vals = 1.0 / field.epsilon, field.grid_values
    N = vals.shape[1]
    rows = np.empty((N + 1, 6))
    rows[:N, 0], rows[N, 0] = spectral.grid(N) * T, T
    rows[:N, 1:5], rows[N, 1:5] = vals.T, vals[:, 0]
    rows[:, 5] = dynamics.hamiltonian(rows[:, 1:5].T)
    return integrators.Trajectory(rows)


def distance_to_homoclinic(tr):
    """Sup-norm distance of a trajectory (as :func:`field_to_orbit` samples
    an orbit) to the time-shifted derived homoclinic profile.

    The trajectory is restricted to the window |t - t_peak| <= 10 around its
    u-mass peak, and the shift t0 minimizing
    sup_t || tr(t) - profile(t - t0) || is located by a coarse scan plus
    scipy's bounded Brent refinement.  Returns {"shift": t0, "sup_dist": d}.
    """
    profile = homoclinic.derived_profile()
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

    Runs the spectral ground-state solve at each epsilon in (0, eps*] and
    reports delta_eps together with its gap to the limit energy
    homoclinic.DELTA0 = 9 pi/32.  eps* = spectral.EPS_STAR = 2^(1/4)/pi
    ends the branch.  Non-convergent entries are recorded with
    converged=False and the diagram is still emitted.
    """
    if not all(0.0 < eps <= spectral.EPS_STAR for eps in eps_grid):
        raise ValueError(f"each epsilon must lie in (0, eps*], eps* = "
                         f"{spectral.EPS_STAR:.6f}")
    delta0 = homoclinic.DELTA0
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
