"""Fixed-step time integration of the cylinder system with energy monitoring.

Two steppers are provided: the implicit midpoint rule (symplectic for this
canonical Hamiltonian system, the conservative default for long-time runs)
and classical RK4 for cross-validation and high-accuracy short-horizon
tracking.  Steps are uniform; the phase space is low-dimensional and smooth,
so no adaptive control is attempted.  Each method is one fused loop on the
four state components, with the vector field written inline and the midpoint
Newton step solved in closed form: ``integrate`` runs a whole trajectory in
one call of it, and the single-step functions run it for one step.
"""

import numpy as np
from dataclasses import dataclass, field

from . import dynamics
from .errors import NewtonDivergence, NonFiniteState, EmptyTrajectory

#: a trajectory component beyond this magnitude signals escape along the
#: hyperbolic direction
OVERFLOW_LIMIT = 1e12

#: most steps ``integrate`` takes (it keeps every state, ~0.2 kB per step)
MAX_STEPS = 10 ** 7

#: implicit-midpoint Newton: a step is accepted once ``‖res‖ <= NEWTON_TOL *
#: max(1, ‖x‖∞)``, relative to the state size, since an absolute bound would
#: sit below the residual's rounding floor once |s| reaches ~1e4, far short
#: of OVERFLOW_LIMIT; NewtonDivergence after MAX_NEWTON_ITERS corrections
NEWTON_TOL = 1e-12
MAX_NEWTON_ITERS = 25


@dataclass(frozen=True)
class StepperConfig:
    """Fixed-step integrator settings."""
    method: str = "implicit_midpoint"   # or "rk4"
    dt: float = 1e-3

    def __post_init__(self):
        if not 0.0 < self.dt < np.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt!r}")
        if self.method not in ("implicit_midpoint", "rk4"):
            raise ValueError(f"unknown method {self.method!r}")


@dataclass
class Trajectory:
    """Dense solution samples on a uniform, strictly increasing time grid."""
    times: np.ndarray
    states: np.ndarray          # shape (n, 4)
    energy_series: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.energy_series is None:
            self.energy_series = dynamics.hamiltonian(self.states.T)

    def __len__(self):
        return len(self.times)


def _rk4(u, v, a, b, dt, n=1, out=None):
    """n RK4 steps on four floats, with the vector field inline in the
    array form's operation order.  Given a list ``out``, each new
    state is appended to it and must lie within OVERFLOW_LIMIT (NaN fails)."""
    h, c, hi = 0.5 * dt, dt / 6.0, OVERFLOW_LIMIT
    lo = -hi
    for i in range(n):
        w = u * u
        k1u, k1v = v, -(a * a + b * b - 0.25) * u
        k1a, k1b = -a + w * b, b - w * a
        x, p, q = u + h * k1u, a + h * k1a, b + h * k1b
        w = x * x
        k2u, k2v = v + h * k1v, -(p * p + q * q - 0.25) * x
        k2a, k2b = -p + w * q, q - w * p
        x, p, q = u + h * k2u, a + h * k2a, b + h * k2b
        w = x * x
        k3u, k3v = v + h * k2v, -(p * p + q * q - 0.25) * x
        k3a, k3b = -p + w * q, q - w * p
        x, p, q = u + dt * k3u, a + dt * k3a, b + dt * k3b
        w = x * x
        # the fourth stage's field (v + dt k3v, ...) enters the sums inline
        u = u + c * (k1u + 2.0 * k2u + 2.0 * k3u + (v + dt * k3v))
        v = v + c * (k1v + 2.0 * k2v + 2.0 * k3v + -(p * p + q * q - 0.25) * x)
        a = a + c * (k1a + 2.0 * k2a + 2.0 * k3a + (-p + w * q))
        b = b + c * (k1b + 2.0 * k2b + 2.0 * k3b + (q - w * p))
        if out is not None:
            out += u, v, a, b
            if not (lo <= u <= hi and lo <= v <= hi
                    and lo <= a <= hi and lo <= b <= hi):
                raise NonFiniteState(f"state overflow after step {i + 1}")
    return u, v, a, b


def _midpoint(u, v, a, b, dt, newton_tol, max_iters, n=1, out=None):
    """n implicit midpoint steps on four floats, each Newton solve started
    from the explicit Euler predictor; ``out`` as in :func:`_rk4`."""
    h, tol2, hi = 0.5 * dt, newton_tol ** 2, OVERFLOW_LIMIT
    lo = -hi
    for i in range(n):
        w = u * u
        xu, xv = u + dt * v, v + dt * (-(a * a + b * b - 0.25) * u)
        xa, xb = a + dt * (-a + w * b), b + dt * (b - w * a)
        it = 0
        while True:
            mu, ma, mb = 0.5 * (u + xu), 0.5 * (a + xa), 0.5 * (b + xb)
            w, g = mu * mu, ma * ma + mb * mb - 0.25
            r0 = xu - u - dt * (0.5 * (v + xv))
            r1 = xv - v - dt * (-g * mu)
            r2, r3 = xa - a - dt * (-ma + w * mb), xb - b - dt * (mb - w * ma)
            rr = r0 * r0 + r1 * r1 + r2 * r2 + r3 * r3
            # ‖res‖ <= newton_tol * max(1, ‖x‖∞), compared squared (cheaper).
            # That squared bound lies in [tol2, tol2 * (1 + ‖x‖₂²)], so max()
            # is needed only for rr between tol2 and twice the upper end: the
            # factor 2 exceeds the few roundings of either side (while tol2
            # does not underflow, newton_tol >= 1e-160), so an rr above it
            # fails the exact test too.  NaN fails every test; an inf in x
            # passes the pre-test and leaves the decision to the exact one.
            if rr <= tol2 or (
                    rr <= 2.0 * tol2 * (1.0 + xu * xu + xv * xv + xa * xa
                                        + xb * xb)
                    and rr <= (newton_tol * max(
                        1.0, abs(xu), abs(xv), abs(xa), abs(xb))) ** 2):
                break
            if it == max_iters:
                raise NewtonDivergence("implicit midpoint Newton stalled at "
                                       f"residual {rr ** 0.5:.3e}")
            it += 1
            # solve (I - h Df) d = r at the midpoint: row 0 gives d0 = r0 +
            # h d1; rows 1..3 in d1..d3, [1 + h hg, p, q], [-h q, 1 + h, -hw]
            # and [h p, hw, 1 - h], are reduced onto their (a, b) block, of
            # det 1 - h² + hw² > 0 for |h| < 1
            hu, hg = h * mu, h * g
            p, q, hw = 2.0 * hu * ma, 2.0 * hu * mb, hu * mu
            c2, c3 = r2 + q * r0, r3 - p * r0
            det_ab = 1.0 - h * h + hw * hw
            e2, e3 = (1.0 - h) * c2 + hw * c3, (1.0 + h) * c3 - hw * c2
            g2, g3 = h * (hw * p - (1.0 - h) * q), h * ((1.0 + h) * p + hw * q)
            det = (1.0 + h * hg) * det_ab - p * g2 - q * g3
            if det == 0.0 or det_ab == 0.0:
                raise NewtonDivergence(
                    "singular implicit midpoint Newton matrix")
            d1 = ((r1 - hg * r0) * det_ab - p * e2 - q * e3) / det
            xu, xv = xu - (r0 + h * d1), xv - d1
            xa, xb = xa - (e2 - g2 * d1) / det_ab, xb - (e3 - g3 * d1) / det_ab
        u, v, a, b = xu, xv, xa, xb
        if out is not None:
            out += u, v, a, b
            if not (lo <= u <= hi and lo <= v <= hi
                    and lo <= a <= hi and lo <= b <= hi):
                raise NonFiniteState(f"state overflow after step {i + 1}")
    return u, v, a, b


def rk4_step(s, dt):
    """One classical Runge-Kutta step of a (4,) state."""
    s = np.asarray(s, dtype=float).tolist()
    return np.array(_rk4(*s, dt))


def implicit_midpoint_step(s, dt):
    """One implicit midpoint step, midpoint fixed point solved by Newton.

    The iterate x is accepted once the residual of x = s + dt f((s + x)/2)
    satisfies ``‖res‖ <= NEWTON_TOL * max(1, ‖x‖∞)``, i.e. the tolerance is
    absolute for unit-size states and relative beyond (NewtonDivergence
    if not met within MAX_NEWTON_ITERS, or if the Newton matrix is singular).
    """
    s = np.asarray(s, dtype=float).tolist()
    return np.array(_midpoint(*s, dt, NEWTON_TOL, MAX_NEWTON_ITERS))


def integrate(s0, t_final, cfg):
    """Integrate from t=0 to t=t_final on a uniform grid.

    Negative t_final integrates backwards; the returned trajectory is then
    reported on the increasing grid [t_final, 0].  The step count is
    round(|t_final| / dt), so dt is adjusted slightly when it does not divide
    t_final evenly.  Raises NonFiniteState when a component is NaN or exceeds
    1e12, and re-raises an implicit-midpoint NewtonDivergence naming the step,
    its start time and ‖s‖∞.  Raises ValueError unless t_final is finite and
    nonzero and |t_final| / dt is at most MAX_STEPS.
    """
    if not 0.0 < abs(t_final) < np.inf:
        raise ValueError(f"t_final must be finite and nonzero, got {t_final!r}")
    n_steps = abs(t_final) / cfg.dt
    if not n_steps <= MAX_STEPS:
        raise ValueError(f"|t_final| / dt = {n_steps:.3g} steps exceeds "
                         f"MAX_STEPS = {MAX_STEPS}")
    s0 = np.asarray(s0, dtype=float)
    n_steps = max(1, int(round(n_steps)))
    dt = t_final / n_steps              # signed
    kernel, extra = ((_rk4, ()) if cfg.method == "rk4" else
                     (_midpoint, (NEWTON_TOL, MAX_NEWTON_ITERS)))

    out = s0.tolist()                   # flat: 4 floats per state
    try:
        kernel(*out, dt, *extra, n=n_steps, out=out)
    except NewtonDivergence as exc:
        k = len(out) // 4               # the failing step
        raise NewtonDivergence(
            f"{exc} in step {k} from t = {dt * (k - 1):.6g}, "
            f"|s|_inf = {max(map(abs, out[-4:])):.3e}") from exc
    states = np.fromiter(out, float, len(out)).reshape(n_steps + 1, 4)
    times = dt * np.arange(n_steps + 1)
    if dt < 0:
        times = times[::-1].copy()
        states = states[::-1].copy()
    return Trajectory(times=times, states=states)


def energy_drift(tr):
    """max_k |H(s_k) - H(s_0)| along a trajectory."""
    if len(tr) == 0:
        raise EmptyTrajectory("cannot measure drift of an empty trajectory")
    return float(np.max(np.abs(tr.energy_series - tr.energy_series[0])))
