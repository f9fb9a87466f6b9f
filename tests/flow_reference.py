"""The Python loops that ``_flow.c`` compiles, as the tests' oracle.

``rk4`` and ``midpoint`` do the same double operations, in the same order,
as ``flow_rk4`` and ``flow_midpoint``, so the compiled loops must equal them
bit for bit; ``flow_rows`` runs them as ``integrate`` runs the compiled ones.
"""

import numpy as np

from cdelab import dynamics, integrators
from cdelab.errors import NewtonDivergence, NonFiniteState
from cdelab.integrators import OVERFLOW_LIMIT


def rk4(u, v, a, b, dt, n=1, out=None):
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


def midpoint(u, v, a, b, dt, newton_tol, max_iters, n=1, out=None):
    """n implicit midpoint steps on four floats, each Newton solve started
    from the explicit Euler predictor; ``out`` as in :func:`rk4`."""
    h, tol2, hi = 0.5 * dt, newton_tol * newton_tol, OVERFLOW_LIMIT
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
            # The bound t * t overflows only for t >= 1.3e154, where every
            # finite rr lies within it: the step is accepted, and the state
            # check ends the run.
            if rr <= tol2 or (
                    rr <= 2.0 * tol2 * (1.0 + xu * xu + xv * xv + xa * xa
                                        + xb * xb)
                    and rr <= (t := newton_tol * max(
                        1.0, abs(xu), abs(xv), abs(xa), abs(xb))) * t):
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


def flow_rows(s0, dt, n, method):
    """The rows t, u, v, a, b, H of n steps of the Python loops, raising what
    the compiled loops raise, with the same text."""
    kernel, extra = ((rk4, ()) if method == "rk4" else
                     (midpoint, (integrators.NEWTON_TOL,
                                 integrators.MAX_NEWTON_ITERS)))
    out = np.asarray(s0, dtype=float).tolist()      # flat: 4 floats a state
    try:
        kernel(*out, dt, *extra, n=n, out=out)
    except NewtonDivergence as exc:
        k = len(out) // 4
        raise NewtonDivergence(
            f"{exc} in step {k} from t = {dt * (k - 1):.6g}, "
            f"|s|_inf = {max(map(abs, out[-4:])):.3e}") from exc
    s = np.fromiter(out, float, len(out)).reshape(n + 1, 4)
    return np.c_[dt * np.arange(n + 1), s, dynamics.hamiltonian(s.T)]
