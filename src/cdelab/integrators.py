"""Fixed-step time integration of the cylinder system with energy monitoring.

Two steppers are provided: the implicit midpoint rule (symplectic for this
canonical Hamiltonian system, the conservative default for long-time runs)
and classical RK4 for cross-validation and high-accuracy short-horizon
tracking.  Steps are uniform; the phase space is low-dimensional and smooth,
so no adaptive control is attempted.  Each method is one fused loop on the
four state components, with the vector field written inline and the midpoint
Newton step solved in closed form; the single-step functions run it for one
step.  ``integrate`` runs a whole trajectory in the same loops compiled from
``_flow.c``, which do the same double operations in the same order and so
give the same bits.  The C file is built once, on the first ``integrate``
call or ``serialize`` write, into ``__pycache__``; where no C compiler can
build it, ``integrate`` runs the Python loops.
"""

import contextlib
import ctypes
import functools
import importlib.util
import os
import sys
import sysconfig
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dynamics
from .errors import NewtonDivergence, NonFiniteState, EmptyTrajectory

#: a trajectory component beyond this magnitude signals escape along the
#: hyperbolic direction
OVERFLOW_LIMIT = 1e12

#: most steps ``integrate`` takes (it keeps every state, 32 B per step)
MAX_STEPS = 10 ** 7

#: implicit-midpoint Newton: a step is accepted once ``‖res‖ <= NEWTON_TOL *
#: max(1, ‖x‖∞)``, relative to the state size, since an absolute bound would
#: sit below the residual's rounding floor once |s| reaches ~1e4, far short
#: of OVERFLOW_LIMIT; NewtonDivergence after MAX_NEWTON_ITERS corrections
NEWTON_TOL = 1e-12
MAX_NEWTON_ITERS = 25


@dataclass(frozen=True)
class Trajectory:
    """Dense solution samples on a uniform, strictly increasing time grid:
    the (n, 6) table ``rows`` of t, u, v, a, b, H."""
    rows: np.ndarray

    times = property(lambda self: self.rows[:, 0])
    states = property(lambda self: self.rows[:, 1:5])          # (n, 4)
    energy_series = property(lambda self: self.rows[:, 5])

    def __len__(self):
        return len(self.rows)


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


#: the kernel's build flags: never -ffast-math or -march=native, and no
#: contraction, since a fused multiply-add (baseline on aarch64) changes bits
_FLOW_CFLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")


@functools.cache
def _flow_kernel():
    """The compiled loops and ``write_floats`` of ``_flow.c``, which take each
    array as its address, with the printer's table as ``pow10_table`` and its
    address as ``pow10``, or None where they cannot be built or loaded (logged
    at INFO on the ``cdelab`` logger, with the compiler's stderr).  The
    library is cached in ``__pycache__`` under the interpreter tag and a hash
    of its source, compiler command and tag; the first call builds it when
    absent, through a temporary file renamed into place, and then removes this
    interpreter's superseded builds."""
    # imported here, so that importing cdelab builds and loads nothing
    import shlex
    import subprocess

    cc = sysconfig.get_config_var("CC")
    source = Path(__file__).with_name("_flow.c")
    try:
        if not cc:
            raise OSError("sysconfig names no C compiler")
        # shlex raises ValueError on a CC that it cannot split
        cmd = [*shlex.split(cc), *_FLOW_CFLAGS]
        tag = sys.implementation.cache_tag
        # the 64-bit hash that keys hash-based .pyc files: hashlib's SHA-256
        # would load OpenSSL, about 3.5 MiB of resident memory
        key = importlib.util.source_hash(b"\0".join(
            [source.read_bytes(), *map(str.encode, cmd), tag.encode()]))
        cache = source.parent / "__pycache__"
        lib_path = cache / f"_flow.{tag}.{key.hex()}.so"
        if not lib_path.exists():
            cache.mkdir(exist_ok=True)
            fd, tmp = tempfile.mkstemp(".so", "_flow.", cache)
            os.close(fd)
            try:
                subprocess.run([*cmd, "-o", tmp, str(source)], check=True,
                               capture_output=True, timeout=120)
                os.replace(tmp, lib_path)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
            for old in cache.glob(f"_flow.{tag}.*.so"):
                if old != lib_path:
                    with contextlib.suppress(OSError):
                        old.unlink()
        lib = ctypes.CDLL(str(lib_path))
    except (OSError, ValueError, subprocess.SubprocessError) as exc:
        import logging
        stderr = (getattr(exc, "stderr", None) or b"").decode(errors="replace")
        logging.getLogger("cdelab").info(
            "_flow.c was not built or loaded, so integrate and the writers "
            "run in Python: %s%s", exc, stderr and "\n" + stderr)
        return None
    # arrays pass as their addresses, which skips ndpointer's checks (about
    # 2 us an array): the callers pass C-contiguous arrays of the C types
    address, cause = ctypes.c_void_p, ctypes.POINTER(ctypes.c_int32)
    lib.flow_rk4.argtypes = [address, ctypes.c_int64, ctypes.c_double,
                             ctypes.c_double, cause]
    lib.flow_midpoint.argtypes = [
        address, ctypes.c_int64, ctypes.c_double, ctypes.c_double,
        ctypes.c_int64, ctypes.c_double, cause, ctypes.POINTER(ctypes.c_double)]
    lib.write_floats.argtypes = [address, ctypes.c_int64, ctypes.c_int64,
                                 ctypes.c_int32, address, address]
    lib.flow_rk4.restype = lib.flow_midpoint.restype = ctypes.c_int64
    lib.write_floats.restype = ctypes.c_int64
    # write_floats' table: g = floor(10^-k 2^(125 - r)) + 1, r = floor(-k
    # log2 10), in (2^125, 2^126], as its top and bottom 63 bits
    g = []
    for k in range(-324, 293):
        e = 125 - ((-k * 913124641741) >> 38)
        x = (10 ** max(-k, 0) << max(e, 0)) // (10 ** max(k, 0)
                                                 << max(-e, 0)) + 1
        g += [x >> 63, x & (2**63 - 1)]
    lib.pow10_table = np.array(g, np.uint64)
    lib.pow10 = lib.pow10_table.ctypes.data
    return lib


def _in_step(exc, dt, k, state):
    """A NewtonDivergence of step k, from state s_(k-1), naming both."""
    return NewtonDivergence(f"{exc} in step {k} from t = {dt * (k - 1):.6g}, "
                            f"|s|_inf = {max(map(abs, state)):.3e}")


def _python_flow(s0, dt, n, method):
    """The rows t, u, v, a, b, H of n steps of the Python loops."""
    kernel, extra = ((_rk4, ()) if method == "rk4" else
                     (_midpoint, (NEWTON_TOL, MAX_NEWTON_ITERS)))
    out = s0.tolist()                   # flat: 4 floats per state
    try:
        kernel(*out, dt, *extra, n=n, out=out)
    except NewtonDivergence as exc:
        raise _in_step(exc, dt, len(out) // 4, out[-4:]) from exc
    s = np.fromiter(out, float, len(out)).reshape(n + 1, 4)
    return np.c_[dt * np.arange(n + 1), s, dynamics.hamiltonian(s.T)]


def _compiled_flow(lib, s0, dt, n, method):
    """The rows t, u, v, a, b, H of n steps of the compiled loops, which
    raise what the Python loops raise, with the same text."""
    rows = np.empty((n + 1, 6))
    rows[0, 1:5] = s0
    cause, rr = ctypes.c_int32(0), ctypes.c_double(0.0)
    if method == "rk4":
        k = lib.flow_rk4(rows.ctypes.data, n, dt, OVERFLOW_LIMIT,
                         ctypes.byref(cause))
    else:
        k = lib.flow_midpoint(rows.ctypes.data, n, dt, NEWTON_TOL,
                              MAX_NEWTON_ITERS, OVERFLOW_LIMIT,
                              ctypes.byref(cause), ctypes.byref(rr))
    if k == 0:
        return rows
    # the failing step's cause, numbered as in _flow.c
    if cause.value == 1:
        raise NonFiniteState(f"state overflow after step {k}")
    exc = NewtonDivergence(
        "implicit midpoint Newton stalled at residual "
        f"{rr.value ** 0.5:.3e}" if cause.value == 2 else
        "singular implicit midpoint Newton matrix")
    raise _in_step(exc, dt, k, rows[k - 1, 1:5].tolist()) from exc


def integrate(s0, t_final, dt=1e-3, method="implicit_midpoint"):
    """Integrate from t=0 to t=t_final on a uniform grid with steps of about
    dt, by ``method``: "implicit_midpoint" or "rk4".

    Negative t_final integrates backwards; the returned trajectory is then
    reported on the increasing grid [t_final, 0].  The step count is
    round(|t_final| / dt), so dt is adjusted slightly when it does not divide
    t_final evenly.  Raises NonFiniteState when a component is NaN or exceeds
    1e12, and re-raises an implicit-midpoint NewtonDivergence naming the step,
    its start time and ‖s‖∞.  Raises ValueError unless, in this order, dt is
    positive and finite, the method is known, t_final is finite and nonzero,
    |t_final| / dt is at most MAX_STEPS and s0 has shape (4,).
    """
    if not 0.0 < dt < np.inf:
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    if method not in ("implicit_midpoint", "rk4"):
        raise ValueError(f"unknown method {method!r}")
    if not 0.0 < abs(t_final) < np.inf:
        raise ValueError(f"t_final must be finite and nonzero, got {t_final!r}")
    n_steps = abs(t_final) / dt
    if not n_steps <= MAX_STEPS:
        raise ValueError(f"|t_final| / dt = {n_steps:.3g} steps exceeds "
                         f"MAX_STEPS = {MAX_STEPS}")
    s0 = np.asarray(s0, dtype=float)
    if s0.shape != (4,):
        raise ValueError(f"s0 must be one state (u, v, a, b), got shape "
                         f"{s0.shape}")
    n_steps = max(1, int(round(n_steps)))
    dt = t_final / n_steps              # signed
    lib = _flow_kernel()
    rows = (_python_flow(s0, dt, n_steps, method) if lib is None else
            _compiled_flow(lib, s0, dt, n_steps, method))
    return Trajectory(rows[::-1].copy() if dt < 0 else rows)


def energy_drift(tr):
    """max_k |H(s_k) - H(s_0)| along a trajectory."""
    if len(tr) == 0:
        raise EmptyTrajectory("cannot measure drift of an empty trajectory")
    return float(np.max(np.abs(tr.energy_series - tr.energy_series[0])))
