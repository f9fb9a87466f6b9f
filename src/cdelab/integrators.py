"""Fixed-step time integration of the cylinder system with energy monitoring.

Two steppers are provided: the implicit midpoint rule (symplectic for this
canonical Hamiltonian system, the conservative default for long-time runs)
and classical RK4 for cross-validation and high-accuracy short-horizon
tracking.  Steps are uniform; the phase space is low-dimensional and smooth,
so no adaptive control is attempted.  Each method is one fused loop, compiled
from ``_flow.c``, on the four state components, with the vector field written
inline and the midpoint Newton step solved in closed form: ``integrate`` runs
it for a whole trajectory and the single-step functions for one step.  The C
file is built once, on first use, into ``__pycache__``, with sysconfig's C
compiler; a failed build raises a RuntimeError naming the compiler's stderr.
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


def rk4_step(s, dt):
    """One classical Runge-Kutta step of a (4,) state, by the compiled loop
    (NonFiniteState where the new state leaves OVERFLOW_LIMIT or is NaN)."""
    return _compiled_flow(_flow_kernel(), s, dt, 1, "rk4")[1, 1:5]


def implicit_midpoint_step(s, dt):
    """One implicit midpoint step, midpoint fixed point solved by Newton.

    The iterate x is accepted once the residual of x = s + dt f((s + x)/2)
    satisfies ``‖res‖ <= NEWTON_TOL * max(1, ‖x‖∞)``, i.e. the tolerance is
    absolute for unit-size states and relative beyond (NewtonDivergence
    if not met within MAX_NEWTON_ITERS, or if the Newton matrix is singular,
    naming step 1 as ``integrate`` does; NonFiniteState as in
    :func:`rk4_step`).
    """
    rows = _compiled_flow(_flow_kernel(), s, dt, 1, "implicit_midpoint")
    return rows[1, 1:5]


#: the kernel's build flags: never -ffast-math or -march=native, and no
#: contraction, since a fused multiply-add (baseline on aarch64) changes bits
_FLOW_CFLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")


@functools.cache
def _flow_kernel():
    """The compiled loops and ``write_floats`` of ``_flow.c``, which take each
    array as its address, with the printer's table as ``pow10_table`` and its
    address as ``pow10``.  Where they cannot be built or loaded, it raises a
    RuntimeError naming the cause and the compiler's stderr.  The library is
    cached in ``__pycache__`` under the interpreter tag and a hash of its
    source, compiler command and tag; the first call builds it when absent,
    through a temporary file renamed into place, and then removes this
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
        # not an OSError or ValueError, which the CLI reports as bad input
        stderr = (getattr(exc, "stderr", None) or b"").decode(errors="replace")
        raise RuntimeError(f"_flow.c was not built or loaded: {exc}"
                           + (stderr and "\n" + stderr)) from exc
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


def _compiled_flow(lib, s0, dt, n, method):
    """The rows t, u, v, a, b, H of n steps of the compiled loops from the
    state s0, raising NonFiniteState or NewtonDivergence at a failed step."""
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
    # named by its step, start time and the size of the state it started from
    raise NewtonDivergence(
        f"{exc} in step {k} from t = {dt * (k - 1):.6g}, "
        f"|s|_inf = {max(map(abs, rows[k - 1, 1:5].tolist())):.3e}") from exc


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
    rows = _compiled_flow(_flow_kernel(), s0, dt, n_steps, method)
    return Trajectory(rows[::-1].copy() if dt < 0 else rows)


def energy_drift(tr):
    """max_k |H(s_k) - H(s_0)| along a trajectory."""
    if len(tr) == 0:
        raise EmptyTrajectory("cannot measure drift of an empty trajectory")
    return float(np.max(np.abs(tr.energy_series - tr.energy_series[0])))
