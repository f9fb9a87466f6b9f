"""In-memory span tracing of cdelab's public functions, from outside the package.

``Tracer.install`` wraps every public function of the traced cdelab modules,
under every module attribute (and module-level dict entry) it is bound to,
plus ``numpy.linalg.solve`` and ``numpy.linalg.lstsq`` as layer ``linalg``.
Each call becomes a span: name, start, end, parent span, task id and two
integer size fields.  Spans stay in memory until ``uninstall``; the per-layer
metrics are computed from them afterwards.

A call the wrappers cannot see is reported, never dropped silently:
``integrators.rk4_step`` binds ``dynamics.vector_field`` as a default
argument at import, so ``dynamics.vector_field.calls.derived`` is reported
as 4 x rk4_step calls next to ``.calls.observed``.
"""

import contextlib
import functools
import inspect
import sys
import time
from array import array

import numpy as np

#: cdelab modules whose public functions are traced (geometry and verify
#: take milliseconds and no workload depends on them)
LAYER_MODULES = ("cli", "serialize", "integrators", "dynamics", "linear",
                 "orbits", "spectral", "homoclinic")

#: lstsq problems with more unknowns than this are the spectral Newton
#: solves (``linalg.lstsq.large``); the smaller 4x3 Gauss-Newton shooting
#: steps run on no workload and are not reported
LSTSQ_SMALL_MAX_N = 16

#: functions the named per-layer metrics are computed from
NAMED_FUNCTIONS = (
    "cli.main", "serialize.trajectory_to_csv", "serialize.dumps",
    "serialize.orbit_record", "serialize.field_to_json",
    "integrators.integrate", "integrators.rk4_step",
    "integrators.implicit_midpoint_step", "dynamics.vector_field",
    "dynamics.hamiltonian", "linear.jacobian_at",
    "linalg.solve", "linalg.lstsq", "orbits.field_to_orbit",
    "spectral.ground_state", "spectral.nehari_scale",
    "spectral.reduce_g", "spectral.coeffs_to_values",
    "spectral.values_to_coeffs", "spectral.gradient", "spectral.energy",
)


def _columns(x):
    shape = np.shape(x)
    return 1 if len(shape) <= 1 else int(np.prod(shape[1:]))


def _size_rk4(args, kwargs):
    # batch width, or 0 for a single (4,) state
    shape = np.shape(args[0])
    return (shape[1] if len(shape) == 2 else 0), 0


def _size_c2v(args, kwargs):
    c = args[0]
    n = args[1] if len(args) > 1 else kwargs["N"]
    return _columns(c), int(n)


def _size_v2c(args, kwargs):
    v = args[0]
    return _columns(v), int(np.shape(v)[0])


def _size_lstsq(args, kwargs):
    shape = np.shape(args[0])
    return (shape[1] if len(shape) == 2 else 1), 0


SIZE_PROBES = {
    "integrators.rk4_step": _size_rk4,
    "spectral.coeffs_to_values": _size_c2v,
    "spectral.values_to_coeffs": _size_v2c,
    "linalg.lstsq": _size_lstsq,
}


def _get(owner, key):
    return owner[key] if isinstance(owner, dict) else getattr(owner, key)


def _set(owner, key, value):
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


class Tracer:
    """Collects spans while installed; restores every binding on uninstall."""

    def __init__(self):
        self.keys = ["task"]         # span name ids index this list
        self.name = array("i")
        self.parent = array("i")
        self.task = array("i")
        self.size_a = array("q")
        self.size_b = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._task_id = -1
        self._patches = []          # (owner, key, original) to restore
        self.absent = []            # named functions missing from the package

    # -- spans -------------------------------------------------------------
    def _open(self, key_id, sizes):
        idx = len(self.name)
        self.name.append(key_id)
        self.parent.append(self._stack[-1])
        self.task.append(self._task_id)
        self.size_a.append(sizes[0])
        self.size_b.append(sizes[1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def task_span(self, task_id):
        """Span of one task; the spans inside it share ``task_id``."""
        self._task_id = task_id
        idx = self._open(0, (0, 0))
        try:
            yield
        finally:
            self._close(idx)
            self._task_id = -1

    # -- wrapping ----------------------------------------------------------
    def _wrap(self, key, fn):
        key_id = len(self.keys)
        self.keys.append(key)
        probe = SIZE_PROBES.get(key)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(key_id, probe(args, kwargs) if probe else (0, 0))
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)

        return wrapper

    def _traced_functions(self, package):
        """{original function: key} for every public function of the layers."""
        found = {}
        for layer in LAYER_MODULES:
            module = sys.modules.get(f"{package.__name__}.{layer}")
            if module is None:
                continue
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    found[obj] = f"{layer}.{attr}"
        return found

    def install(self, package):
        """Wrap the traced functions in every cdelab module that binds them."""
        originals = self._traced_functions(package)
        wrappers = {fn: self._wrap(key, fn) for fn, key in originals.items()}
        known = set(originals.values()) | {"linalg.solve", "linalg.lstsq"}
        self.absent = [k for k in NAMED_FUNCTIONS if k not in known]
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == package.__name__
                                         or name.startswith(package.__name__ + "."))]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(module, attr, wrappers[obj])
                elif isinstance(obj, dict):
                    for k, v in list(obj.items()):
                        if inspect.isfunction(v) and v in wrappers:
                            self._patch(obj, k, wrappers[v])
        for attr in ("solve", "lstsq"):
            fn = getattr(np.linalg, attr)
            self._patch(np.linalg, attr, self._wrap(f"linalg.{attr}", fn))

    def _patch(self, owner, key, new):
        """Rebind a module attribute, or a dict entry when owner is a dict."""
        self._patches.append((owner, key, _get(owner, key)))
        _set(owner, key, new)

    def uninstall(self):
        """Restore every original binding, and check that each one is back."""
        for owner, key, old in reversed(self._patches):
            _set(owner, key, old)
        if any(_get(owner, key) is not old for owner, key, old in self._patches):
            raise RuntimeError("a traced function was not restored")
        self._patches = []

    # -- results -----------------------------------------------------------
    def arrays(self):
        """Spans as numpy arrays, with duration and self time."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        start = np.frombuffer(self.start)
        dur = np.frombuffer(self.end) - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        return {"name": name, "parent": parent,
                "task": np.frombuffer(self.task, dtype=np.int32),
                "size_a": np.frombuffer(self.size_a, dtype=np.int64),
                "size_b": np.frombuffer(self.size_b, dtype=np.int64),
                "start": start, "dur": dur, "self": dur - child}

    def save(self, path):
        np.savez(path, keys=np.array(self.keys), **self.arrays())


def _inside(spans, ancestor_ids):
    """Mask of spans that have an ancestor whose name is in ancestor_ids."""
    parent = spans["parent"]
    is_anc = np.isin(spans["name"], ancestor_ids)
    inside = np.zeros(len(parent), dtype=bool)
    p = parent.copy()
    while np.any(p >= 0):
        live = p >= 0
        inside[live] |= is_anc[p[live]]
        p[live] = parent[p[live]]
    return inside


def layer_metrics(tracer, bytes_out, overhead_ratio):
    """The named per-layer metrics from a finished trace.

    ``self_s`` is the time a function spent outside traced children,
    ``mean_us`` the mean inclusive time per call.  Returns (values, absent),
    where absent lists metric-name prefixes whose function does not exist.
    """
    spans = tracer.arrays()
    ids = {k: i for i, k in enumerate(tracer.keys)}

    def sel(key):
        return spans["name"] == ids.get(key, -1)

    def calls(mask):
        return int(np.count_nonzero(mask))

    def self_s(mask):
        return float(np.sum(spans["self"][mask]))

    def mean_us(mask):
        n = np.count_nonzero(mask)
        return float(np.sum(spans["dur"][mask]) / n * 1e6) if n else 0.0

    m = {}
    m["cli.main.self_s"] = self_s(sel("cli.main"))
    for fn in ("trajectory_to_csv", "dumps", "orbit_record", "field_to_json"):
        m[f"serialize.{fn}.self_s"] = self_s(sel(f"serialize.{fn}"))
    m["serialize.bytes_out"] = bytes_out

    integ = sel("integrators.integrate")
    m["integrators.integrate.calls"] = calls(integ)
    m["integrators.integrate.self_s"] = self_s(integ)
    rk4 = sel("integrators.rk4_step")
    single = rk4 & (spans["size_a"] == 0)
    m["integrators.rk4_step.single.calls"] = calls(single)
    m["integrators.rk4_step.single.mean_us"] = mean_us(single)
    im = sel("integrators.implicit_midpoint_step")
    m["integrators.implicit_midpoint_step.calls"] = calls(im)
    m["integrators.implicit_midpoint_step.mean_us"] = mean_us(im)
    jac = sel("linear.jacobian_at")
    jac_in_im = calls(jac & _inside(spans, [ids.get("integrators.implicit_midpoint_step", -1)]))
    m["integrators.newton_iters_per_step"] = jac_in_im / calls(im) if calls(im) else 0.0

    vf = sel("dynamics.vector_field")
    m["dynamics.vector_field.calls.observed"] = calls(vf)
    m["dynamics.vector_field.calls.derived"] = 4 * calls(rk4)
    m["dynamics.vector_field.mean_us"] = mean_us(vf)
    m["dynamics.hamiltonian.self_s"] = self_s(sel("dynamics.hamiltonian"))

    m["linear.jacobian_at.calls"] = calls(jac)
    m["linear.jacobian_at.mean_us"] = mean_us(jac)

    solve = sel("linalg.solve")
    m["linalg.solve.calls"] = calls(solve)
    m["linalg.solve.mean_us"] = mean_us(solve)
    lstsq = sel("linalg.lstsq")
    large = lstsq & (spans["size_a"] > LSTSQ_SMALL_MAX_N)
    m["linalg.lstsq.large.calls"] = calls(large)
    m["linalg.lstsq.large.self_s"] = self_s(large)
    m["linalg.lstsq.large.max_n"] = int(np.max(spans["size_a"][large], initial=0))

    m["orbits.field_to_orbit.self_s"] = self_s(sel("orbits.field_to_orbit"))

    for fn in ("ground_state", "nehari_scale", "reduce_g"):
        mask = sel(f"spectral.{fn}")
        m[f"spectral.{fn}.calls"] = calls(mask)
        m[f"spectral.{fn}.self_s"] = self_s(mask)
    fft_bytes = 0
    for fn in ("coeffs_to_values", "values_to_coeffs"):
        mask = sel(f"spectral.{fn}")
        m[f"spectral.{fn}.calls"] = calls(mask)
        m[f"spectral.{fn}.columns"] = int(np.sum(spans["size_a"][mask]))
        m[f"spectral.{fn}.self_s"] = self_s(mask)
        fft_bytes += int(np.sum(spans["size_a"][mask] * spans["size_b"][mask])) * 16
    m["spectral.fft.bytes_computed"] = fft_bytes
    m["spectral.gradient.calls"] = calls(sel("spectral.gradient"))
    m["spectral.energy.calls"] = calls(sel("spectral.energy"))
    m["trace.overhead_ratio"] = overhead_ratio
    return m, list(tracer.absent)


#: derived metrics that also depend on functions other than their name prefix
EXTRA_DEPENDENCIES = {
    "dynamics.vector_field.calls.derived": ("integrators.rk4_step",),
    "integrators.newton_iters_per_step": ("integrators.implicit_midpoint_step",
                                          "linear.jacobian_at"),
    "spectral.fft.bytes_computed": ("spectral.coeffs_to_values",
                                    "spectral.values_to_coeffs"),
}


def absent_metrics(absent, metrics):
    """Names of the metrics that depend on a function missing from cdelab."""
    return {name for name in metrics
            if any(name.startswith(key + ".") for key in absent)
            or any(key in absent for key in EXTRA_DEPENDENCIES.get(name, ()))}
