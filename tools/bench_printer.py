"""Time the float printer, ``write_floats`` in ``_flow.c``, in ns a float.

The table is the one a ``trajectories`` task prints: ``integrate``'s
7,501 x 6 rows t, u, v, a, b, H (45,006 floats) from the derived homoclinic
at t0 = -2, 7.5 time units at dt = 1e-3 with the default implicit midpoint.
It is written as CSV and as a json list at depth 2, as a ``cde-lab/1``
record nests its samples, into one buffer of the header's bound.  Each
figure is the minimum over 7 repeats of 20 calls, after
``cli._keep_freed_buffers()`` as in a CLI process.  It gates nothing.

Run it from the repository root, e.g.
``PYTHONPATH=src python tools/bench_printer.py``.
"""

import time

import numpy as np

from cdelab import cli, homoclinic, integrators, serialize

REPEATS, CALLS = 7, 20


def table():
    """The 7,501 x 6 trajectory table, C-contiguous, as integrate gives it."""
    return integrators.integrate(homoclinic.derived_profile()(-2.0), 7.5).rows


def ns_per_float(lib, a, depth):
    """Least time of one write_floats call of a at depth, over its size."""
    out = np.empty(serialize._text_bound(a, depth), np.uint8)
    n, m = a.shape
    best = np.inf
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(CALLS):
            lib.write_floats(a.ctypes.data, n, m, depth, lib.pow10,
                             out.ctypes.data)
        best = min(best, (time.perf_counter() - start) / CALLS)
    return best / a.size * 1e9


def main():
    lib = integrators._flow_kernel()
    cli._keep_freed_buffers()
    a = table()
    for name, depth in (("csv", -1), ("json depth 2", 2)):
        print(f"{name}: {ns_per_float(lib, a, depth):.1f} ns a float "
              f"({a.size} floats)")


if __name__ == "__main__":
    main()
