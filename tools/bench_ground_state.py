"""Time one in-process ``ground-state`` task and its parts, in µs.

At eps = 0.03 (K = 214, where Newton takes no step from its start) and at
eps = 0.05 (K = 128, one step), it times:

- the whole ``cli.main`` call, its JSON record written to a str;
- Newton's start, ``spectral._periodized_homoclinic``;
- the solve, ``spectral.ground_state``;
- the record's build, ``serialize.ground_state_record`` as
  ``cli.cmd_ground_state`` calls it, each call on a fresh solution, whose
  cached views are not yet filled;
- ``serialize.dumps`` of that record.

Each figure is the minimum over 7 repeats of 20 calls, after
``cli._keep_freed_buffers()`` as in a CLI process.  It gates nothing.

Run it from the repository root, e.g.
``PYTHONPATH=src python tools/bench_ground_state.py``.
"""

import contextlib
import io
import time

from cdelab import cli, serialize, spectral

REPEATS, CALLS = 7, 20
EPSILONS = (0.03, 0.05)


def least_us(call, args=None):
    """Least time of one call, over REPEATS runs of CALLS calls; with
    ``args``, a function of the repeat that gives each call its argument."""
    best = float("inf")
    for _ in range(REPEATS):
        inputs = [None] * CALLS if args is None else args()
        start = time.perf_counter()
        for x in inputs:
            call(x)
        best = min(best, (time.perf_counter() - start) / CALLS)
    return best * 1e6


def main():
    cli._keep_freed_buffers()
    for eps in EPSILONS:
        argv = ["ground-state", "--epsilon", repr(eps)]
        sol = spectral.ground_state(eps)
        K = sol.field.num_modes

        def task(_):
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(argv)

        rec = serialize.ground_state_record(sol, eps)
        figures = {
            "cli.main": least_us(task),
            "start": least_us(
                lambda _: spectral._periodized_homoclinic(eps, K)),
            "ground_state": least_us(lambda _: spectral.ground_state(eps)),
            "record": least_us(
                lambda s: serialize.ground_state_record(s, eps),
                lambda: [spectral.ground_state(eps) for _ in range(CALLS)]),
            "dumps": least_us(lambda _: serialize.dumps(rec)),
        }
        print(f"eps = {eps} (K = {K}, {sol.report.steps} Newton steps, "
              f"{sum(sol.report.jvps)} JVPs): "
              + ", ".join(f"{name} {us:.0f}" for name, us in figures.items())
              + " µs")


if __name__ == "__main__":
    main()
