"""Digest of the CLI's output on a fixed list of calls.

Runs each call in process through ``cdelab.cli.main``, capturing stdout and
stderr, and prints one line per call: the first 12 hex digits of the sha256
of (exit code, stdout, stderr), the exit code and the argv.  The list is
the warm-up and first two rounds of both benchmark workloads at seed 1 (from
``perfbench/workloads.py``), then the ``lyapunov``, ``continuation``,
``ground-state``, ``verify``, ``equilibria`` and ``homoclinic`` calls below,
failures included.  The same pass runs again with the compiled kernel
switched off (``integrators._flow_kernel`` returning None, the Python loops
and stdlib writers), and the last line is one digest of both passes.

Two trees print the same lines exactly when every call gives the same
bytes.  Run it with the package to check importable, from the repository
root, e.g. ``PYTHONPATH=src python tools/cli_digest.py``.
"""

import contextlib
import hashlib
import io
import sys
import warnings
from pathlib import Path
from unittest import mock

from cdelab import cli, integrators

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

AMPLITUDES = ("1e-2", "1e-2,1e-3,1e-4", "1e-3", "0.1", "0.2", "0.3", "0.5",
              "1e-2,0.05,0.1,0.15,0.2", "1.5e-8", "1e100")
EPSILONS = ("0.3", "0.37", "0.3785", "0.379", "0.39", "0.5", "10", "0.05",
            "1e100", "1e308")


def calls():
    """The argv lists, in order."""
    out = []
    for workload in workloads.WORKLOADS.values():
        out.append(workload.warmup.argv)
        for tasks in workloads.make_rounds(workload, seed=1, rounds=2):
            out += [task.argv for task in tasks]
    for h in AMPLITUDES:
        out += [("lyapunov", "--amplitudes", h),
                ("lyapunov", "--amplitudes", h, "--format", "csv")]
    out.append(("lyapunov", "--amplitudes", "1e-2,0.1", "--tol", "1e-3"))
    grid = "0.03,0.1,0.2,0.3,0.378"
    out += [("continuation", "--eps-grid", grid),
            ("continuation", "--eps-grid", grid, "--format", "json")]
    out += [("ground-state", "--epsilon", eps) for eps in EPSILONS]
    out += [("ground-state", "--epsilon", "0.1", "--modes", "32"),
            ("ground-state", "--epsilon", "0.2", "--tol", "1e-13"),
            ("ground-state", "--epsilon", "0.2", "--tol", "1e-3"),
            ("ground-state", "--epsilon", "0.05", "--format", "csv"),
            ("verify", "all"), ("equilibria",),
            ("equilibria", "--format", "json"), ("homoclinic",),
            ("homoclinic", "--paper-constants")]
    return [list(argv) for argv in out]


def run(argv):
    """Exit code, stdout and stderr of one in-process CLI call; a warning is
    shown once per place, as in a fresh process."""
    out, err = io.StringIO(), io.StringIO()
    with (warnings.catch_warnings(), contextlib.redirect_stdout(out),
          contextlib.redirect_stderr(err)):
        warnings.simplefilter("default")
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def main():
    total = hashlib.sha256()
    argvs = calls()
    for route, patch in (("compiled kernel", contextlib.nullcontext()),
                         ("no kernel", mock.patch.object(
                             integrators, "_flow_kernel", lambda: None))):
        print(f"# {route}")
        with patch:
            for argv in argvs:
                code, out, err = run(argv)
                digest = hashlib.sha256(
                    f"{code}\0{out}\0{err}".encode()).hexdigest()
                total.update(digest.encode())
                print(digest[:12], code, " ".join(argv))
    print(f"all {total.hexdigest()[:12]} ({2 * len(argvs)} calls)")


if __name__ == "__main__":
    main()
