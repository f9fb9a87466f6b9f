"""Digest of the CLI's output on a fixed list of calls.

Runs each call in process through ``cdelab.cli.main``, capturing stdout and
stderr, and prints one line per call: the first 12 hex digits of the sha256
of (exit code, stdout, stderr), the exit code and the argv.  The list is
the warm-up and first two rounds of both benchmark workloads at seed 1 (from
``perfbench/workloads.py``), then the ``lyapunov``, ``continuation``,
``ground-state``, ``verify``, ``equilibria`` and ``homoclinic`` calls below,
failures included.  The last line is one digest of all the calls.

Two trees print the same lines exactly when every call gives the same
bytes.  Run it with the package to check importable, from the repository
root, e.g. ``PYTHONPATH=src python tools/cli_digest.py``.  Its header
names the versions that the bytes rest on.  Tier-1 checks the CLI against
the listing kept in ``tests/reference/cli_digest.txt``, which
``PYTHONPATH=src python tools/cli_digest.py > tests/reference/cli_digest.txt``
rewrites.
"""

import contextlib
import hashlib
import io
import os
import platform
import shlex
import subprocess
import sys
import sysconfig
import warnings
from pathlib import Path

import numpy
import scipy

from cdelab import cli

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


def digest(argv):
    """The 64 hex digits of one call's (exit code, stdout, stderr), and its
    exit code."""
    code, out, err = run(argv)
    return hashlib.sha256(f"{code}\0{out}\0{err}".encode()).hexdigest(), code


def versions():
    """The header lines naming what the output bytes rest on: pocketfft and
    LAPACK through numpy and scipy, libm, json's layout, and the compiler
    that builds _flow.c."""
    cc = shlex.split(sysconfig.get_config_var("CC"))[0]
    compiler = subprocess.run([cc, "--version"], capture_output=True,
                              text=True).stdout.partition("\n")[0]
    name = "CS_GNU_LIBC_VERSION"
    libc = (os.confstr(name) if name in os.confstr_names else None) or "?"
    return [f"# python {platform.python_version()}",
            f"# numpy {numpy.__version__}", f"# scipy {scipy.__version__}",
            f"# libc {libc}", f"# cc {compiler}"]


def main():
    total = hashlib.sha256()
    argvs = calls()
    print("# PYTHONPATH=src python tools/cli_digest.py"
          " > tests/reference/cli_digest.txt")
    print(*versions(), sep="\n")
    for argv in argvs:
        hexdigest, code = digest(argv)
        total.update(hexdigest.encode())
        print(hexdigest[:12], code, " ".join(argv))
    print(f"all {total.hexdigest()[:12]} ({len(argvs)} calls)")


if __name__ == "__main__":
    main()
