"""Command-line interface.

Subcommands: equilibria, integrate, lyapunov, ground-state, continuation,
homoclinic, transform, verify.  Exit codes: 0 on success, 1 on solver
failure, 2 on invalid input.
"""

import argparse
import ctypes
import functools
import os
import sys

import numpy as np

from . import dynamics, integrators, spectral, orbits, homoclinic, geometry
from . import serialize, verify
from .errors import (CdelabError, NewtonDivergence, NonFiniteState,
                     NonConvergence)

SOLVER_ERRORS = (NewtonDivergence, NonFiniteState, NonConvergence)


#: the flags that several subcommands share
FLAGS = {
    "--out": dict(metavar="FILE", default=None,
                  help="write output to FILE instead of stdout"),
    "--format": dict(choices=("csv", "json"), default=None,
                     help="output format (default depends on subcommand)"),
    "--seed": dict(type=int, default=0, help="seed for randomized checks"),
    "--tol": dict(type=float, default=None, help="tolerance override"),
}


def _flags(parser, *names):
    """Give ``parser`` --out and the named shared flags, the ones it reads."""
    for name in ("--out",) + names:
        parser.add_argument(name, **FLAGS[name])


def _emit(text, out_path):
    """text and a newline, unless it ends in one, to out_path or stdout."""
    end = "" if text.endswith("\n") else "\n"
    if out_path:
        with open(out_path, "w") as fh:
            print(text, end=end, file=fh)
    else:
        print(text, end=end)


def _parse_floats(text, flag):
    try:
        values = [float(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise ValueError(f"could not parse number list {text!r}") from exc
    if values:
        return values
    raise ValueError(f"{flag} needs at least one number, got {text!r}")


@functools.cache
def build_parser():
    """The argument parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="cdelab",
        description="Numerical laboratory for the cylinder Hamiltonian system "
                    "and its spectral/variational ground states.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("equilibria", help="list equilibria and energies")
    _flags(p, "--format")

    p = sub.add_parser("integrate", help="integrate the cylinder system")
    p.add_argument("--state", required=True,
                   help="initial state as u,v,a,b")
    p.add_argument("--t-final", type=float, required=True)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--method", choices=("implicit_midpoint", "rk4"),
                   default="implicit_midpoint")
    _flags(p, "--format")

    p = sub.add_parser("lyapunov", help="small-orbit family continuation")
    p.add_argument("--amplitudes", required=True,
                   help="comma-separated amplitudes, e.g. 1e-2,1e-3")
    _flags(p, "--format", "--tol")

    p = sub.add_parser("ground-state", help="spectral ground state at epsilon")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--modes", type=int, default=None)
    _flags(p, "--format", "--tol")

    p = sub.add_parser("continuation", help="delta_eps versus period diagram")
    p.add_argument("--eps-grid", required=True,
                   help="comma-separated epsilon values")
    _flags(p, "--format")

    p = sub.add_parser("homoclinic", help="derive and verify the homoclinic")
    p.add_argument("--paper-constants", action="store_true",
                   help="also report the profile built from the quoted "
                        "amplitude constants")
    _flags(p)

    p = sub.add_parser("transform", help="transport a radial profile")
    p.add_argument("--from", dest="src", required=True,
                   choices=("cylinder", "euclidean"))
    p.add_argument("--to", dest="dst", required=True,
                   choices=("euclidean", "sphere"))
    p.add_argument("--input", required=True, help="profile CSV path")
    _flags(p)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", help="suite name or 'all': "
                                 + ", ".join(sorted(verify.SUITES)))
    _flags(p, "--seed", "--tol")
    return parser


# ----------------------------------------------------------------------
# subcommand bodies

def cmd_equilibria(args):
    eq = dynamics.equilibria()
    if args.format == "csv":
        lines = ["name,u,v,a,b,H"]
        for name, point, energy in eq:
            lines.append(",".join([name] + [repr(float(x)) for x in point]
                                  + [repr(float(energy))]))
        _emit("\n".join(lines), args.out)
    else:
        doc = {"schema": geometry.SCHEMA,
               "equilibria": [{"name": name,
                               "state": [float(x) for x in point],
                               "H": float(energy)}
                              for name, point, energy in eq]}
        _emit(serialize.dumps(doc), args.out)
    return 0


def cmd_integrate(args):
    state = _parse_floats(args.state, "--state")
    if len(state) != 4 or not np.isfinite(state).all():
        raise ValueError("--state needs exactly four finite numbers u,v,a,b, "
                         f"got {args.state!r}")
    cfg = integrators.StepperConfig(method=args.method, dt=args.dt)
    tr = integrators.integrate(np.array(state), args.t_final, cfg)
    if args.format == "json":
        doc = {"schema": geometry.SCHEMA,
               "drift": integrators.energy_drift(tr), "samples": tr.rows}
        _emit(serialize.dumps(doc), args.out)
    else:
        _emit(serialize.trajectory_to_csv(tr), args.out)
    return 0


def cmd_lyapunov(args):
    amplitudes = _parse_floats(args.amplitudes, "--amplitudes")
    kwargs = {} if args.tol is None else {"tol": args.tol}
    family = orbits.lyapunov_family(amplitudes, **kwargs)
    records = []
    for h, orbit in zip(amplitudes, family):
        tr = orbits.field_to_orbit(orbit.field)
        rec = serialize.orbit_record(orbit, tr, provenance={
            "kind": "lyapunov_family", "amplitude": h})
        rec["period"] = orbit.period
        rec["distance_to_center"] = float(np.max(np.linalg.norm(
            tr.states - dynamics.P_PLUS, axis=1)))
        records.append(rec)
    if args.format == "csv":
        columns = ("period", "H", "residual", "distance_to_center")
        rows = [[h] + [rec[key] for key in columns]
                for h, rec in zip(amplitudes, records)]
        _emit(serialize._csv_table(("amplitude",) + columns, np.array(rows)),
              args.out)
    else:
        _emit(serialize.dumps({"schema": geometry.SCHEMA, "orbits": records}),
              args.out)
    return 0


def cmd_ground_state(args):
    kwargs = {} if args.tol is None else {"grad_tol": args.tol}
    sol = spectral.ground_state(args.epsilon, K=args.modes, **kwargs)
    if args.format == "csv":
        _emit(serialize.field_grid_to_csv(sol.field), args.out)
        return 0
    rec = serialize.orbit_record(
        sol, orbits.field_to_orbit(sol.field),
        provenance={"kind": "ground_state", "epsilon": args.epsilon,
                    "modes": sol.field.num_modes, "gradient_norm": sol.merit},
        epsilon=args.epsilon)
    rec["delta_eps"] = sol.delta_eps
    rec["field"] = serialize.field_to_json(sol.field, energy=sol.energy,
                                           residuals=sol.nehari)
    _emit(serialize.dumps(rec), args.out)
    return 0


def cmd_continuation(args):
    eps_grid = _parse_floats(args.eps_grid, "--eps-grid")
    diagram = orbits.period_energy_diagram(eps_grid)
    if args.format == "json":
        doc = {"schema": geometry.SCHEMA, "delta0": diagram["delta0"],
               "rows": [{k: row[k] for k in
                         ("epsilon", "T", "delta_eps", "gap", "converged")}
                        for row in diagram["rows"]]}
        _emit(serialize.dumps(doc), args.out)
    else:
        _emit(serialize.diagram_to_csv(diagram), args.out)
    return 0


def cmd_homoclinic(args):
    rep = homoclinic.derive_constants()
    doc = {
        "schema": geometry.SCHEMA,
        "alpha": rep.alpha, "beta": rep.beta,
        "alpha_sq": rep.alpha_sq, "beta_sq": rep.beta_sq,
        "ode_residual": rep.residual_derived,
        "quoted_amplitudes": list(rep.quoted_amplitudes),
        "quoted_amplitudes_residual": rep.residual_quoted,
    }
    prof = (homoclinic.quoted_profile() if args.paper_constants
            else homoclinic.derived_profile())
    t = np.linspace(-10.0, 10.0, 81)
    doc["profile"] = {"convention": "quoted" if args.paper_constants else "derived",
                      "samples": np.column_stack([t, prof(t).T])}
    _emit(serialize.dumps(doc), args.out)
    return 0


def cmd_transform(args):
    with open(args.input) as fh:
        profile = serialize.profile_from_csv(fh)
    if profile.chart != args.src:
        raise ValueError(f"--from {args.src}, but the header of {args.input} "
                         f"names the {profile.chart} chart")
    if args.src == "cylinder":
        euc = geometry.cylinder_to_euclidean(profile)
    else:
        euc = profile
    if args.dst == "euclidean":
        result = euc
    else:
        result, convention = geometry.euclidean_to_sphere(euc)
        sys.stderr.write(serialize.dumps(convention) + "\n")
    _emit(serialize.profile_to_csv(result), args.out)
    return 0


def cmd_verify(args):
    results = verify.run_suite(args.suite, seed=args.seed, tol=args.tol)
    lines = []
    ok = True
    for name, passed, detail in results:
        ok = ok and passed
        status = "PASS" if passed else "FAIL"
        lines.append(f"[{status}] {name}" + (f" ({detail})" if detail else ""))
    lines.append(f"{'all checks passed' if ok else 'FAILURES present'}: "
                 f"{sum(p for _, p, _ in results)}/{len(results)}")
    _emit("\n".join(lines), args.out)
    return 0 if ok else 1


COMMANDS = {
    "equilibria": cmd_equilibria,
    "integrate": cmd_integrate,
    "lyapunov": cmd_lyapunov,
    "ground-state": cmd_ground_state,
    "continuation": cmd_continuation,
    "homoclinic": cmd_homoclinic,
    "transform": cmd_transform,
    "verify": cmd_verify,
}


@functools.cache
def _keep_freed_buffers():
    """On glibc, let the process keep freed buffers of up to 32 MiB.  glibc
    otherwise unmaps or trims a record's megabyte buffers (the printed text
    and its str) after each record and faults them in again for the next,
    about 460 page faults a trajectory.  Setting either threshold alone
    switches off glibc's adaptive mmap threshold, so both are set.  Only
    ``main`` calls this, never an import: a library must not change its
    host's allocator."""
    try:
        if os.confstr("CS_GNU_LIBC_VERSION"):
            mallopt = ctypes.CDLL(None).mallopt
            mallopt(-3, 32 << 20)           # M_MMAP_THRESHOLD
            mallopt(-1, 64 << 20)           # M_TRIM_THRESHOLD
    except (AttributeError, ValueError, OSError):   # not glibc
        pass


def main(argv=None):
    _keep_freed_buffers()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        tol = getattr(args, "tol", None)
        if tol is not None and not tol > 0:
            raise ValueError(f"--tol must be > 0, got {tol!r}")
        return COMMANDS[args.command](args)
    except SOLVER_ERRORS as exc:
        sys.stderr.write(f"solver failure: {exc}\n")
        return 1
    except (CdelabError, ValueError, OSError) as exc:
        sys.stderr.write(f"invalid input: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
