"""cdelab benchmark: seeded CLI workloads, end-to-end metrics, a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload trajectories --seed 1 --seconds 25 --trace 0

One closed-loop caller in this process calls the public entry point
``cdelab.cli.main([...])`` in-process, with stdout captured in memory, one
seeded task after another.  Each run first calls one untimed warm-up task
(the workload's largest working set), then runs whole rounds of seeded tasks
while a round still fits in ``--seconds``.  Outputs are parsed and checked
outside the timed region.

``--trace 0`` reports the end-to-end metrics; ``setup_s`` is measured in
fresh processes.  ``--trace 1`` runs the first round of the same task list
untraced and then traced, and reports the per-layer metrics; its task list
does not depend on time (``--seconds`` does not apply), so its counts repeat
exactly for a seed.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the full result, with the seed and the
environment, is also written to ``perfbench/out/``.  Metric names and units
are read from ``BENCHMARK.json``.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

#: fresh processes timed per run for setup_s; the median is reported
SETUP_PROBES = 3
#: a second seed recorded with every result, on which a claimed gain is
#: re-checked: claim_seed = seed + CLAIM_SEED_OFFSET
CLAIM_SEED_OFFSET = 100003
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: one BLAS thread, so the single caller uses one core: on a 2-vCPU VM the
#: same ground-state task varied about twice as much with two threads, and
#: two threads gained only at eps = 0.025 (about 20%)
BLAS_THREADS = 1


def limit_blas_threads():
    """Pin BLAS to BLAS_THREADS before numpy is imported; returns nproc."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    return len(os.sched_getaffinity(0))


def import_cdelab():
    """Import cdelab and its CLI from this checkout's src/, and nowhere else."""
    if not (SRC / "cdelab" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no cdelab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cdelab
    import cdelab.cli
    if Path(cdelab.__file__).resolve().parent != SRC / "cdelab":
        raise SystemExit(f"benchmark: imported cdelab from {cdelab.__file__}")
    return cdelab, cdelab.cli


# ----------------------------------------------------------------------
# environment record

def git_sha():
    """HEAD commit read from .git, or "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def openblas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(workload, seed, nproc):
    import numpy
    import scipy
    return {
        "workload": workload, "seed": seed,
        "claim_seed": seed + CLAIM_SEED_OFFSET,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "openblas_threads": openblas_threads(),
        "blas_env": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "nproc": nproc,
    }


# ----------------------------------------------------------------------
# tasks

def setup_probe(workload, seed):
    """Body of one fresh setup process: import, generate inputs, print time."""
    t0 = time.perf_counter()
    import_cdelab()
    import workloads
    workloads.make_rounds(workloads.WORKLOADS[workload], seed)
    print(repr(time.perf_counter() - t0))


def measure_setup(workload, seed):
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


class Runner:
    """Calls tasks through ``cli.main`` and checks their outputs afterwards."""

    def __init__(self, cli, check):
        self.cli = cli
        self.check = check
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def call(self, task):
        """Run one task; returns (seconds, exit code, stdout, stderr, error)."""
        out, err = io.StringIO(), io.StringIO()
        error = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = self.cli.main(list(task.argv))
            except Exception:  # a crashing task is recorded, not fatal
                code, error = None, traceback.format_exc()
            elapsed = time.perf_counter() - t0
        return elapsed, code, out.getvalue(), err.getvalue(), error

    def verify(self, task, result):
        """Check one task's output; records failures, returns True on pass."""
        _, code, text, err, error = result
        self.attempted += 1
        if error is not None:
            results = [("exception", False, error.strip().splitlines()[-1])]
        elif code != 0:
            results = [("exit_code", False, f"exit {code}: {err.strip()}")]
        else:
            try:
                results = self.check(task.params, text)
            except Exception:  # unparseable output fails the task
                results = [("parse", False,
                            traceback.format_exc().strip().splitlines()[-1])]
        failed = [(name, detail) for name, ok, detail in results if not ok]
        for name, detail in failed:
            self.failures.append({"task": task.task_id, "argv": list(task.argv),
                                  "check": name, "detail": detail})
        self.failed += bool(failed)
        return not failed


def run_rounds(runner, rounds, seconds):
    """Whole rounds while a mean round still ends within ``seconds``.

    At least one round runs.  Returns the per-task times and the number of
    tasks that passed their check.
    """
    times, passed = [], 0
    start = time.perf_counter()
    round_walls = []
    for tasks in rounds:
        elapsed = time.perf_counter() - start
        if round_walls and elapsed + statistics.mean(round_walls) > seconds:
            break
        r0 = time.perf_counter()
        for task in tasks:
            result = runner.call(task)
            times.append(result[0])
            passed += runner.verify(task, result)
        round_walls.append(time.perf_counter() - r0)
    return times, passed


def end_to_end(args):
    _, cli = import_cdelab()
    import checks
    import workloads
    workload = workloads.WORKLOADS[args.workload]
    rounds = workloads.make_rounds(workload, args.seed)
    setup = measure_setup(args.workload, args.seed)

    runner = Runner(cli, checks.CHECKS[args.workload])
    runner.verify(workload.warmup, runner.call(workload.warmup))
    times, passed = run_rounds(runner, rounds, args.seconds)
    metrics = {
        "solves_per_s": passed / sum(times),
        "solve_s.p50": statistics.median(times),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    fail_ratio = runner.failed / runner.attempted
    lines = [
        f"  solves_per_s = {metrics['solves_per_s']:.4f} 1/s "
        f"({passed} passed tasks / {sum(times):.3f} s of task time)",
        f"  solve_s.p50  = {metrics['solve_s.p50']:.4f} s (n = {len(times)})",
        f"  setup_s      = {metrics['setup_s']:.4f} s "
        f"(median of {len(setup)} fresh processes)",
        f"  peak_rss_mb  = {metrics['peak_rss_mb']:.1f} MiB",
        f"  fail_ratio   = {fail_ratio:.4f} "
        f"({runner.failed} of {runner.attempted} tasks attempted)",
    ]
    extra = {"task_seconds": times, "setup_samples": setup,
             "fail_ratio": fail_ratio, "solve_s.p50.samples": len(times)}
    return runner, metrics, lines, extra, {}


def traced(args):
    cdelab, cli = import_cdelab()
    import checks
    import tracer as tracing
    import workloads
    workload = workloads.WORKLOADS[args.workload]
    tasks = workloads.make_rounds(workload, args.seed, rounds=1)[0]

    runner = Runner(cli, checks.CHECKS[args.workload])
    runner.verify(workload.warmup, runner.call(workload.warmup))
    untraced = [runner.call(task) for task in tasks]

    tr = tracing.Tracer()
    tr.install(cdelab)
    try:
        results = []
        for task in tasks:
            with tr.task_span(task.task_id):
                results.append(runner.call(task))
    finally:
        tr.uninstall()

    for task, result in zip(tasks + tasks, untraced + results):
        runner.verify(task, result)
    overhead = sum(r[0] for r in results) / sum(r[0] for r in untraced)
    bytes_out = sum(len(r[2].encode()) for r in results)
    metrics, absent = tracing.layer_metrics(tr, bytes_out, overhead)
    OUT_DIR.mkdir(exist_ok=True)
    span_path = OUT_DIR / f"{args.workload}-seed{args.seed}-spans.npz"
    tr.save(span_path)
    lines = [f"  {name} = {value!r}" for name, value in metrics.items()]
    lines.append(f"  {len(tr.name)} spans written to {span_path.relative_to(ROOT)}")
    if absent:
        lines.append(f"  absent from the package: {', '.join(absent)}")
    extra = {"tasks": len(tasks), "spans": len(tr.name)}
    return runner, metrics, lines, extra, tracing.absent_metrics(absent, metrics)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    nproc = limit_blas_threads()
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    declared = spec["per_layer" if args.trace else "end_to_end"]

    run = traced if args.trace else end_to_end
    runner, metrics, lines, extra, absent = run(args)
    env = environment(args.workload, args.seed, nproc)
    report = {}
    for m in declared:
        report[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
        if m["name"] in absent:
            report[m["name"]]["absent"] = True
    result = {"correct": runner.failed == 0, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": report}

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"environment": env, "result": result,
                                "failures": runner.failures, **extra},
                               indent=1) + "\n")
    print(f"workload {args.workload}, seed {args.seed} "
          f"(claim seed {env['claim_seed']}), trace {args.trace}")
    print("\n".join(lines))
    for f in runner.failures:
        print(f"  FAILED task {f['task']} check {f['check']}: {f['detail']}")
    print("environment " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
