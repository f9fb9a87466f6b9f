"""Seeded task lists for the two benchmark workloads.

Every task is one ``cdelab`` CLI call.  Inputs come only from the seed: a
workload's task list is a sequence of rounds, and each round is a stratified
sample of the workload's input range (one draw per stratum, in shuffled
order), so every round covers the whole range while each seed still gives
different inputs.  Each workload also names one untimed warm-up input, the
one with the largest working set in its range; it runs first, so that
``peak_rss_mb`` is the range's peak and not that of whichever inputs a seed
happens to draw.
"""

import math
import random
from dataclasses import dataclass

import numpy as np

#: closed-form homoclinic amplitudes, alpha^2 = 3/2 and beta^2 = 3/8
ALPHA = math.sqrt(1.5)
BETA = math.sqrt(0.375)

#: trajectories: fixed step, start-time range on the homoclinic, horizon range
DT = 1e-3
T0_RANGE = (-6.0, 2.0)
HORIZON_RANGE = (5.0, 10.0)
#: ground_states_small_eps: epsilon range, K = ceil(6.4/eps) from 107 to 256
SMALL_EPS_RANGE = (0.025, 0.06)

#: rounds generated per run: enough for a 60 s run even if tasks become
#: about 8x faster than at the commit that defined the benchmark
ROUNDS = 64


def homoclinic_states(t):
    """Closed-form homoclinic (u, v, a, b) at times t, shape (4,) + t.shape.

    u = alpha sech(t)^(1/2), v = u', a = beta e^(t/2) sech(t)^(3/2),
    b = beta e^(-t/2) sech(t)^(3/2).
    """
    t = np.asarray(t, dtype=float)
    log_sech = -(np.abs(t) + np.log1p(np.exp(-2.0 * np.abs(t))) - math.log(2.0))
    u = ALPHA * np.exp(0.5 * log_sech)
    v = -0.5 * np.tanh(t) * u
    a = BETA * np.exp(0.5 * t + 1.5 * log_sech)
    b = BETA * np.exp(-0.5 * t + 1.5 * log_sech)
    return np.stack([u, v, a, b])


@dataclass(frozen=True)
class Task:
    """One CLI call: its argument list and the inputs its check needs."""
    task_id: int
    argv: tuple
    params: dict


def _strata(rng, m):
    """One uniform draw in each of m equal strata of [0, 1), shuffled."""
    draws = [(i + rng.random()) / m for i in range(m)]
    rng.shuffle(draws)
    return draws


def _lerp(lo_hi, x):
    lo, hi = lo_hi
    return lo + (hi - lo) * x


def _integrate_task(task_id, t0, horizon, method, fmt):
    state = ",".join(repr(float(x)) for x in homoclinic_states(t0))
    argv = ["integrate", "--state", state, "--t-final", repr(horizon),
            "--dt", repr(DT), "--method", method]
    if fmt == "json":
        argv += ["--format", "json"]
    return Task(task_id, tuple(argv), {"t0": t0, "horizon": horizon,
                                       "method": method, "format": fmt})


def _trajectories_round(rng, first_id):
    # each (method, format) pair takes one draw in each half of the
    # horizon range, so every round has the same mix of task sizes
    draws = [(method, fmt, x) for method in ("rk4", "implicit_midpoint")
             for fmt in ("csv", "json") for x in _strata(rng, 2)]
    rng.shuffle(draws)
    return [_integrate_task(first_id + i, _lerp(T0_RANGE, rng.random()),
                            _lerp(HORIZON_RANGE, x), method, fmt)
            for i, (method, fmt, x) in enumerate(draws)]


def _ground_state_task(task_id, eps):
    return Task(task_id, ("ground-state", "--epsilon", repr(eps)),
                {"epsilon": eps})


def _small_eps_round(rng, first_id):
    return [_ground_state_task(first_id + i, _lerp(SMALL_EPS_RANGE, x))
            for i, x in enumerate(_strata(rng, 12))]


@dataclass(frozen=True)
class Workload:
    name: str
    make_round: object      # (rng, first_task_id) -> list[Task]
    warmup: Task            # untimed first task with the largest working set


WORKLOADS = {
    "trajectories": Workload(
        "trajectories", _trajectories_round,
        _integrate_task(-1, T0_RANGE[0], HORIZON_RANGE[1],
                        "implicit_midpoint", "json")),
    "ground_states_small_eps": Workload(
        "ground_states_small_eps", _small_eps_round,
        _ground_state_task(-1, SMALL_EPS_RANGE[0])),
}


def make_rounds(workload, seed, rounds=ROUNDS):
    """The seeded task list of a workload, as a list of rounds."""
    rng = random.Random(f"{workload.name}:{seed}")
    out = []
    next_id = 0
    for _ in range(rounds):
        tasks = workload.make_round(rng, next_id)
        next_id += len(tasks)
        out.append(tasks)
    return out
