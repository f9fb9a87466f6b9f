"""Output checks for benchmark tasks, run outside the timed and traced regions.

Each check parses the text a CLI call printed and returns a list of
``(check_name, passed, detail)``.  The tolerances come from the test suite
and PAPER.md.  The implicit-midpoint ones are dt^2-scaled and fixed from the
largest values over the workload's input range (t0 in [-6, 2], horizon 10):
sup error 5.0e-4 at t0 = -2.1 and energy drift 3.52e-8.
"""

import io
import json
import math

import numpy as np
from cdelab import serialize, spectral

from workloads import DT, homoclinic_states

#: trajectories (criterion 3 for RK4; implicit midpoint is second order)
RK4_SUP_ERROR = 1e-6
IM_SUP_ERROR_PER_DT2 = 550.0       # 5.5e-4 at dt = 1e-3
IM_DRIFT_PER_DT2 = 0.036           # 3.6e-8 at dt = 1e-3
#: ground states (criterion 6) and the gap law delta_0 - delta_eps ~ 3 e^(-1/eps)
GRADIENT_NORM = 1e-8
NEHARI_REL = 1e-6
DELTA0 = 9.0 * math.pi / 32.0
GAP_LAW_REL = 1e-3
GAP_LAW_ABS = 1e-13


def hamiltonian(states):
    """H of each row of an (n, 4) state array."""
    u, v, a, b = states.T
    return 0.5 * v * v + 0.5 * u * u * (a * a + b * b - 0.25) - a * b


def _check(name, value, ok, limit):
    return (name, bool(ok), f"{value:.3e} vs {limit:.3e}")


def check_trajectory(params, text):
    if params["format"] == "json":
        rows = np.array(json.loads(text)["samples"], dtype=float)
        times, states = rows[:, 0], rows[:, 1:5]
    else:
        rows = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
        times, states = rows[:, 0], rows[:, 1:5]
    expected_rows = round(params["horizon"] / DT) + 1
    out = [("row_count", len(rows) == expected_rows,
            f"{len(rows)} rows, expected {expected_rows}")]
    ref = homoclinic_states(params["t0"] + times).T
    sup_error = float(np.max(np.abs(states - ref)))
    if params["method"] == "rk4":
        out.append(_check("rk4_sup_error", sup_error,
                          sup_error <= RK4_SUP_ERROR, RK4_SUP_ERROR))
    else:
        h = hamiltonian(states)
        drift = float(np.max(np.abs(h - h[0])))
        err_limit = IM_SUP_ERROR_PER_DT2 * DT ** 2
        drift_limit = IM_DRIFT_PER_DT2 * DT ** 2
        out.append(_check("im_sup_error", sup_error,
                          sup_error <= err_limit, err_limit))
        out.append(_check("im_energy_drift", drift,
                          drift <= drift_limit, drift_limit))
    return out


def check_ground_state(params, text):
    rec = json.loads(text)
    eps = params["epsilon"]
    grad = rec["provenance"]["gradient_norm"]
    field = serialize.field_from_json(rec["field"])
    nehari = spectral.nehari_residuals(field).max_relative()
    delta = rec["delta_eps"]
    out = [
        _check("gradient_norm", grad, grad <= GRADIENT_NORM, GRADIENT_NORM),
        _check("nehari_rel", nehari, nehari <= NEHARI_REL, NEHARI_REL),
        ("energy_window", 0.0 < delta < 1.0 / (4.0 * eps),
         f"delta_eps {delta!r} in (0, {1.0 / (4.0 * eps)!r})"),
    ]
    predicted = 3.0 * math.exp(-1.0 / eps)
    defect = abs(DELTA0 - delta - predicted)
    limit = GAP_LAW_REL * predicted + GAP_LAW_ABS
    out.append(_check("gap_law", defect, defect <= limit, limit))
    return out


CHECKS = {
    "trajectories": check_trajectory,
    "ground_states_small_eps": check_ground_state,
}
