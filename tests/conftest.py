from contextlib import contextmanager

import numpy as np
import pytest

from cdelab import spectral, orbits

EPS_GRID = (0.2, 0.1, 0.05)
AMPLITUDES = (1e-2, 1e-3, 1e-4)


@pytest.fixture(scope="session")
def ground_states():
    """Converged ground states at the three standard epsilon values."""
    return {eps: spectral.ground_state(eps) for eps in EPS_GRID}


@contextmanager
def recording_flows():
    """Collect the base column of every batch that orbits._flow integrates."""
    bases = []
    flow = orbits._flow

    def recorded(batch, t_span, n_steps):
        bases.append(tuple(np.asarray(batch)[:, 0]))
        return flow(batch, t_span, n_steps)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(orbits, "_flow", recorded)
        yield bases


@pytest.fixture(scope="session")
def lyapunov_run():
    """Small-oscillation family at the three standard amplitudes, with the
    base states of the flows that computed it."""
    with recording_flows() as bases:
        family = orbits.lyapunov_family(list(AMPLITUDES))
    return dict(zip(AMPLITUDES, family)), bases


@pytest.fixture(scope="session")
def lyapunov_orbits(lyapunov_run):
    """Small-oscillation family at the three standard amplitudes."""
    return lyapunov_run[0]


@pytest.fixture(scope="session")
def homoclinic_profile():
    return orbits.derived_profile()


def random_states(n, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return scale * rng.standard_normal((4, n))
