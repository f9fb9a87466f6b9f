import numpy as np
import pytest

from cdelab import homoclinic, orbits, spectral

EPS_GRID = (0.2, 0.1, 0.05)
AMPLITUDES = (1e-2, 1e-3, 1e-4)


@pytest.fixture(scope="session")
def ground_states():
    """Converged ground states at the three standard epsilon values."""
    return {eps: spectral.ground_state(eps) for eps in EPS_GRID}


@pytest.fixture(scope="session")
def lyapunov_orbits():
    """Small-oscillation family at the three standard amplitudes."""
    return dict(zip(AMPLITUDES, orbits.lyapunov_family(list(AMPLITUDES))))


@pytest.fixture(scope="session")
def homoclinic_profile():
    return homoclinic.derived_profile()


def random_states(n, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return scale * rng.standard_normal((4, n))
