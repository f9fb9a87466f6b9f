"""Jacobians of both charts, and the closed-form spectrum at the center.

The linearization ``matrix_c()`` at the rotated-chart center (1, 0, 1/2, 0)
maps x to (x2, -x3, -2 x4, x1).  An eigenvector x with eigenvalue lambda
thus has x2 = lambda x1, x3 = -lambda^2 x1, x4 = lambda^3 x1 / 2 and
x1 = lambda^4 x1 / 2: the characteristic polynomial is lambda^4 - 2, and the
spectrum is +/-OMEGA, +/-i OMEGA, a saddle-center.  ``verify linear`` checks
this against LAPACK.
"""

import numpy as np

from . import dynamics

#: 2^(1/4): the elliptic frequency, and the hyperbolic rate, at the center
OMEGA = 2.0 ** 0.25


def jacobian_at(point, chart="original"):
    """Analytic partial derivatives (4x4) of the requested chart's vector
    field at a point."""
    u, v, a, b = np.asarray(point, dtype=float)
    if chart == "original":
        m = np.array([
            [0.0, 1.0, 0.0, 0.0],
            [-(a * a + b * b - 0.25), 0.0, -2.0 * a * u, -2.0 * b * u],
            [2.0 * u * b, 0.0, -1.0, u * u],
            [-2.0 * u * a, 0.0, -u * u, 1.0],
        ])
    elif chart == "rotated":
        m = np.array([
            [0.0, 1.0, 0.0, 0.0],
            [0.25 - a * a - b * b, 0.0, -2.0 * a * u, -2.0 * b * u],
            [-2.0 * u * b, 0.0, 0.0, -(1.0 + u * u)],
            [2.0 * u * a, 0.0, u * u - 1.0, 0.0],
        ])
    else:
        raise ValueError(f"unknown chart {chart!r}")
    return m


def matrix_c():
    """Linearization at the rotated-chart center equilibrium (1, 0, 1/2, 0)."""
    return jacobian_at(dynamics.P_PLUS_ROTATED, chart="rotated")
