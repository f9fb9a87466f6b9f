"""The Jacobian of the vector field, and the closed-form spectrum at the center.

The linearization ``matrix_c()`` at the rotated-chart center (1, 0, 1/2, 0)
is R J(P+) R, with J = ``jacobian_at`` and R the rotation
``dynamics.to_rotated``, written in closed form: x -> (x2, -x3, -2 x4, x1).
An eigenvector x with eigenvalue lambda thus has x2 = lambda x1,
x3 = -lambda^2 x1, x4 = lambda^3 x1 / 2 and x1 = lambda^4 x1 / 2: the
characteristic polynomial is lambda^4 - 2, and the spectrum is +/-OMEGA,
+/-i OMEGA, a saddle-center.  ``verify linear`` checks this against LAPACK.
"""

import numpy as np

#: 2^(1/4): the elliptic frequency, and the hyperbolic rate, at the center
OMEGA = 2.0 ** 0.25


def jacobian_at(point):
    """Analytic partial derivatives (4x4) of the vector field at a point."""
    u, v, a, b = np.asarray(point, dtype=float)
    return np.array([
        [0.0, 1.0, 0.0, 0.0],
        [-(a * a + b * b - 0.25), 0.0, -2.0 * a * u, -2.0 * b * u],
        [2.0 * u * b, 0.0, -1.0, u * u],
        [-2.0 * u * a, 0.0, -u * u, 1.0],
    ])


def matrix_c():
    """Linearization x -> (x2, -x3, -2 x4, x1) at the rotated-chart center
    (1, 0, 1/2, 0); the -0.0 entries are -2 u bbar and -2 bbar u at bbar = 0."""
    return np.array([
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, -1.0, -0.0],
        [-0.0, 0.0, 0.0, -2.0],
        [1.0, 0.0, 0.0, 0.0],
    ])
