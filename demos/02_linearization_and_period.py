"""Linearization at the center equilibrium and the limiting period.

The rotated-chart Jacobian at (1, 0, 1/2, 0) has characteristic polynomial
lambda^4 - 2, so eigenvalues +/-2^(1/4) and +/-i 2^(1/4): a saddle-center.
The elliptic pair predicts the period 2*pi/2^(1/4) = 2^(3/4)*pi of the
small-orbit family.  LAPACK's eigenvalues are compared with the closed form.
"""

import numpy as np

from cdelab import dynamics, linear


def main():
    c = linear.matrix_c()
    print("linearization at the rotated center equilibrium:")
    print(np.array2string(c, precision=3))
    print("characteristic polynomial coefficients:", np.poly(c))

    eigenvalues = np.linalg.eigvals(c)
    print("\neigenvalues:", np.sort_complex(eigenvalues))
    print("lambda^4 - 2 defects:",
          [f"{abs(ev**4 - 2.0):.1e}" for ev in eigenvalues])
    print(f"hyperbolic exponent mu = {np.max(eigenvalues.real):.12f}")
    print(f"elliptic frequency omega = {np.max(eigenvalues.imag):.12f}")
    print(f"closed form 2^(1/4)      = {linear.OMEGA:.12f}")

    period = 2.0 * np.pi / np.max(eigenvalues.imag)
    print(f"\npredicted limiting period 2*pi/omega = {period:.12f}")
    print(f"2^(3/4)*pi                            = {2**0.75 * np.pi:.12f}")

    print("\nspectrum symmetry under lambda -> -lambda holds at every "
          "equilibrium; the saddle at the origin has rates +/-1/2, +/-1.")
    origin = np.linalg.eigvals(linear.jacobian_at(dynamics.P0))
    print("origin eigenvalues:", np.sort_complex(origin))


if __name__ == "__main__":
    main()
