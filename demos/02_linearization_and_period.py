"""Linearization at the center equilibrium and the limiting period.

The rotated-chart Jacobian at (1, 0, 1/2, 0) has eigenvalues +/-2^(1/4) and
+/-i 2^(1/4): a saddle-center.  The elliptic pair predicts the period
2*pi/2^(1/4) = 2^(3/4)*pi of the small-orbit family.
"""

import numpy as np

from cdelab import linear


def main():
    c = linear.matrix_c()
    print("linearization at the rotated center equilibrium:")
    print(np.array2string(c, precision=3))

    report = linear.eigenvalues_4x4(c)
    print("\neigenvalues:", np.sort_complex(report.eigenvalues))
    print("lambda^4 - 2 defects:",
          [f"{abs(ev**4 - 2.0):.1e}" for ev in report.eigenvalues])
    print(f"hyperbolic exponent mu = {report.hyperbolic_mu:.12f}")
    print(f"elliptic frequency omega = {report.elliptic_omega:.12f}")

    period = linear.lyapunov_period(report)
    print(f"\npredicted limiting period 2*pi/omega = {period:.12f}")
    print(f"2^(3/4)*pi                            = {2**0.75 * np.pi:.12f}")

    print("\nspectrum symmetry under lambda -> -lambda holds at every "
          "equilibrium; the saddle at the origin has rates +/-1/2, +/-1.")
    from cdelab import dynamics
    rep0 = linear.eigenvalues_4x4(linear.jacobian_at(dynamics.P0, "original"))
    print("origin eigenvalues:", np.sort_complex(rep0.eigenvalues))


if __name__ == "__main__":
    main()
