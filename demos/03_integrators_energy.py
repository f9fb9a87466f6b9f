"""Energy behaviour of the two steppers.

Implicit midpoint is symplectic for this system, so its energy error stays
bounded and scales as dt^2; RK4 trades that structure for fourth-order local
accuracy.  Both are demonstrated on a small periodic orbit.  Note the
equilibria are saddle-centers: trajectories can be shadowed only until the
hyperbolic direction amplifies rounding (around t ~ 20 at these tolerances),
which bounds every long-horizon experiment in this phase space.
"""

import numpy as np

from cdelab import integrators, orbits


def main():
    print("finding a small periodic orbit (amplitude 1e-2) ...")
    orb = orbits.lyapunov_family([1e-2])[0]
    print(f"  period = {orb.period:.9f}, spectral residual = {orb.merit:.2e}")

    print("\nimplicit midpoint drift over t in [0, 15]:")
    for dt in (4e-3, 2e-3, 1e-3):
        tr = integrators.integrate(orb.initial_state, 15.0, dt,
                                   "implicit_midpoint")
        print(f"  dt = {dt}: max |H - H0| = {integrators.energy_drift(tr):.3e}")
    print("  (each halving divides the drift by ~4: second order)")

    print("\nrk4 drift over t in [0, 4]:")
    for dt in (2e-2, 1e-2):
        tr = integrators.integrate(orb.initial_state, 4.0, dt, "rk4")
        print(f"  dt = {dt}: max |H - H0| = {integrators.energy_drift(tr):.3e}")
    print("  (halving divides the drift by ~16: fourth order)")

    print("\ntime symmetry of the midpoint rule: step dt then -dt")
    s = orb.initial_state
    fwd = integrators.implicit_midpoint_step(s, 1e-2)
    back = integrators.implicit_midpoint_step(fwd, -1e-2)
    print(f"  return defect = {np.linalg.norm(back - s):.2e}")


if __name__ == "__main__":
    main()
