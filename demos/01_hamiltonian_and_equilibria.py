"""Tour of the cylinder Hamiltonian system: energy, flow field, equilibria.

The phase space is (u, v, a, b) with v = u' and (a, b) the spinor pair.  The
origin is a saddle; the two points with u = 1 sit at energy -1/8 and carry
the small-oscillation family explored in the other demos.
"""

import numpy as np

from cdelab import dynamics


def main():
    print("energy at a few states")
    for s in (np.zeros(4), dynamics.P_PLUS, np.array([0.0, 1.0, 0.0, 0.0])):
        print(f"  H{tuple(np.round(s, 6))} = {dynamics.hamiltonian(s)!r}")

    print("\nequilibrium catalog (vector field norm, energy)")
    for name, point, energy in dynamics.equilibria():
        fnorm = np.linalg.norm(dynamics.vector_field(point))
        print(f"  {name}: |f| = {fnorm:.2e},  H = {energy!r}")

    print("\nrotated chart: the center equilibrium becomes (1, 0, 1/2, 0)")
    print("  to_rotated(P+) =", dynamics.to_rotated(dynamics.P_PLUS))

    print("\ndiscrete symmetry (u,v,a,b) -> (u,-v,b,a) anticommutes with the flow")
    rng = np.random.default_rng(0)
    s = rng.standard_normal(4)
    lhs = dynamics.vector_field(dynamics.time_reversal_swap(s))
    rhs = -dynamics.time_reversal_swap(dynamics.vector_field(s))
    print(f"  max defect over a random state: {np.max(np.abs(lhs - rhs)):.2e}")

    print("\ncomplex spinor view psi = a + ib")
    psi = dynamics.spinor_from_state(dynamics.P_PLUS)
    print(f"  psi = {psi:.6f}, conj(psi) = {psi.conjugate():.6f}")


if __name__ == "__main__":
    main()
