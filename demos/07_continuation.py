"""Both ends of the periodic family.

Small periods: orbits shrink onto the center equilibrium with period
2^(3/4)*pi.  Large periods (epsilon -> 0): ground states converge to the
homoclinic profile, with energies delta_eps approaching 9*pi/32.
"""

import numpy as np

from cdelab import dynamics, orbits, serialize


def main():
    print("small-oscillation end: periods vs amplitude")
    amplitudes = [1e-2, 1e-3, 1e-4]
    for h, orb in zip(amplitudes, orbits.lyapunov_family(amplitudes)):
        tr = orbits.field_to_orbit(orb.field)
        dist = np.max(np.linalg.norm(tr.states - dynamics.P_PLUS, axis=1))
        print(f"  amplitude {h:.0e}: period = {orb.period:.9f}, "
              f"sup distance to the center = {dist:.2e}")
    print(f"  limiting period 2^(3/4)*pi = {2**0.75 * np.pi:.9f}")

    print("\nlarge-period end: ground-state energies")
    diagram = orbits.period_energy_diagram([0.2, 0.1, 0.05])
    print(f"  delta0 = {diagram['delta0']:.9f}")
    print("  epsilon    T      delta_eps        gap        converged")
    for row in diagram["rows"]:
        print(f"  {row['epsilon']:.2f}     {row['T']:5.1f}  "
              f"{row['delta_eps']:.9f}  {row['gap']:.3e}  {row['converged']}")

    print("\nconvergence to the homoclinic (largest period):")
    best = diagram["rows"][-1]["result"]
    d = orbits.distance_to_homoclinic(orbits.field_to_orbit(best.field))
    print(f"  sup distance over |t - peak| <= 10: {d['sup_dist']:.2e} "
          f"(optimal shift {d['shift']:+.2e})")

    print("\ndiagram as CSV:")
    print(serialize.diagram_to_csv(diagram))


if __name__ == "__main__":
    main()
