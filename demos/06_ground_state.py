"""Ground state of the rescaled periodic variational problem.

The solver starts from the derived homoclinic plus its period translates,
sampled on the collocation grid, and runs inexact Newton steps, each solved
matrix-free by GMRES on the time-reversal-even fields.  The result is a
Solution that carries its certificate: the energy breakdown and the Nehari
residuals.  At a critical point the quadratic terms and the coupling
coincide and the energy equals half the coupling.
"""

import numpy as np

from cdelab import homoclinic, spectral


def main():
    eps = 0.1
    res = spectral.ground_state(eps)
    f = res.field
    eb = res.energy
    print(f"epsilon = {eps}, modes K = {f.num_modes} "
          f"(grid {spectral.grid_size(f.num_modes)})")
    print(f"  delta_eps            = {res.delta_eps:.12f}")
    print(f"  limit energy         = {homoclinic.DELTA0:.12f}  "
          f"(gap {abs(res.delta_eps - homoclinic.DELTA0):.2e})")
    print(f"  equilibrium-pair energy 1/(4 eps) = {1 / (4 * eps):.6f} "
          f"(the pulse wins)")
    print(f"  gradient norm        = {res.merit:.2e}")

    nr = res.nehari
    print(f"  constraint residuals r1, r2, r3 = "
          f"{nr.r1:.2e}, {nr.r2:.2e}, {nr.r3:.2e}")
    print(f"  critical identities: quadratic terms vs coupling")
    print(f"    scalar  {eb.scalar_quadratic:.9f}")
    print(f"    spinor  {eb.spinor_quadratic:.9f}")
    print(f"    coupling {eb.coupling:.9f}  (E = coupling/2: "
          f"{abs(eb.total - 0.5 * eb.coupling):.2e})")

    conc = spectral.concentration_diagnostic(f, r0=2.0)
    print(f"\nconcentration: window center {conc['y_center']:+.4f}, "
          f"masses u/z = {conc['mass_u']:.4f}/{conc['mass_z']:.4f}")

    # the states (u, v, a, b) on the collocation grid, one real transform
    u, _, a, b = f.grid_values
    print(f"\nscalar profile peak {u.max():.6f} "
          f"(homoclinic amplitude sqrt(3/2) = {np.sqrt(1.5):.6f})")
    print(f"spinor profile peak |z| = {np.hypot(a, b).max():.6f} "
          f"(homoclinic sqrt(3/4) = {np.sqrt(0.75):.6f})")


if __name__ == "__main__":
    main()
