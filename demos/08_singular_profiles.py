"""Singular-solution profiles on punctured euclidean space and the sphere.

The Emden-Fowler substitution r = e^{-t} with weights r^(-1/2) (scalar) and
r^(-1) (spinor) carries cylinder solutions to radial solutions on R^3 minus
the origin; inverse stereographic projection then moves them to the sphere
minus two antipodal points.  The transported homoclinic satisfies
-Lap(u) = kappa |psi|^2 u with kappa = 1; the closed-form pair as usually
printed fits kappa = 3/8, a pure normalization gap.
"""

import numpy as np

from cdelab import geometry, homoclinic


def main():
    prof = homoclinic.derived_profile()
    t = np.linspace(-4.0, 4.0, 8001)
    u, _, a, b = prof(t)
    cyl = geometry.RadialProfile(chart="cylinder", grid=t, u=u, f1=a, f2=b)

    euc = geometry.cylinder_to_euclidean(cyl)
    fit = geometry.coupling_constant_fit(euc)
    print("transported homoclinic on R^3 \\ {0}:")
    print(f"  -Lap(u) = kappa (f1^2 + f2^2) u fits kappa = {fit.kappa:.9f} "
          f"(residual {fit.residual:.2e})")

    printed = geometry.coupling_constant_fit(
        geometry.closed_form_profile(1.0, np.exp(-t)[::-1]))
    print(f"  closed-form pair as printed fits kappa = {printed.kappa:.9f} "
          f"(normalization gap; residual {printed.residual:.2e})")

    cyl_img = geometry.euclidean_to_cylinder(
        geometry.closed_form_profile(1.0, np.exp(-t)))
    amp = np.max(np.abs(cyl_img.u - np.cosh(np.sort(t)) ** -0.5))
    print(f"  cylinder image of the closed-form scalar is cosh^(-1/2) with "
          f"amplitude 1 (defect {amp:.2e}); the derived pulse has amplitude "
          f"sqrt(3/2) = {np.sqrt(1.5):.6f}")

    lam = geometry.best_fit_scale(euc)
    print(f"  best-fit scale parameter of the transported pulse: {lam:.6f}")

    sph, convention = geometry.euclidean_to_sphere(euc)
    print("\non the sphere minus two poles:")
    print(f"  polar angles cover ({sph.grid.min():.4f}, {sph.grid.max():.4f}) "
          f"in (0, pi)")
    print(f"  scalar part is constant: u in "
          f"[{sph.u.min():.12f}, {sph.u.max():.12f}]")
    dens = sph.f1 ** 2 + sph.f2 ** 2
    print(f"  spinor density constant: {dens.min():.12f} .. {dens.max():.12f}")
    print("  conventions:", convention["angle"])

    print("\nClifford check: x.(x.phi) = -|x|^2 phi on a random sample")
    rng = np.random.default_rng(8)
    x = rng.standard_normal(3)
    phi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    lhs = geometry.clifford_mult(x, geometry.clifford_mult(x, phi))
    print(f"  defect {np.max(np.abs(lhs + np.dot(x, x) * phi)):.2e}")


if __name__ == "__main__":
    main()
