"""The first-order spinor operator on periodic fields.

Per Fourier mode the operator is a 2x2 Hermitian matrix with eigenvalues
+/-sqrt(1 + omega_k^2) - never zero, so the splitting into positive and
negative spectral subspaces is total.  The square of the operator is the
second-order operator -z'' + z, diagonal in the same basis.  The operator
is applied as the solver applies it: the spinor rows of the packed linear
part ``gather(x, linear_w)``.
"""

import numpy as np

from cdelab import spectral


def main():
    T, K = np.pi, 8
    sp = spectral.build_spectrum(1.0 / T, K)
    print(f"spectrum for half-period T = pi, {2 * K + 1} modes")
    print("  k   omega      +lambda     -lambda")
    for k, omega, lam in zip(sp.k[K:K + 5], sp.omega[K:], sp.lam[K:]):
        print(f"  {k:+d}  {omega: .5f}   {lam: .9f}  {-lam: .9f}")
    print(f"  min |lambda| = {sp.lam.min()} (trivial kernel)")

    print("\nconstant modes: eigenvectors (1,1)/sqrt2 and (1,-1)/sqrt2")
    print("  v+ =", sp.eigvec_plus[K], " v- =", sp.eigvec_minus[K])

    rng = np.random.default_rng(5)
    M = 2 * K + 1
    z = rng.standard_normal((M, 2)) + 1j * rng.standard_normal((M, 2))
    z = z + np.conj(z[::-1])          # real field
    p, m = spectral.split_spinor(z, sp)
    f = spectral.field_from_coeffs(sp, np.zeros(M), p, m)

    def apply_A(f):
        return spectral.PeriodicField(sp, sp.gather(f.x, sp.linear_w))

    sq = apply_A(apply_A(f)).z_ab_coeffs()
    target = (1.0 + sp.omega ** 2)[:, None] * f.z_ab_coeffs()
    print(f"\nA^2 z vs (-z'' + z): coefficient defect "
          f"{np.max(np.abs(sq - target)):.2e}")

    zp, zm = spectral.project(z, sp)
    print("splitting of a random field:")
    print(f"  completeness defect {np.max(np.abs(zp + zm - z)):.2e}")
    print(f"  L2 orthogonality    {abs(2.0 * np.sum(np.conj(zp) * zm)):.2e}")
    af = apply_A(f)
    print(f"  diagonal action: plus part scaled by +lambda, minus by -lambda "
          f"(spot check {af.z_plus[K] / f.z_plus[K]:+.3f}, "
          f"{af.z_minus[K] / f.z_minus[K]:+.3f})")


if __name__ == "__main__":
    main()
