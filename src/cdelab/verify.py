"""Self-check suites behind the ``verify`` CLI subcommand.

Each suite returns a list of (name, passed, detail) tuples; a suite passes
when every check does.  These are quick consistency audits, not the full
test suite.
"""

import numpy as np

from . import dynamics, linear, integrators, spectral, orbits, homoclinic
from . import geometry


def _check(name, passed, detail=""):
    return (name, bool(passed), detail)


def suite_equilibria(seed=0, tol=1e-15):
    cat = dynamics.equilibria()
    out = []
    for name, point, energy in cat.items():
        fnorm = float(np.linalg.norm(dynamics.vector_field(point)))
        out.append(_check(f"vector field vanishes at {name}", fnorm <= tol,
                          f"|f| = {fnorm:.3e}"))
    out.append(_check("H(P0) = 0", cat.energies[0] == 0.0,
                      f"H = {cat.energies[0]!r}"))
    out.append(_check("H(P+) = -1/8", cat.energies[1] == -0.125,
                      f"H = {cat.energies[1]!r}"))
    out.append(_check("H(P-) = -1/8", cat.energies[2] == -0.125,
                      f"H = {cat.energies[2]!r}"))
    return out


def suite_linear(seed=0, tol=1e-10):
    rep = linear.eigenvalues_4x4(linear.matrix_c())
    mu = 2.0 ** 0.25
    expected = np.array([mu, -mu, 1j * mu, -1j * mu])
    errs = [min(abs(ev - e) for ev in rep.eigenvalues) for e in expected]
    out = [_check("linearization eigenvalues {±2^(1/4), ±i 2^(1/4)}",
                  max(errs) <= tol, f"max error {max(errs):.3e}")]
    period = linear.lyapunov_period(rep)
    t0 = 2.0 ** 0.75 * np.pi
    out.append(_check("predicted period 2^(3/4) pi",
                      abs(period - t0) <= tol,
                      f"T0 = {period!r}, error {abs(period - t0):.3e}"))
    lam4 = [abs(ev ** 4 - 2.0) for ev in rep.eigenvalues]
    out.append(_check("lambda^4 = 2 for every eigenvalue",
                      max(lam4) <= tol, f"max defect {max(lam4):.3e}"))
    return out


def suite_integrator(seed=0, tol=1e-8):
    # a converged periodic orbit; generic perturbations of the saddle-center
    # escape, and even this orbit can only be shadowed to t ~ 20
    orb = orbits.lyapunov_family([1e-2])[0]
    cfg = integrators.StepperConfig(method="implicit_midpoint", dt=1e-3)
    tr = integrators.integrate(orb.initial_state, 15.0, cfg)
    drift = integrators.energy_drift(tr)
    out = [_check("implicit midpoint drift <= 1e-8 over t in [0,15]",
                  drift <= tol, f"drift = {drift:.3e}")]
    fwd = integrators.implicit_midpoint_step(orb.initial_state, 1e-2)
    back = integrators.implicit_midpoint_step(fwd, -1e-2)
    defect = np.linalg.norm(back - orb.initial_state)
    out.append(_check("implicit midpoint is time-symmetric",
                      defect <= 1e-10, f"defect {defect:.3e}"))
    return out


def suite_homoclinic(seed=0, tol=1e-10):
    rep = homoclinic.derive_constants()
    out = [
        _check("alpha^2 = 3/2", rep.alpha_sq == 1.5, f"alpha^2 = {rep.alpha_sq!r}"),
        _check("beta^2 = 3/8", rep.beta_sq == 0.375, f"beta^2 = {rep.beta_sq!r}"),
        _check("derived profile residual <= 1e-10 on [-10,10]",
               rep.residual_derived <= tol,
               f"residual = {rep.residual_derived:.3e}"),
        _check("quoted-amplitude residual recorded (nonzero)",
               rep.residual_quoted > 1e-3,
               f"residual = {rep.residual_quoted:.3e}"),
    ]
    prof = homoclinic.derived_profile()
    t = np.linspace(-10, 10, 2001)
    h = np.max(np.abs(prof.energy(t)))
    out.append(_check("H = 0 along the profile", h <= 1e-12, f"max |H| = {h:.3e}"))
    return out


def suite_operator_a(seed=0, tol=1e-12):
    sp = spectral.build_spectrum(1.0 / np.pi, 16)
    lam_defect = np.max(np.abs(sp.lam ** 2 - (1.0 + sp.omega ** 2))
                        / (1.0 + sp.omega ** 2))
    out = [_check("lambda^2 = 1 + omega^2 to rounding", lam_defect <= 1e-15,
                  f"defect {lam_defect:.3e}"),
           _check("trivial kernel: min |lambda| = 1", np.min(sp.lam) == 1.0,
                  f"min = {np.min(sp.lam)!r}")]
    rng = np.random.default_rng(seed)
    M = 2 * sp.num_modes + 1
    z = rng.standard_normal((M, 2)) + 1j * rng.standard_normal((M, 2))
    z = z + np.conj(z[::-1])
    zp, zm = spectral.project(z, sp)
    out.append(_check("P+ + P- completeness",
                      np.max(np.abs(zp + zm - z)) <= tol,
                      f"defect {np.max(np.abs(zp + zm - z)):.3e}"))
    azz = spectral.apply_A_ab(spectral.apply_A_ab(z, sp), sp)
    target = (1.0 + sp.omega ** 2)[:, None] * z
    out.append(_check("A^2 = -z'' + z in coefficients",
                      np.max(np.abs(azz - target)) <= tol,
                      f"defect {np.max(np.abs(azz - target)):.3e}"))
    return out


def suite_clifford(seed=0, tol=1e-12):
    rng = np.random.default_rng(seed)
    worst_sq = 0.0
    worst_skew = 0.0
    for _ in range(100):
        x = rng.standard_normal(3)
        phi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        xxphi = geometry.clifford_mult(x, geometry.clifford_mult(x, phi))
        worst_sq = max(worst_sq, float(np.max(np.abs(xxphi + np.dot(x, x) * phi))))
        ip = np.vdot(phi, geometry.clifford_mult(x, phi))
        worst_skew = max(worst_skew, abs(ip.real))
    return [_check("x.(x.phi) = -|x|^2 phi on 100 samples", worst_sq <= tol,
                   f"max defect {worst_sq:.3e}"),
            _check("<phi, x.phi> purely imaginary", worst_skew <= tol,
                   f"max real part {worst_skew:.3e}")]


def suite_transforms(seed=0, tol=1e-12):
    prof = homoclinic.derived_profile()
    t = np.linspace(-4.0, 4.0, 8001)
    states = prof(t)
    cyl = geometry.RadialProfile(chart="cylinder", grid=t, u=states[0],
                                 f1=states[2], f2=states[3])
    euc = geometry.cylinder_to_euclidean(cyl)
    back = geometry.euclidean_to_cylinder(euc)
    order = np.argsort(t)
    defect = max(np.max(np.abs(back.u - states[0][order])),
                 np.max(np.abs(back.f1 - states[2][order])),
                 np.max(np.abs(back.f2 - states[3][order])))
    out = [_check("cylinder/euclidean round trip identity",
                  defect <= tol, f"defect {defect:.3e}")]
    fit = geometry.coupling_constant_fit(euc)
    out.append(_check("transported homoclinic fits kappa = 1",
                      abs(fit.kappa - 1.0) <= 1e-6 and fit.residual <= 1e-6,
                      f"kappa = {fit.kappa!r}, residual {fit.residual:.3e}"))
    return out


SUITES = {
    "equilibria": suite_equilibria,
    "linear": suite_linear,
    "integrator": suite_integrator,
    "homoclinic": suite_homoclinic,
    "operator-a": suite_operator_a,
    "clifford": suite_clifford,
    "transforms": suite_transforms,
}


def run_suite(name, seed=0, tol=None):
    """Run one suite (or 'all'); returns the flat list of check tuples."""
    if name == "all":
        results = []
        for key in SUITES:
            results.extend(run_suite(key, seed=seed, tol=tol))
        return results
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from "
                         f"{sorted(SUITES) + ['all']}")
    fn = SUITES[name]
    return fn(seed=seed) if tol is None else fn(seed=seed, tol=tol)
