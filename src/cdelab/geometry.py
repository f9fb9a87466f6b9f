"""Spinor algebra on C^2 and coordinate transforms for singular profiles.

Radial profiles live on three charts: the cylinder (variable t), punctured
euclidean space (radius r = e^{-t}), and the round sphere minus two antipodal
points (polar angle theta = 2*arctan(r)).  The transforms carry the standard
conformal weights in dimension 3: scalar weight 1/2 and spinor weight 1 in
the conformal factor, so that solutions map to solutions on each chart.

The Clifford action of a vector x on a 2-component spinor uses one fixed
irreducible representation (i times the three Pauli matrices): three
anti-commuting skew-adjoint generators squaring to -1.  All profile outputs
depend on the representation only through |Psi| and the radial pair
(f1, f2), which are representation invariant.
"""

import numpy as np
from dataclasses import dataclass

from .errors import DegenerateProfile

# i * Pauli matrices: skew-adjoint, anti-commuting, squaring to -1
CLIFFORD_GENERATORS = np.array([
    [[0.0, 1j], [1j, 0.0]],
    [[0.0, 1.0], [-1.0, 0.0]],
    [[1j, 0.0], [0.0, -1j]],
])

#: JSON schema identifier shared by all emitted documents
SCHEMA = "cde-lab/1"


@dataclass(frozen=True)
class Spinor2:
    """A C^2 spinor attached to a base point of R^3."""
    components: np.ndarray
    base_point: np.ndarray = None


@dataclass
class RadialProfile:
    """Singular-solution data on one chart.

    ``grid`` is t on the cylinder, r > 0 on the euclidean chart (the puncture
    r = 0 is excluded), or the polar angle on the sphere.  On the cylinder
    chart the (f1, f2) slots carry the spinor components (a, b).
    ``lam`` optionally records a scaling parameter.
    """
    chart: str
    grid: np.ndarray
    u: np.ndarray
    f1: np.ndarray
    f2: np.ndarray
    lam: float = None

    def __post_init__(self):
        if not np.all(np.isfinite(self.grid)):
            raise ValueError("profile grid nodes must be finite")
        d = np.diff(self.grid)
        if not (np.all(d > 0) or np.all(d < 0)):
            raise ValueError("profile grid must be strictly monotone")
        if self.chart == "euclidean" and np.any(self.grid <= 0):
            raise ValueError("euclidean grid must exclude the singular point r = 0")


def clifford_mult(x, phi):
    """Clifford action x . phi of a 3-vector on a C^2 spinor.

    Satisfies x.(x.phi) = -|x|^2 phi and <phi, x.phi> purely imaginary.
    Accepts a plain length-2 complex array or a :class:`Spinor2` and returns
    the same kind.
    """
    x = np.asarray(x, dtype=float)
    mat = np.einsum('i,ijk->jk', x, CLIFFORD_GENERATORS)
    if isinstance(phi, Spinor2):
        return Spinor2(components=mat @ phi.components,
                       base_point=phi.base_point)
    return mat @ np.asarray(phi, dtype=complex)


def ground_state_closed_form(lam, x, phi0):
    """Closed-form decaying profile pair (U, Psi) at a point of R^3.

        U(x)   = (2 lam / (lam^2 + |x|^2))^(1/2)
        Psi(x) = (2 lam / (lam^2 + |x|^2))^(3/2) (1 - x) . phi0

    with the singular point translated to the origin and |phi0| = 1.  The
    spinor is returned as a :class:`Spinor2` anchored at x.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    x = np.asarray(x, dtype=float)
    phi0 = np.asarray(phi0, dtype=complex)
    w = 2.0 * lam / (lam ** 2 + np.dot(x, x))
    psi = w ** 1.5 * (phi0 - clifford_mult(x, phi0))
    return float(np.sqrt(w)), Spinor2(components=psi, base_point=x.copy())


def closed_form_radial_pair(lam, r):
    """Radial components (f1, f2) of the closed-form spinor.

    Writing Psi = f1(r) gamma0 + (f2(r)/r) x . gamma0 gives
    f1 = w^(3/2) and f2 = -r w^(3/2) with w = 2 lam / (lam^2 + r^2).
    """
    r = np.asarray(r, dtype=float)
    w = 2.0 * lam / (lam ** 2 + r * r)
    return w ** 1.5, -r * w ** 1.5


def closed_form_profile(lam, r_grid):
    """The closed-form pair sampled as a euclidean RadialProfile."""
    r = np.asarray(r_grid, dtype=float)
    w = 2.0 * lam / (lam ** 2 + r * r)
    f1, f2 = closed_form_radial_pair(lam, r)
    return RadialProfile(chart="euclidean", grid=r, u=np.sqrt(w),
                         f1=f1, f2=f2, lam=float(lam))


# ----------------------------------------------------------------------
# chart transforms

def cylinder_to_euclidean(profile):
    """Transport a cylinder profile to the radii r = e^{-t} of its own nodes,
    in its order, with weights u_euc(r) = e^{t/2} u(t), f1(r) = -a(t) e^t,
    f2(r) = b(t) e^t; ValueError where e^{-t} or e^t overflows (|t| > ~709).
    """
    if profile.chart != "cylinder":
        raise ValueError("input profile must be on the cylinder chart")
    t = profile.grid
    with np.errstate(over="ignore", divide="ignore"):
        r = np.exp(-t)
        et = 1.0 / r                  # e^{t} at t = -ln r
    if not (np.isfinite(r).all() and np.isfinite(et).all()):
        raise ValueError(f"cylinder grid covers t in [{t.min():.3g}, "
                         f"{t.max():.3g}], where r = e^(-t) or 1/r overflows")
    return RadialProfile(chart="euclidean", grid=r,
                         u=np.sqrt(et) * profile.u, f1=-profile.f1 * et,
                         f2=profile.f2 * et, lam=profile.lam)


def euclidean_to_cylinder(profile):
    """Inverse transport onto the grid t = -ln r, in increasing t; the round
    trip through :func:`cylinder_to_euclidean` is exact."""
    if profile.chart != "euclidean":
        raise ValueError("input profile must be on the euclidean chart")
    t = -np.log(profile.grid)
    order = np.argsort(t)
    t, r = t[order], profile.grid[order]
    u_e, f1, f2 = profile.u[order], profile.f1[order], profile.f2[order]
    return RadialProfile(chart="cylinder", grid=t,
                         u=np.sqrt(r) * u_e, f1=-r * f1, f2=r * f2,
                         lam=profile.lam)


def euclidean_to_sphere(profile):
    """Pull a euclidean profile back to the round sphere minus two poles.

    Inverse stereographic projection with polar angle theta = 2*arctan(r)
    and conformal factor Omega = 2/(1 + r^2); the weights u_s = Omega^(-1/2) u
    and f_s = Omega^(-1) f transport solutions to solutions.  Returns the
    sphere profile together with a convention document.
    """
    if profile.chart != "euclidean":
        raise ValueError("input profile must be on the euclidean chart")
    r = profile.grid
    theta = 2.0 * np.arctan(r)
    omega = 2.0 / (1.0 + r * r)
    sphere = RadialProfile(chart="sphere", grid=theta,
                           u=profile.u / np.sqrt(omega),
                           f1=profile.f1 / omega,
                           f2=profile.f2 / omega,
                           lam=profile.lam)
    convention = {
        "schema": SCHEMA,
        "projection": "inverse stereographic, singular set = both poles",
        "angle": "theta = 2*arctan(r), geodesic polar angle; poles excluded",
        "metric": "round unit three-sphere",
        "conformal_factor": "Omega = 2/(1 + r^2)",
        "scalar_weight": "u_sphere = Omega^(-1/2) * u_euclidean",
        "spinor_weight": "f_sphere = Omega^(-1) * f_euclidean",
    }
    return sphere, convention


# ----------------------------------------------------------------------
# coupling-constant fit

@dataclass(frozen=True)
class CouplingFit:
    kappa: float
    residual: float          # relative L2 misfit over interior nodes
    nodes: int


def coupling_constant_fit(profile):
    """Least-squares kappa in -Lap(u) = kappa (f1^2 + f2^2) u.

    The radial Laplacian is discretized with second-order central differences
    on the log-radius grid (which must be uniform); interior nodes only.
    Quantifies the coupling normalization of a euclidean profile: the
    transported derived homoclinic fits kappa = 1.
    """
    if profile.chart != "euclidean":
        raise ValueError("coupling fit requires a euclidean profile")
    if len(profile.grid) < 5:
        raise ValueError("need at least 5 nodes for the discrete Laplacian")
    s = profile.f1 ** 2 + profile.f2 ** 2
    if np.max(np.abs(s)) == 0.0:
        raise DegenerateProfile("spinor density vanishes identically")

    t = np.log(profile.grid)
    h = np.diff(t)
    if np.max(np.abs(h - h[0])) > 1e-8 * abs(h[0]):
        raise ValueError("fit requires a uniform log-radius grid")
    h = h[0]

    u = profile.u
    # 3D radial Laplacian in log radius: Lap u = e^{-2t} (u_tt + u_t)
    # (with t = ln r; the grid may be stored with t increasing or decreasing)
    u_tt = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / h ** 2
    u_t = (u[2:] - u[:-2]) / (2.0 * h)
    lap = np.exp(-2.0 * t[1:-1]) * (u_tt + u_t)
    lhs = -lap
    rhs = s[1:-1] * u[1:-1]
    denom = float(np.dot(rhs, rhs))
    if denom == 0.0:
        raise DegenerateProfile("coupling term vanishes on interior nodes")
    kappa = float(np.dot(lhs, rhs)) / denom
    misfit = lhs - kappa * rhs
    residual = float(np.linalg.norm(misfit) / max(np.linalg.norm(lhs), 1e-300))
    return CouplingFit(kappa=kappa, residual=residual, nodes=len(lhs))


def best_fit_scale(profile):
    """Best-fit lam matching a euclidean scalar profile to the closed form.

    The family c * (lam^2 + r^2)^(-1/2) drops to 1/sqrt(2) of its r -> 0
    value exactly at r = lam, so lam is read off as the half-maximum-squared
    crossing radius (log-linear interpolation between the bracketing nodes).
    """
    if profile.chart != "euclidean":
        raise ValueError("requires a euclidean profile")
    order = np.argsort(profile.grid)
    r = profile.grid[order]
    u = np.abs(profile.u[order])
    threshold = u.max() / np.sqrt(2.0)
    below = np.nonzero(u < threshold)[0]
    if len(below) == 0 or below[0] == 0:
        raise ValueError("profile does not cross its half-maximum on the grid")
    j = below[0]
    # interpolate log r against u between the bracketing nodes
    w = (threshold - u[j - 1]) / (u[j] - u[j - 1])
    return float(np.exp((1.0 - w) * np.log(r[j - 1]) + w * np.log(r[j])))
