"""Jacobians of both charts, 4x4 eigenvalues, Lyapunov period prediction.

Eigenvalues come from LAPACK (``np.linalg.eigvals``), are made closed under
complex conjugation, and each is certified by the residual of an SVD
eigenvector; the residual check guards conditioning.
"""

import numpy as np
from dataclasses import dataclass

from .errors import ConvergenceFailure, NoEllipticPair
from . import dynamics

#: relative threshold below which the real/imaginary part of an eigenvalue
#: is treated as zero when classifying pairs
CLASSIFY_TOL = 1e-9


@dataclass(frozen=True)
class SpectrumReport:
    """Four eigenvalues, classified into hyperbolic/elliptic pairs if present.

    ``hyperbolic_mu`` is mu for a real pair {+mu, -mu}; ``elliptic_omega`` is
    omega > 0 for a purely imaginary pair {+i omega, -i omega}.  Either may be
    None when the corresponding pair is absent.
    """
    eigenvalues: np.ndarray
    hyperbolic_mu: float | None = None
    elliptic_omega: float | None = None


def jacobian_at(point, chart="original"):
    """Analytic partial derivatives (4x4) of the requested chart's vector
    field at a point."""
    u, v, a, b = np.asarray(point, dtype=float)
    if chart == "original":
        m = np.array([
            [0.0, 1.0, 0.0, 0.0],
            [-(a * a + b * b - 0.25), 0.0, -2.0 * a * u, -2.0 * b * u],
            [2.0 * u * b, 0.0, -1.0, u * u],
            [-2.0 * u * a, 0.0, -u * u, 1.0],
        ])
    elif chart == "rotated":
        m = np.array([
            [0.0, 1.0, 0.0, 0.0],
            [0.25 - a * a - b * b, 0.0, -2.0 * a * u, -2.0 * b * u],
            [-2.0 * u * b, 0.0, 0.0, -(1.0 + u * u)],
            [2.0 * u * a, 0.0, u * u - 1.0, 0.0],
        ])
    else:
        raise ValueError(f"unknown chart {chart!r}")
    return m


def matrix_c():
    """Linearization at the rotated-chart center equilibrium (1, 0, 1/2, 0)."""
    return jacobian_at(dynamics.P_PLUS_ROTATED, chart="rotated")


def eigenvalues_4x4(m):
    """Eigenvalues of a real 4x4 matrix with a residual certificate.

    Each eigenvalue is certified by a unit eigenvector x (smallest singular
    vector of M - lambda I), whose residual must satisfy
    ||(M - lambda I) x|| <= 1e-10 ||M||, otherwise ConvergenceFailure is
    raised.  The eigenvalue set is closed under complex conjugation.
    """
    m = np.asarray(m, dtype=float)
    if m.shape != (4, 4):
        raise ValueError("expected a 4x4 matrix")
    roots = _conjugate_symmetrize(np.linalg.eigvals(m))

    mnorm = np.linalg.norm(m, 2)
    residuals = np.zeros(4)
    for i, lam in enumerate(roots):
        shifted = m - lam * np.eye(4)
        x = np.linalg.svd(shifted)[2][-1].conj()
        residuals[i] = np.linalg.norm(shifted @ x)
    if np.any(residuals > 1e-10 * max(mnorm, 1e-300)):
        raise ConvergenceFailure(
            f"eigenvector residuals {residuals} exceed 1e-10*||M||={1e-10 * mnorm:.3e}")

    hyper, ellip = _classify_pairs(roots)
    return SpectrumReport(eigenvalues=roots, hyperbolic_mu=hyper,
                          elliptic_omega=ellip)


def _conjugate_symmetrize(roots):
    scale = max(1.0, np.abs(roots).max())
    out = []
    remaining = list(roots)
    while remaining:
        r = remaining.pop(0)
        if abs(r.imag) <= CLASSIFY_TOL * scale:
            out.append(complex(r.real, 0.0))
            continue
        # find the conjugate partner and average the pair
        j = int(np.argmin([abs(np.conj(r) - q) for q in remaining]))
        q = remaining.pop(j)
        z = 0.5 * (r + np.conj(q))
        out.extend([z, np.conj(z)])
    return np.array(out)


def _classify_pairs(roots):
    scale = max(1.0, np.abs(roots).max())
    hyper = None
    ellip = None
    reals = sorted(r.real for r in roots
                   if abs(r.imag) <= CLASSIFY_TOL * scale and abs(r.real) > CLASSIFY_TOL * scale)
    if reals:
        mu = max(abs(r) for r in reals)
        if any(abs(r + mu) <= CLASSIFY_TOL * scale * 10 for r in reals):
            hyper = mu
    imags = sorted(r.imag for r in roots
                   if abs(r.real) <= CLASSIFY_TOL * max(1.0, abs(r)) and abs(r.imag) > CLASSIFY_TOL * scale)
    if imags:
        om = max(abs(x) for x in imags)
        if any(abs(x + om) <= CLASSIFY_TOL * scale * 10 for x in imags):
            ellip = om
    return hyper, ellip


def lyapunov_period(report):
    """Limiting period 2*pi/omega of the orbit family at an elliptic pair.

    Requires a purely imaginary pair +/- i omega in the report (tolerance
    |Re| <= 1e-9 max(1, |lambda|)); raises NoEllipticPair otherwise.
    """
    if report.elliptic_omega is None or report.elliptic_omega <= 0:
        raise NoEllipticPair("spectrum has no purely imaginary pair")
    return 2.0 * np.pi / report.elliptic_omega
