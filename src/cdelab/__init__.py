"""Numerical laboratory for a coupled scalar/spinor Hamiltonian system.

The reduced system on the cylinder,

    u' = v,  v' = -(a^2 + b^2 - 1/4) u,  a' = -a + u^2 b,  b' = b - u^2 a,

is conserved by H = v^2/2 + u^2/2 (a^2 + b^2 - 1/4) - a b.  The package
provides: exact dynamics and linearization, symplectic time integration,
a Fourier-spectral realization of the periodic variational problem with a
Newton-Krylov ground-state solver, started from the periodized homoclinic
along the whole branch 0 < eps < 2^(1/4)/pi, whose core also finds the
small periodic orbits at pinned amplitude (a ground state at eps is the
periodic orbit of half-period 1/eps, one Solution type for both),
continuation toward the explicit homoclinic orbit, and conformal transforms
producing singular-solution profiles on punctured euclidean space and the
sphere minus two antipodal points.
"""

from . import dynamics, linear, integrators, spectral, orbits, homoclinic
from . import geometry, serialize, verify, errors

__version__ = "0.1.0"
